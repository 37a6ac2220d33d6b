#include "gf/matrix.h"

#include <ostream>
#include <stdexcept>

#include "gf/gather.h"
#include "gf/kernels.h"

namespace thinair::gf {

Matrix::Matrix(std::initializer_list<std::initializer_list<unsigned>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  owned_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_)
      throw std::invalid_argument("Matrix: ragged initializer");
    for (unsigned v : r) owned_.push_back(static_cast<std::uint8_t>(v));
  }
  data_ = owned_.data();
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.set(i, i, kOne);
  return m;
}

namespace {

// out += lhs * rhs: each output row IS a fused gather of rhs's rows (the
// "payloads") under the matching lhs row's coefficients, so the inner
// accumulation runs through gf::gather / dot_multi — the decode-direction
// shape (the analysis products H*G and C*G are tall-input, short-output).
// XOR accumulation over exact field products is order-independent, so the
// bytes match the axpy-per-coefficient formulation exactly.
void mul_into(const Matrix& lhs, const Matrix& rhs, Matrix& out) {
  std::vector<std::span<const std::uint8_t>> ins(rhs.rows());
  for (std::size_t k = 0; k < rhs.rows(); ++k) ins[k] = rhs.row(k);
  for (std::size_t i = 0; i < out.rows(); ++i)
    gather(lhs.row(i), ins, out.row(i));
}

}  // namespace

Matrix Matrix::mul(const Matrix& rhs) const {
  if (cols_ != rhs.rows_)
    throw std::invalid_argument("Matrix::mul: dimension mismatch");
  Matrix out(rows_, rhs.cols_);
  mul_into(*this, rhs, out);
  return out;
}

Matrix Matrix::mul(const Matrix& rhs, packet::PayloadArena& arena) const {
  if (cols_ != rhs.rows_)
    throw std::invalid_argument("Matrix::mul: dimension mismatch");
  Matrix out(rows_, rhs.cols_, arena);
  mul_into(*this, rhs, out);
  return out;
}

Matrix Matrix::transpose() const {
  Matrix out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) out.set(j, i, at(i, j));
  return out;
}

Matrix Matrix::vstack(const Matrix& below) const {
  if (empty()) return below;
  if (below.empty()) return *this;
  if (cols_ != below.cols_)
    throw std::invalid_argument("Matrix::vstack: column mismatch");
  Matrix out(rows_ + below.rows_, cols_);
  std::copy(data_, data_ + rows_ * cols_, out.data_);
  std::copy(below.data_, below.data_ + below.rows_ * below.cols_,
            out.data_ + rows_ * cols_);
  return out;
}

Matrix Matrix::hstack(const Matrix& right) const {
  if (rows_ != right.rows_)
    throw std::invalid_argument("Matrix::hstack: row mismatch");
  Matrix out(rows_, cols_ + right.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    auto dst = out.row(i);
    auto a = row(i);
    auto b = right.row(i);
    std::copy(a.begin(), a.end(), dst.begin());
    std::copy(b.begin(), b.end(),
              dst.begin() + static_cast<std::ptrdiff_t>(cols_));
  }
  return out;
}

Matrix Matrix::select_columns(std::span<const std::size_t> cols) const {
  Matrix out(rows_, cols.size());
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols.size(); ++j) {
      if (cols[j] >= cols_)
        throw std::out_of_range("Matrix::select_columns: index");
      out.set(i, j, at(i, cols[j]));
    }
  return out;
}

Matrix Matrix::select_rows(std::span<const std::size_t> rows) const {
  Matrix out(rows.size(), cols_);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] >= rows_) throw std::out_of_range("Matrix::select_rows: index");
    auto src = row(rows[i]);
    std::copy(src.begin(), src.end(), out.row(i).begin());
  }
  return out;
}

std::vector<std::size_t> Matrix::row_reduce() {
  std::vector<std::size_t> pivots;
  pivots.reserve(std::min(rows_, cols_));
  std::size_t r = 0;
  for (std::size_t c = 0; c < cols_ && r < rows_; ++c) {
    std::size_t pivot = r;
    while (pivot < rows_ && at(pivot, c).is_zero()) ++pivot;
    if (pivot == rows_) continue;
    if (pivot != r) {
      for (std::size_t j = 0; j < cols_; ++j) {
        const GF256 tmp = at(r, j);
        set(r, j, at(pivot, j));
        set(pivot, j, tmp);
      }
    }
    const GF256 inv = at(r, c).inv();
    mul_row(inv, row(r).data(), row(r).data(), cols_);
    // Eliminate column c from every other row, fused: the pivot row is
    // the shared input, batches of kMaxFusedRows rows the outputs.
    MadBatch batch(row(r).data(), cols_);
    for (std::size_t i = 0; i < rows_; ++i)
      if (i != r) batch.add(at(i, c).value(), row(i).data());
    batch.flush();
    pivots.push_back(c);
    ++r;
  }
  return pivots;
}

std::size_t Matrix::rank() const {
  Matrix tmp = *this;
  return tmp.row_reduce().size();
}

std::optional<Matrix> Matrix::inverse() const {
  if (rows_ != cols_) return std::nullopt;
  Matrix aug = hstack(identity(rows_));
  const auto pivots = aug.row_reduce();
  if (pivots.size() != rows_) return std::nullopt;
  for (std::size_t i = 0; i < rows_; ++i)
    if (pivots[i] != i) return std::nullopt;  // rank deficiency in left block
  Matrix out(rows_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < rows_; ++j) out.set(i, j, aug.at(i, cols_ + j));
  return out;
}

std::optional<Matrix> Matrix::solve(const Matrix& b) const {
  if (b.rows_ != rows_)
    throw std::invalid_argument("Matrix::solve: rhs row mismatch");
  Matrix aug = hstack(b);
  const auto pivots = aug.row_reduce();
  // Unique solution requires every column of *this* to be a pivot column,
  // and no pivot may fall in the augmented block (inconsistency).
  std::size_t lhs_pivots = 0;
  for (std::size_t p : pivots) {
    if (p < cols_)
      ++lhs_pivots;
    else
      return std::nullopt;  // 0 = nonzero row -> inconsistent
  }
  if (lhs_pivots != cols_) return std::nullopt;  // underdetermined
  Matrix x(cols_, b.cols_);
  for (std::size_t i = 0; i < cols_; ++i)
    for (std::size_t j = 0; j < b.cols_; ++j) x.set(i, j, aug.at(i, cols_ + j));
  return x;
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  os << "[" << m.rows() << "x" << m.cols() << "]\n";
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j)
      os << static_cast<unsigned>(m.at(i, j).value())
         << (j + 1 == m.cols() ? "" : " ");
    os << "\n";
  }
  return os;
}

}  // namespace thinair::gf
