#include "gf/linear_space.h"

#include <algorithm>
#include <stdexcept>

#include "gf/kernels.h"

namespace thinair::gf {

namespace {

/// Column of v's leading nonzero entry, or v.size() when v is zero.
std::size_t leading(std::span<const std::uint8_t> v) {
  const auto it = std::find_if(v.begin(), v.end(),
                               [](std::uint8_t b) { return b != 0; });
  return static_cast<std::size_t>(it - v.begin());
}

}  // namespace

std::span<std::uint8_t> LinearSpace::EchelonRows::candidate() {
  const std::size_t slot = size();
  data.resize((slot + 1) * width);
  const std::span<std::uint8_t> v(data.data() + slot * width, width);
  std::fill(v.begin(), v.end(), std::uint8_t{0});
  return v;
}

void LinearSpace::EchelonRows::eliminate(std::span<std::uint8_t> v) const {
  // Fused gather: v is the shared output, blocks of kMaxFusedRows rows the
  // inputs. Reading every coefficient v[pivot] up front (rather than
  // interleaved with the eliminations) is sound because the rows are fully
  // reduced — each is zero at every *other* row's pivot, so eliminating
  // with row b never changes v at another row's pivot column. Rows come in
  // pivot order and are zero before their pivots, so a block only touches
  // v from its first row's pivot on.
  const Kernel& kernel = active_kernel();
  std::uint8_t cc[kMaxFusedRows];
  const std::uint8_t* xs[kMaxFusedRows];
  std::size_t live = 0;
  std::size_t from = 0;
  for (std::size_t b = 0; b < size(); ++b) {
    const std::uint8_t c = v[pivots[b]];
    if (c == 0) continue;
    if (live == 0) from = pivots[b];
    cc[live] = c;
    xs[live] = row(b) + from;
    if (++live == kMaxFusedRows) {
      kernel.dot_multi(cc, live, xs, v.data() + from, width - from);
      live = 0;
    }
  }
  if (live > 0) kernel.dot_multi(cc, live, xs, v.data() + from, width - from);
}

void LinearSpace::EchelonRows::add_candidate(std::size_t pivot) {
  const std::size_t slot = size();
  std::uint8_t* w = data.data() + slot * width;
  // w is zero before its pivot, so normalising and back-substituting it
  // touch only the columns from the pivot on.
  const std::size_t tail = width - pivot;
  mul_row(GF256{w[pivot]}.inv(), w + pivot, w + pivot, tail);
  // Back-substitute into the rows leading before `pivot` (the only ones
  // that can be nonzero there) to stay fully reduced — fused: w is the
  // shared input, batches of kMaxFusedRows rows the outputs.
  const auto pos = std::lower_bound(pivots.begin(), pivots.end(), pivot);
  const auto idx = static_cast<std::size_t>(pos - pivots.begin());
  MadBatch batch(w + pivot, tail);
  for (std::size_t b = 0; b < idx; ++b)
    batch.add(row(b)[pivot], row(b) + pivot);
  batch.flush();
  pivots.insert(pos, pivot);
  slots.insert(slots.begin() + static_cast<std::ptrdiff_t>(idx), slot);
}

void LinearSpace::reduce(std::span<std::uint8_t> v) const {
  // The unit rows first: clearing their columns is the elimination against
  // them, and leaves v at every dense pivot as it was. The dense rows are
  // zero at every unit column, so eliminating with them keeps it clear.
  // This is the one elimination behind insert(), contains() and
  // residual_rank()'s fixed-basis phase.
  if (units_ > 0)
    for (std::size_t i = 0; i < dim_; ++i) v[i] &= keep_[i];
  dense_.eliminate(v);
}

bool LinearSpace::insert_candidate(std::span<std::uint8_t> w) {
  reduce(w);
  const std::size_t pivot = leading(w);
  if (pivot == dim_) return false;
  dense_.add_candidate(pivot);
  return true;
}

bool LinearSpace::insert(std::span<const std::uint8_t> v) {
  if (v.size() != dim_) throw std::invalid_argument("LinearSpace: bad length");
  const std::span<std::uint8_t> w = dense_.candidate();
  std::copy(v.begin(), v.end(), w.begin());
  return insert_candidate(w);
}

std::size_t LinearSpace::insert_rows(const Matrix& m) {
  if (m.cols() != dim_)
    throw std::invalid_argument("LinearSpace: matrix width");
  dense_.reserve(dense_.size() + std::min(m.rows(), dim_ - rank()));
  std::size_t added = 0;
  for (std::size_t i = 0; i < m.rows(); ++i)
    if (insert(m.row(i))) ++added;
  return added;
}

bool LinearSpace::insert_unit(std::size_t index) {
  if (index >= dim_) throw std::out_of_range("LinearSpace: unit index");
  if (keep_[index] == 0) return false;
  if (std::binary_search(dense_.pivots.begin(), dense_.pivots.end(), index)) {
    // A dense row leads here, so e_index reduces to a vector with a later
    // pivot (or to zero): the general path.
    const std::span<std::uint8_t> w = dense_.candidate();
    w[index] = 1;
    return insert_candidate(w);
  }
  // No row leads at `index`, so e_index is independent of the basis, and
  // back-substituting it into the dense rows clears their column `index`
  // (which lies after each one's pivot, so no pivot moves).
  for (std::size_t b = 0; b < dense_.size(); ++b) dense_.row(b)[index] = 0;
  keep_[index] = 0;
  ++units_;
  return true;
}

bool LinearSpace::contains(std::span<const std::uint8_t> v) const {
  if (v.size() != dim_) throw std::invalid_argument("LinearSpace: bad length");
  std::vector<std::uint8_t> w(v.begin(), v.end());
  reduce(w);
  return leading(w) == dim_;
}

std::size_t LinearSpace::residual_rank(const Matrix& m) const {
  // Rank counting only — no copy of the basis. Each candidate row is
  // reduced against the fixed basis, then against the previously accepted
  // candidates. Those are kept in reduced echelon form among themselves;
  // they are zero at every fixed pivot and unit column, so eliminating
  // with them cannot undo the first reduction.
  if (m.cols() != dim_)
    throw std::invalid_argument("LinearSpace: matrix width");
  EchelonRows fresh(dim_);
  fresh.reserve(std::min(m.rows(), dim_ - rank()));
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const std::span<std::uint8_t> w = fresh.candidate();
    const std::span<const std::uint8_t> row = m.row(i);
    std::copy(row.begin(), row.end(), w.begin());
    reduce(w);
    fresh.eliminate(w);
    const std::size_t pivot = leading(w);
    if (pivot != dim_) fresh.add_candidate(pivot);
  }
  return fresh.size();
}

Matrix LinearSpace::basis() const {
  Matrix out(rank(), dim_);
  std::size_t r = 0;
  std::size_t b = 0;
  for (std::size_t c = 0; c < dim_; ++c) {
    if (keep_[c] == 0) {
      out.set(r++, c, kOne);
    } else if (b < dense_.size() && dense_.pivots[b] == c) {
      std::copy_n(dense_.row(b++), dim_, out.row(r++).begin());
    }
  }
  return out;
}

}  // namespace thinair::gf
