#include "gf/mds.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <vector>

namespace thinair::gf::mds {

namespace {

using Row = std::array<std::uint8_t, kMaxColumns>;

// Entry (i, j) = alpha_j^i with alpha_j = alpha^j, i.e. alpha^(i*j mod 255).
consteval std::array<Row, kMaxColumns> make_vandermonde_table() {
  std::array<Row, kMaxColumns> t{};
  for (std::size_t i = 0; i < kMaxColumns; ++i)
    for (std::size_t j = 0; j < kMaxColumns; ++j)
      t[i][j] = GF256::alpha_pow(static_cast<unsigned>(i * j % 255)).value();
  return t;
}

constexpr std::array<Row, kMaxColumns> kVandermonde = make_vandermonde_table();

}  // namespace

std::span<const std::uint8_t, kMaxColumns> vandermonde_row(std::size_t i) {
  if (i >= kMaxColumns) throw std::out_of_range("mds::vandermonde_row: i");
  return kVandermonde[i];
}

Matrix vandermonde(std::size_t k, std::size_t n) {
  if (k > n) throw std::invalid_argument("mds::vandermonde: k > n");
  if (n > kMaxColumns) throw std::invalid_argument("mds::vandermonde: n > 255");
  Matrix g(k, n);
  for (std::size_t i = 0; i < k; ++i)
    std::copy_n(kVandermonde[i].begin(), n, g.row(i).begin());
  return g;
}

Matrix vandermonde_square(std::size_t n) { return vandermonde(n, n); }

Matrix cauchy(std::size_t k, std::size_t n) {
  if (k + n > 256) throw std::invalid_argument("mds::cauchy: k + n > 256");
  Matrix g(k, n);
  // x_i = i, y_j = k + j as field elements: disjoint by construction.
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      const GF256 d = GF256(static_cast<std::uint8_t>(i)) +
                      GF256(static_cast<std::uint8_t>(k + j));
      g.set(i, j, d.inv());
    }
  return g;
}

Matrix systematic(std::size_t k, std::size_t n) {
  Matrix g = vandermonde(k, n);
  const auto pivots = g.row_reduce();
  if (pivots.size() != k)
    throw std::logic_error("mds::systematic: unexpected rank deficiency");
  return g;
}

namespace {

bool is_mds_rec(const Matrix& g, std::vector<std::size_t>& picked,
                std::size_t next) {
  const std::size_t k = g.rows();
  if (picked.size() == k) {
    return g.select_columns(picked).rank() == k;
  }
  const std::size_t remaining = k - picked.size();
  for (std::size_t c = next; c + remaining <= g.cols(); ++c) {
    picked.push_back(c);
    if (!is_mds_rec(g, picked, c + 1)) return false;
    picked.pop_back();
  }
  return true;
}

}  // namespace

bool is_mds(const Matrix& g) {
  std::vector<std::size_t> picked;
  picked.reserve(g.rows());
  return is_mds_rec(g, picked, 0);
}

}  // namespace thinair::gf::mds
