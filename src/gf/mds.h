#pragma once
// Maximum Distance Separable (MDS) code constructions over GF(2^8).
//
// The paper derives its y-, z- and s-packets from MDS codes [10]: the
// property actually consumed by the protocol is that *any* k columns of a
// k x n generator matrix form an invertible k x k matrix. Consequences:
//  - privacy amplification (y- and s-packets): if the adversary misses at
//    least k of the n combined inputs, the k outputs are jointly uniform
//    from her point of view;
//  - erasure repair (z-packets): a receiver that already knows all but
//    d <= k of the inputs can recover them from any d of the k outputs.
//
// Two classic constructions are provided: Vandermonde matrices (rows are
// powers of distinct evaluation points) and Cauchy matrices. Both are MDS
// for any k <= n <= 255 over GF(2^8).

#include <cstddef>
#include <cstdint>
#include <span>

#include "gf/matrix.h"

namespace thinair::gf::mds {

/// Maximum number of columns (distinct nonzero evaluation points) any of
/// these constructions supports over GF(2^8).
inline constexpr std::size_t kMaxColumns = 255;

/// k x n Vandermonde generator: entry (i, j) = alpha_j^i where
/// alpha_j = alpha^j are distinct nonzero points. Any k columns are
/// linearly independent. Requires k <= n <= 255.
[[nodiscard]] Matrix vandermonde(std::size_t k, std::size_t n);

/// Row i < 255 of the full 255 x 255 Vandermonde table (entry j is
/// alpha^(i*j)), generated at compile time: vandermonde(k, n) is its
/// top-left k x n block, and per-round code that needs a few rows reads
/// them here instead of building a matrix.
[[nodiscard]] std::span<const std::uint8_t, kMaxColumns> vandermonde_row(
    std::size_t i);

/// Square n x n Vandermonde matrix (invertible); vandermonde(n, n).
[[nodiscard]] Matrix vandermonde_square(std::size_t n);

/// k x n Cauchy generator: entry (i, j) = 1 / (x_i + y_j) with all
/// x_i, y_j distinct. Every square submatrix (not just k x k) is
/// invertible. Requires k + n <= 256.
[[nodiscard]] Matrix cauchy(std::size_t k, std::size_t n);

/// Systematic form [I_k | P] of the Vandermonde code: the row space is
/// unchanged, so the any-k-columns property is preserved. Requires
/// k <= n <= 255.
[[nodiscard]] Matrix systematic(std::size_t k, std::size_t n);

/// Exhaustively verify that every k-column subset of g (k = g.rows()) is
/// invertible. Exponential in the worst case; intended for tests with
/// small dimensions.
[[nodiscard]] bool is_mds(const Matrix& g);

}  // namespace thinair::gf::mds
