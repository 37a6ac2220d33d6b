#pragma once
// Incrementally maintained row space over GF(2^8).
//
// The secrecy analysis (Sec. 4's reliability metric) models everything Eve
// has seen as a set of linear functionals of the round's x-packets. This
// class keeps that set as a row-reduced basis so that
//   - inserting an observation is O(rank * dim),
//   - "does this functional add information?" is a residual test,
//   - equivocation queries reduce to rank arithmetic.
//
// Most of Eve's view is unit functionals (the x-packets she overheard), so
// the basis keeps its unit rows as a column mask and stores only the
// other rows densely. Every dense row is zero at each unit column, so a
// unit row never changes once inserted, and eliminating against all units
// is clearing their columns.

#include <cstddef>
#include <span>
#include <vector>

#include "gf/matrix.h"

namespace thinair::gf {

/// A subspace of F_256^dim maintained as a reduced row-echelon basis.
class LinearSpace {
 public:
  explicit LinearSpace(std::size_t dim)
      : dim_(dim), keep_(dim, std::uint8_t{0xFF}), dense_(dim) {}

  [[nodiscard]] std::size_t dim() const { return dim_; }
  [[nodiscard]] std::size_t rank() const { return units_ + dense_.size(); }

  /// Insert a vector; returns true when it was independent of (and thus
  /// enlarged) the space. Vector length must equal dim(). The return
  /// value is the rank-growth signal the secrecy analysis is built on —
  /// callers that genuinely only want the side effect must say so with
  /// std::ignore.
  [[nodiscard]] bool insert(std::span<const std::uint8_t> v);

  /// Insert every row of m (m.cols() must equal dim()); returns the number
  /// of rows that enlarged the space. Discardable: bulk observation
  /// feeds routinely ignore the per-batch count (rank() has the total).
  std::size_t insert_rows(const Matrix& m);

  /// Insert the `index`-th unit vector (an observation of one raw symbol).
  /// O(dense rows) unless a dense row already leads at `index`.
  [[nodiscard]] bool insert_unit(std::size_t index);

  /// True when v lies in the span.
  [[nodiscard]] bool contains(std::span<const std::uint8_t> v) const;

  /// rank(space + rows of m) - rank(space): how many dimensions of m remain
  /// unknown given this space. This is exactly the per-symbol equivocation
  /// of a secret with combination matrix m given these observations.
  [[nodiscard]] std::size_t residual_rank(const Matrix& m) const;

  /// The current basis as a matrix (rank() x dim()) in reduced row-echelon
  /// form: unit and dense rows interleaved by pivot column.
  [[nodiscard]] Matrix basis() const;

 private:
  /// Rows in reduced echelon form among themselves: each normalised
  /// (pivot == 1), zero before its pivot and at every other row's pivot.
  /// Stored flat in insertion order (slot k at data[k * width]), with the
  /// slots listed by ascending pivot, so adding a row moves no bytes and
  /// allocates only when the storage grows.
  struct EchelonRows {
    explicit EchelonRows(std::size_t w) : width(w) {}

    [[nodiscard]] std::size_t size() const { return pivots.size(); }
    [[nodiscard]] std::uint8_t* row(std::size_t i) {
      return data.data() + slots[i] * width;
    }
    [[nodiscard]] const std::uint8_t* row(std::size_t i) const {
      return data.data() + slots[i] * width;
    }

    /// Room for `rows` rows plus the candidate slot.
    void reserve(std::size_t rows) {
      data.reserve((rows + 1) * width);
      pivots.reserve(rows);
      slots.reserve(rows);
    }
    /// A zeroed candidate row in the slot after the last row.
    [[nodiscard]] std::span<std::uint8_t> candidate();
    /// Subtract from v its components along these rows.
    void eliminate(std::span<std::uint8_t> v) const;
    /// Keep the candidate, eliminated against these rows and leading at
    /// `pivot`: normalise it, back-substitute it into the rows before it
    /// and list its slot in pivot order.
    void add_candidate(std::size_t pivot);

    std::size_t width;
    std::vector<std::uint8_t> data;
    std::vector<std::size_t> pivots;  // ascending
    std::vector<std::size_t> slots;   // slots[i]: the row leading at pivots[i]
  };

  /// Reduce v against the whole basis in place (units, then dense rows).
  void reduce(std::span<std::uint8_t> v) const;

  /// Reduce w, dense_'s candidate row, and keep it when it is independent.
  [[nodiscard]] bool insert_candidate(std::span<std::uint8_t> w);

  std::size_t dim_;
  // The unit rows: keep_[c] == 0 when e_c is in the basis, 0xFF otherwise,
  // so v[c] &= keep_[c] eliminates v against every unit row at once.
  std::vector<std::uint8_t> keep_;
  std::size_t units_ = 0;
  // The dense rows, each also zero at every unit column.
  EchelonRows dense_;
};

}  // namespace thinair::gf
