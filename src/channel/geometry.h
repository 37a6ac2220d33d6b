#pragma once
// Planar geometry for the testbed: node positions and the paper's 3x3
// logical cell grid over a 14 m^2 square area (Sec. 4).

#include <cstddef>
#include <iosfwd>
#include <vector>

namespace thinair::channel {

struct Vec2 {
  double x = 0.0;
  double y = 0.0;
  friend constexpr bool operator==(Vec2, Vec2) = default;
};

[[nodiscard]] double distance(Vec2 a, Vec2 b);

std::ostream& operator<<(std::ostream& os, Vec2 v);

/// Index of one of the paper's 9 logical cells, row-major: cell (r, c) has
/// index 3*r + c with r, c in {0, 1, 2}.
struct CellIndex {
  std::size_t value = 0;
  [[nodiscard]] constexpr std::size_t row() const { return value / 3; }
  [[nodiscard]] constexpr std::size_t col() const { return value % 3; }
  friend constexpr auto operator<=>(CellIndex, CellIndex) = default;
};

/// The paper's testbed floor plan: a square of `area` m^2 divided into a
/// 3x3 grid of logical cells. The cell diagonal (1.75 m for 14 m^2) is the
/// minimum separation the paper requires between Eve and any terminal.
class CellGrid {
 public:
  static constexpr std::size_t kRows = 3;
  static constexpr std::size_t kCols = 3;
  static constexpr std::size_t kCells = kRows * kCols;

  /// Default: the paper's 14 m^2 floor plan.
  CellGrid() : CellGrid(14.0) {}
  explicit CellGrid(double area_m2);

  [[nodiscard]] double side() const { return side_; }
  [[nodiscard]] double cell_side() const { return side_ / 3.0; }
  /// Diagonal of one cell: the paper's minimum terminal-Eve distance.
  [[nodiscard]] double min_distance() const;

  /// Centre of the given cell.
  [[nodiscard]] Vec2 center(CellIndex cell) const;

  /// Cell containing the given point (points on the boundary go to the
  /// higher-index cell; out-of-area points, however far, clamp to the
  /// nearest cell; a NaN coordinate counts as below the area).
  [[nodiscard]] CellIndex cell_of(Vec2 p) const;

  /// All 9 cell centres, by index.
  [[nodiscard]] std::vector<Vec2> centers() const;

  friend bool operator==(const CellGrid&, const CellGrid&) = default;

 private:
  double side_;
};

}  // namespace thinair::channel
