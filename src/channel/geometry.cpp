#include "channel/geometry.h"

#include <cmath>
#include <ostream>
#include <stdexcept>

namespace thinair::channel {

double distance(Vec2 a, Vec2 b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

std::ostream& operator<<(std::ostream& os, Vec2 v) {
  return os << "(" << v.x << ", " << v.y << ")";
}

CellGrid::CellGrid(double area_m2) : side_(std::sqrt(area_m2)) {
  if (!(area_m2 > 0.0))
    throw std::invalid_argument("CellGrid: area must be positive");
}

double CellGrid::min_distance() const {
  return cell_side() * std::sqrt(2.0);
}

Vec2 CellGrid::center(CellIndex cell) const {
  if (cell.value >= kCells) throw std::out_of_range("CellGrid::center");
  const double cs = cell_side();
  return {(static_cast<double>(cell.col()) + 0.5) * cs,
          (static_cast<double>(cell.row()) + 0.5) * cs};
}

CellIndex CellGrid::cell_of(Vec2 p) const {
  const double cs = cell_side();
  // Compared as doubles, never cast: a huge quotient has no integer value
  // to cast to. NaN fails both tests and lands in index 0.
  const auto clamp_idx = [&](double v) -> std::size_t {
    const double i = v / cs;
    return i >= 2.0 ? 2 : i >= 1.0 ? 1 : 0;
  };
  return CellIndex{3 * clamp_idx(p.y) + clamp_idx(p.x)};
}

std::vector<Vec2> CellGrid::centers() const {
  std::vector<Vec2> out;
  out.reserve(kCells);
  for (std::size_t i = 0; i < kCells; ++i) out.push_back(center(CellIndex{i}));
  return out;
}

}  // namespace thinair::channel
