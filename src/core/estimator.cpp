#include "core/estimator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "channel/geometry.h"
#include "channel/interference.h"
#include "util/ksubset.h"

namespace thinair::core {

OracleEstimator::OracleEstimator(const std::vector<std::uint32_t>& eve_received,
                                 std::size_t universe)
    : eve_has_(universe, false) {
  for (std::uint32_t i : eve_received) {
    if (i >= universe)
      throw std::out_of_range("OracleEstimator: index >= universe");
    eve_has_[i] = true;
  }
}

std::size_t OracleEstimator::missed_within(
    const std::vector<std::uint32_t>& indices, const net::NodeSet&) const {
  std::size_t missed = 0;
  for (std::uint32_t i : indices)
    if (i >= eve_has_.size() || !eve_has_[i]) ++missed;
  return missed;
}

FractionEstimator::FractionEstimator(double delta) : delta_(delta) {
  if (delta < 0.0 || delta > 1.0)
    throw std::invalid_argument("FractionEstimator: delta outside [0, 1]");
}

std::size_t FractionEstimator::missed_within(
    const std::vector<std::uint32_t>& indices, const net::NodeSet&) const {
  return static_cast<std::size_t>(
      std::floor(delta_ * static_cast<double>(indices.size())));
}

KSubsetEstimator::KSubsetEstimator(const ReceptionTable& table, std::size_t k)
    : table_(table), k_(k) {
  if (k == 0) throw std::invalid_argument("KSubsetEstimator: k == 0");
}

std::size_t KSubsetEstimator::missed_within(
    const std::vector<std::uint32_t>& indices,
    const net::NodeSet& exempt) const {
  // Adversary stand-ins: every receiver not exempted.
  std::vector<packet::NodeId> candidates;
  for (packet::NodeId r : table_.receivers())
    if (!exempt.contains(r)) candidates.push_back(r);
  if (candidates.empty()) return 0;  // nothing to compare against: assume Eve got all

  const std::size_t k = std::min(k_, candidates.size());

  // Enumerate k-subsets; for each, count indices missed by *all* members
  // (the subset's union reception is what a k-antenna Eve would hold).
  std::size_t best = indices.size();
  std::vector<std::size_t> pick(k);
  for (std::size_t i = 0; i < k; ++i) pick[i] = i;
  do {
    std::size_t missed = 0;
    for (std::uint32_t idx : indices) {
      bool any_has = false;
      for (std::size_t p : pick)
        if (table_.has(candidates[p], idx)) {
          any_has = true;
          break;
        }
      if (!any_has) ++missed;
    }
    best = std::min(best, missed);
  } while (util::next_k_subset(pick, candidates.size()));
  return best;
}

LooFractionEstimator::LooFractionEstimator(const ReceptionTable& table,
                                           double safety)
    : table_(table), safety_(safety) {
  if (safety <= 0.0 || safety > 1.0)
    throw std::invalid_argument("LooFractionEstimator: safety outside (0, 1]");
}

double LooFractionEstimator::delta() const {
  // The miss *rate* is a global channel-quality property, so every
  // terminal's rate is a valid hypothesis sample for Eve's — unlike the
  // count estimator, no exemptions apply (exempting a class's members
  // would leave wide classes without hypotheses at all).
  const double n = static_cast<double>(table_.universe());
  if (n == 0.0 || table_.receivers().empty()) return 0.0;
  double min_miss = 1.0;
  for (packet::NodeId j : table_.receivers()) {
    const double miss =
        1.0 - static_cast<double>(table_.received_count(j)) / n;
    min_miss = std::min(min_miss, miss);
  }
  return safety_ * min_miss;
}

std::size_t LooFractionEstimator::missed_within(
    const std::vector<std::uint32_t>& indices, const net::NodeSet&) const {
  return static_cast<std::size_t>(
      std::floor(delta() * static_cast<double>(indices.size())));
}

SlotFractionEstimator::SlotFractionEstimator(const ReceptionTable& table,
                                             std::vector<std::size_t> slot_of,
                                             double safety)
    : slot_of_(std::move(slot_of)) {
  if (safety <= 0.0 || safety > 1.0)
    throw std::invalid_argument("SlotFractionEstimator: safety outside (0, 1]");
  if (slot_of_.empty())
    slot_of_.assign(table.universe(), 0);  // degenerate: one global slot
  if (slot_of_.size() != table.universe())
    throw std::invalid_argument("SlotFractionEstimator: slot_of size");

  std::size_t slots = 0;
  for (std::size_t s : slot_of_) slots = std::max(slots, s + 1);

  // Per slot, per receiver: miss count within the slot's packets.
  std::vector<std::size_t> slot_size(slots, 0);
  for (std::size_t s : slot_of_) ++slot_size[s];

  delta_.assign(slots, 0.0);
  for (std::size_t s = 0; s < slots; ++s) {
    if (slot_size[s] == 0 || table.receivers().empty()) continue;
    double min_rate = 1.0;
    for (packet::NodeId j : table.receivers()) {
      std::size_t missed = 0;
      for (std::uint32_t i = 0; i < table.universe(); ++i)
        if (slot_of_[i] == s && !table.has(j, i)) ++missed;
      min_rate = std::min(min_rate, static_cast<double>(missed) /
                                        static_cast<double>(slot_size[s]));
    }
    delta_[s] = safety * min_rate;
  }
}

std::size_t SlotFractionEstimator::missed_within(
    const std::vector<std::uint32_t>& indices, const net::NodeSet&) const {
  // Like the global fraction bound, this estimates a channel property, so
  // no hypothesis exemptions apply (see LooFractionEstimator).
  double expected = 0.0;
  for (std::uint32_t i : indices) {
    if (i >= slot_of_.size())
      throw std::out_of_range("SlotFractionEstimator: index out of range");
    expected += delta_[slot_of_[i]];
  }
  // Epsilon guards against accumulated floating-point shortfall turning an
  // exact integral bound into the next integer down.
  return static_cast<std::size_t>(std::floor(expected + 1e-9));
}

GeometryEstimator::GeometryEstimator(
    const ReceptionTable& table, std::vector<std::size_t> slot_of,
    const std::vector<std::size_t>& occupied_cells,
    const std::vector<std::size_t>& receiver_cells, double safety,
    std::size_t eve_antennas)
    : slot_of_(std::move(slot_of)), safety_(safety),
      eve_antennas_(eve_antennas) {
  if (safety <= 0.0 || safety > 1.0)
    throw std::invalid_argument("GeometryEstimator: safety outside (0, 1]");
  if (eve_antennas == 0)
    throw std::invalid_argument("GeometryEstimator: zero antennas");
  if (slot_of_.empty()) slot_of_.assign(table.universe(), 0);
  if (slot_of_.size() != table.universe())
    throw std::invalid_argument("GeometryEstimator: slot_of size");
  if (receiver_cells.size() != table.receivers().size())
    throw std::invalid_argument("GeometryEstimator: receiver_cells size");

  // Eve hypotheses: every cell no terminal occupies (the paper's placement
  // rule guarantees Eve is in one of them).
  std::array<bool, channel::CellGrid::kCells> occupied{};
  for (std::size_t c : occupied_cells) {
    if (c >= channel::CellGrid::kCells)
      throw std::out_of_range("GeometryEstimator: cell index");
    occupied[c] = true;
  }
  for (std::size_t c = 0; c < channel::CellGrid::kCells; ++c)
    if (!occupied[c]) candidates_.push_back(c);
  if (candidates_.empty())
    throw std::invalid_argument("GeometryEstimator: no free cell for Eve");

  // Measure the two channel regimes from the receivers' own reports.
  const channel::InterferenceSchedule schedule{channel::CellGrid{}};
  std::size_t jam_missed = 0, jam_total = 0;
  std::size_t clear_missed = 0, clear_total = 0;
  for (std::size_t ri = 0; ri < table.receivers().size(); ++ri) {
    const channel::CellIndex cell{receiver_cells[ri]};
    for (std::uint32_t i = 0; i < table.universe(); ++i) {
      const bool jammed = channel::InterferenceSchedule::is_jammed(
          cell, schedule.pattern(slot_of_[i]));
      const bool missed = !table.has(table.receivers()[ri], i);
      if (jammed) {
        ++jam_total;
        jam_missed += missed ? 1u : 0u;
      } else {
        ++clear_total;
        clear_missed += missed ? 1u : 0u;
      }
    }
  }
  jam_rate_ = jam_total == 0 ? 1.0
                             : static_cast<double>(jam_missed) /
                                   static_cast<double>(jam_total);
  clear_rate_ = clear_total == 0 ? 0.0
                                 : static_cast<double>(clear_missed) /
                                       static_cast<double>(clear_total);
}

std::size_t GeometryEstimator::missed_within(
    const std::vector<std::uint32_t>& indices, const net::NodeSet&) const {
  const channel::InterferenceSchedule schedule{channel::CellGrid{}};
  const std::size_t k = std::min(eve_antennas_, candidates_.size());

  // Enumerate k-subsets of candidate cells; a k-antenna Eve misses a
  // packet only when every antenna misses it, so per-slot rates multiply.
  double worst = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> pick(k);
  for (std::size_t i = 0; i < k; ++i) pick[i] = i;
  do {
    double expected = 0.0;
    for (std::uint32_t i : indices) {
      if (i >= slot_of_.size())
        throw std::out_of_range("GeometryEstimator: index out of range");
      double miss = 1.0;
      for (std::size_t p : pick) {
        const bool jammed = channel::InterferenceSchedule::is_jammed(
            channel::CellIndex{candidates_[p]},
            schedule.pattern(slot_of_[i]));
        miss *= jammed ? jam_rate_ : clear_rate_;
      }
      expected += miss;
    }
    worst = std::min(worst, expected);
  } while (util::next_k_subset(pick, candidates_.size()));
  return static_cast<std::size_t>(std::floor(safety_ * worst + 1e-9));
}

std::string_view to_string(EstimatorKind kind) {
  switch (kind) {
    case EstimatorKind::kOracle: return "oracle";
    case EstimatorKind::kLeaveOneOut: return "leave-one-out";
    case EstimatorKind::kKSubset: return "k-subset";
    case EstimatorKind::kFraction: return "fraction";
    case EstimatorKind::kLooFraction: return "loo-fraction";
    case EstimatorKind::kSlotFraction: return "slot-fraction";
    case EstimatorKind::kGeometry: return "geometry";
  }
  return "unknown";
}

std::unique_ptr<EveBoundEstimator> build_estimator(
    const EstimatorSpec& spec, const ReceptionTable& table,
    const std::vector<std::uint32_t>& eve_received,
    const std::vector<std::size_t>& slot_of,
    const std::vector<std::size_t>& receiver_cells) {
  switch (spec.kind) {
    case EstimatorKind::kOracle:
      return std::make_unique<OracleEstimator>(eve_received,
                                               table.universe());
    case EstimatorKind::kLeaveOneOut:
      return std::make_unique<KSubsetEstimator>(table, 1);
    case EstimatorKind::kKSubset:
      return std::make_unique<KSubsetEstimator>(table, spec.k_antennas);
    case EstimatorKind::kFraction:
      return std::make_unique<FractionEstimator>(spec.fraction_delta);
    case EstimatorKind::kLooFraction:
      return std::make_unique<LooFractionEstimator>(table, spec.loo_safety);
    case EstimatorKind::kSlotFraction:
      return std::make_unique<SlotFractionEstimator>(table, slot_of,
                                                     spec.loo_safety);
    case EstimatorKind::kGeometry:
      return std::make_unique<GeometryEstimator>(
          table, slot_of, spec.occupied_cells, receiver_cells,
          spec.loo_safety, spec.k_antennas);
  }
  throw std::logic_error("build_estimator: unknown estimator kind");
}

}  // namespace thinair::core
