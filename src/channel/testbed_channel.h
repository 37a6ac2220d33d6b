#pragma once
// The composite channel of the paper's deployment (Sec. 4): geometry-driven
// path loss + rotating artificial interference + SINR-based packet loss.
//
// Nodes are placed at positions in the 14 m^2 area (usually cell centres).
// For a (tx, rx, slot) the model takes the received signal power, the
// jammers' interference power under the slot's noise pattern, and maps the
// resulting SINR to an erasure probability.
//
// Positions stay put while the jammers rotate through the 9 noise
// patterns, so that probability depends only on (tx, rx, slot mod 9), and
// place() precomputes it into a link table. Placing node v works out v's
// interference plus noise under each pattern, then the erasure
// probability of every link into and out of v, against every node placed
// so far and v itself: k nodes placed once cost k^2 * 9 entries in all,
// and re-placing a node refreshes its row and column. The table is sized
// to the highest placed id + 1.
//
// erasure_probability() is then a bounds check plus one read of the
// table. It is const and caches nothing, so any number of threads may
// share a channel once its nodes are placed. link_sinr_db() still
// computes from scratch: it is the reference the table is tested against.

#include <array>
#include <optional>
#include <vector>

#include "channel/erasure.h"
#include "channel/geometry.h"
#include "channel/interference.h"
#include "channel/pathloss.h"
#include "channel/sinr.h"

namespace thinair::channel {

class TestbedChannel final : public ErasureModel {
 public:
  struct Config {
    CellGrid grid{14.0};
    PathLossParams pathloss{};
    InterfererParams interferer{};
    SinrParams sinr{};
    bool interference_enabled = true;

    friend bool operator==(const Config&, const Config&) = default;
  };

  /// Node ids must stay below this, the width of net::NodeSet: no medium
  /// can deliver to a higher id, and it bounds the link table.
  static constexpr std::size_t kMaxNodes = 64;

  TestbedChannel() : TestbedChannel(Config{}) {}
  explicit TestbedChannel(Config config);

  /// Place (or move) a node and refresh every link into and out of it.
  /// Throws std::out_of_range for ids >= kMaxNodes. Should a link's power
  /// be unrepresentable (a position so far away its signal underflows),
  /// this throws and leaves the node unplaced. Positions default to cell
  /// centres via place_in_cell.
  void place(packet::NodeId node, Vec2 position);
  void place_in_cell(packet::NodeId node, CellIndex cell);

  [[nodiscard]] Vec2 position_of(packet::NodeId node) const;
  [[nodiscard]] CellIndex cell_of(packet::NodeId node) const;

  /// The precomputed probability; throws std::out_of_range when tx or rx
  /// is not placed.
  [[nodiscard]] double erasure_probability(
      const LinkContext& link) const override;

  /// SINR (dB) on a link during a slot, computed from the positions alone;
  /// exposed for calibration and tests.
  [[nodiscard]] double link_sinr_db(packet::NodeId tx, packet::NodeId rx,
                                    std::size_t slot) const;

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const InterferenceSchedule& schedule() const {
    return schedule_;
  }

 private:
  static constexpr std::size_t kPatterns = InterferenceSchedule::kPatterns;

  /// A placed node: where it stands, and its interference plus noise (dB)
  /// under each noise pattern, the SINR's denominator at this receiver.
  struct Node {
    Vec2 position;
    std::array<double, kPatterns> noise_db{};
  };

  [[nodiscard]] bool placed(std::size_t id) const {
    return id < nodes_.size() && nodes_[id].has_value();
  }
  /// Widen the table to ids [0, n), keeping every entry already there.
  void grow(std::size_t n);
  /// Fill the table's 9 entries for the link tx -> rx.
  void fill_link(std::size_t tx, const Node& from, std::size_t rx,
                 const Node& to);

  Config config_;
  LogDistancePathLoss pathloss_;
  InterferenceSchedule schedule_;
  std::vector<std::optional<Node>> nodes_;  // by id; empty = not placed
  /// Erasure probability of link tx -> rx under pattern p, at
  /// (tx * nodes_.size() + rx) * kPatterns + p.
  std::vector<double> erasure_;
};

}  // namespace thinair::channel
