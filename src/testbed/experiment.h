#pragma once
// One testbed experiment (Sec. 4): place n terminals and Eve, run one full
// protocol pass (every terminal plays Alice once, rotating through the 9
// noise patterns), and score efficiency + reliability.

#include <optional>
#include <vector>

#include "core/session.h"
#include "testbed/layout.h"

namespace thinair::testbed {

struct ExperimentConfig {
  Placement placement;
  /// Optional explicit coordinates (metres) overriding the cell centres;
  /// aligned with placement.terminal_cells. The placement's cells stay
  /// authoritative for the interference schedule and the geometry
  /// estimator, so each position should lie inside its node's cell.
  std::vector<channel::Vec2> terminal_positions;
  std::optional<channel::Vec2> eve_position;
  core::SessionConfig session;  // rounds == 0 -> full rotation
  channel::TestbedChannel::Config channel;
  net::MacParams mac;  // defaults match the paper: 1 Mbps, 12 ms slots
  std::uint64_t seed = 1;
};

struct ExperimentResult {
  core::SessionResult session;
  std::size_t n_terminals = 0;
  Placement placement;

  [[nodiscard]] double reliability() const { return session.reliability(); }
  [[nodiscard]] double efficiency() const { return session.efficiency(); }
  [[nodiscard]] double secret_rate_bps() const {
    return session.secret_rate_bps();
  }
};

/// Run a single experiment. Deterministic given the config.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config);

/// Same, with the unicast baseline instead of the group algorithm.
[[nodiscard]] ExperimentResult run_unicast_experiment(
    const ExperimentConfig& config);

}  // namespace thinair::testbed
