#pragma once
// The traced run's replica of a registered sweep case.
//
// GroupSecretSession::run_round and UnicastSession::run_round are private
// and carry no timers, so the per-layer split is taken by replaying each
// case round by round from the benchmark: the same public calls in the
// same order (open_round, build_estimator, run_phase1, reliable_broadcast,
// plan_phase2, all_y_contents, make_z/s_payloads, reconstruct_y,
// recover_all_y, pool.rows, EveView, compute_leakage, reliable_unicast),
// seeded the way the scenario's case function seeds them (derive_seed2
// for the baseline, sample_placements for the testbed), with a span
// around each call. The erasure model is wrapped in TimedErasure.
//
// The replica guard keeps the split honest: after each case, every
// session is run again through GroupSecretSession::run or
// UnicastSession::run on an identically seeded medium, and its secret
// bytes, per-round LeakageReport and outcome counters, ledger and airtime
// must equal the replica's. The engine's NDJSON of a replica pass must
// also hash to the program's. Either difference fails the traced run.
//
// It covers what the built-in scenarios use (iid/per-link and testbed
// placement sweeps; group, unicast or both; session or efficiency
// metrics) and rejects any other spec at construction. This replica goes
// away once the program records its own spans.

#include <atomic>
#include <cstdint>
#include <map>
#include <vector>

#include "runtime/scenario.h"
#include "runtime/scenario_spec.h"
#include "testbed/layout.h"

namespace perfbench {

/// Per-case counters the replica measures besides spans (summed over the
/// cases it ran; every field is exact).
struct ReplicaCounts {
  std::uint64_t frames = 0;       // ledger frames, every traffic class
  std::uint64_t retransmits = 0;  // reliable attempts beyond the first
  double gf_bytes = 0.0;          // GF(2^8) bytes computed, from shapes
};

class Replica {
 public:
  /// Throws std::invalid_argument for a spec the replica does not cover.
  explicit Replica(const thinair::runtime::ScenarioSpec& spec);

  /// Replay case `cs` with spans, then run the guard. Thread-safe for
  /// distinct cases (the engine's contract). Throws std::logic_error when
  /// the guard finds a difference.
  [[nodiscard]] thinair::runtime::CaseResult run_case(
      const thinair::runtime::CaseSpec& cs);

  /// Totals since construction; read after the pass has joined.
  [[nodiscard]] ReplicaCounts counts() const;
  void reset_counts();

 private:
  const thinair::runtime::ScenarioSpec& spec_;
  bool testbed_ = false;
  bool estimator_axis_ = false;
  bool p_axis_ = false;
  std::map<std::pair<std::size_t, std::size_t>,
           std::vector<thinair::testbed::Placement>>
      placements_;  // (n, cap) -> sample_placements(n, cap)

  std::atomic<std::uint64_t> frames_{0};
  std::atomic<std::uint64_t> retransmits_{0};
  std::atomic<std::uint64_t> gf_bytes_{0};
};

}  // namespace perfbench
