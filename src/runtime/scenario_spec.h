#pragma once
// The declarative scenario-composition API.
//
// A ScenarioSpec describes a whole scenario — channel model, topology,
// session parameters, estimator axis, baseline selection and sweep grid —
// as plain data. compile() turns a spec into a runnable Scenario whose
// case function is pure given its CaseSpec, so every spec inherits the
// engine's determinism contract (byte-identical NDJSON at any thread
// count) for free. The three built-ins (fig1/fig2/headline) are spec
// literals registered through this same path, and the text front-end
// (runtime/spec_parse.h) parses/serialises specs so `thinair run --spec
// FILE` and `thinair run NAME --set key=value` compose scenarios without
// recompiling.
//
// The case grid a spec compiles to, in canonical axis order (first axis
// slowest-varying, matching SweepPlan):
//
//   estimator  — one value per estimator.series entry (present when > 1)
//   n          — group size, one value per topology.n entry
//   p          — iid erasure probability (placement-free models, when
//                sweep.p is non-empty)
//   placement  — testbed placement index (placement-sweep mode)
//   rep        — Monte-Carlo repetition (when sweep.repeats > 1)
//
// Every axis value is carried as a double in the NDJSON params object;
// seeds derive from (master_seed, case index) exactly as for hand-written
// scenarios.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "channel/factory.h"
#include "channel/testbed_channel.h"
#include "core/estimator.h"
#include "core/pool.h"
#include "net/medium.h"
#include "packet/types.h"
#include "runtime/scenario.h"

namespace thinair::runtime {

/// Which channel the cases run over. The placement-free kinds (iid,
/// per-link) attach n terminals plus Eve to a flat Medium; the testbed
/// kind builds the Sec. 4 geometric channel from a placement.
struct ChannelSpec {
  channel::ChannelModelKind model = channel::ChannelModelKind::kTestbed;
  /// kIid: the fixed erasure probability — ignored when sweep.p supplies
  /// a "p" axis.
  double iid_p = 0.2;
  /// kPerLink: probability of unlisted links, plus the link table.
  double default_p = 0.0;
  std::vector<channel::LinkErasure> links;
  /// kTestbed: the full geometric config, incl. the interference toggle.
  channel::TestbedChannel::Config testbed;

  friend bool operator==(const ChannelSpec&, const ChannelSpec&) = default;
};

/// Who stands where. Two modes for the testbed channel: a placement
/// *sweep* (cells empty — enumerate every possible positioning per n,
/// optionally capped) or an *explicit* placement (cells non-empty — one
/// case per estimator series/repeat, n = cells.size()). Placement-free
/// channels only read n_values.
struct TopologySpec {
  /// Group sizes ("n" axis). Testbed placements require n in [2, 8].
  std::vector<std::size_t> n_values = {3, 4, 5, 6, 7, 8};
  /// Placement cap per n in sweep mode (0 = every possible positioning);
  /// a per-estimator-series cap overrides it.
  std::size_t max_placements = 0;
  /// Explicit placement: one grid cell per terminal, plus Eve's cell.
  std::vector<std::size_t> cells;
  std::size_t eve_cell = 8;
  /// Optional explicit coordinates (metres) overriding the cell centres
  /// of the explicit placement; aligned with `cells`. When `cells` is
  /// empty, cells are derived from the positions via the grid.
  std::vector<channel::Vec2> positions;
  std::optional<channel::Vec2> eve_position;

  friend bool operator==(const TopologySpec&, const TopologySpec&) = default;
};

/// The core::SessionConfig binding (estimator aside — that is an axis).
struct SessionSpec {
  std::size_t x_packets = 90;  // N per round; 90 spreads over all 9 patterns
  std::size_t payload_bytes = packet::kPaperPayloadBytes;  // 100 B
  std::size_t rounds = 0;      // 0 = one round per terminal
  bool rotate_alice = true;    // Sec. 3.2's worst-case avoidance
  core::PoolStrategy pool = core::PoolStrategy::kClassShared;

  friend bool operator==(const SessionSpec&, const SessionSpec&) = default;
};

/// One value of the estimator axis. Figure 2 sweeps three of these with
/// different placement caps per series (its estimator axis is dependent).
struct EstimatorSeries {
  core::EstimatorKind kind = core::EstimatorKind::kGeometry;
  /// Per-series placement cap (0 = topology.max_placements).
  std::size_t max_placements = 0;

  friend bool operator==(const EstimatorSeries&,
                         const EstimatorSeries&) = default;
};

/// The estimator axis plus the knobs shared by every series.
struct EstimatorAxis {
  std::vector<EstimatorSeries> series = {{}};
  std::size_t k_antennas = 1;    // kKSubset / kGeometry
  double fraction_delta = 0.30;  // kFraction
  double safety = 0.75;          // fraction/geometry safety margin

  friend bool operator==(const EstimatorAxis&, const EstimatorAxis&) = default;
};

/// Extra sweep axes beyond the structural ones.
struct SweepSpec {
  /// iid erasure-probability axis (placement-free models only).
  std::vector<double> p_values;
  /// Monte-Carlo repetitions per grid point ("rep" axis when > 1); each
  /// repetition is an independent case with its own derived seed.
  std::size_t repeats = 1;
  /// Generic axis over any numeric spec key, by the same dotted path
  /// --set uses: key = "session.x_packets", values = [30, 60, 90] makes
  /// the sweep's slowest axis "session.x_packets", compiling one spec
  /// variant per value. Targets under sweep.* and run.* are rejected
  /// (self-reference / execution pinning). Both empty = no key axis;
  /// setting one without the other is a compile error.
  std::string key;
  std::vector<double> values;

  friend bool operator==(const SweepSpec&, const SweepSpec&) = default;
};

/// Which algorithm(s) each case runs.
enum class Baseline : std::uint8_t {
  kGroup,    // the paper's group algorithm
  kUnicast,  // the pair-wise baseline
  kBoth,     // both, seeded independently (Figure 1's comparison)
};

/// Which metrics each case emits.
enum class MetricSet : std::uint8_t {
  kSession,     // reliability / efficiency / secret_rate_bps
  kEfficiency,  // data-plane efficiency (the Figure-1 quantity)
};

/// Spec-file names; "unknown" past the last enumerator.
[[nodiscard]] std::string_view to_string(Baseline b);
[[nodiscard]] std::string_view to_string(MetricSet m);

struct OutputSpec {
  Baseline baseline = Baseline::kGroup;
  MetricSet metrics = MetricSet::kSession;
  /// Emit the paper's closed forms next to the simulation (iid channel +
  /// kEfficiency only): Figure 1's group_analytic / unicast_analytic.
  bool analytic = false;

  friend bool operator==(const OutputSpec&, const OutputSpec&) = default;
};

/// Execution pinning, so a spec file alone fully determines a run: when
/// set, these supply the master seed and thread count `thinair run` uses
/// unless the corresponding CLI flag is given explicitly (flags win —
/// they are the more deliberate act). Unset keys keep today's behaviour
/// (CLI defaults). Threads do not affect output bytes (the engine's
/// determinism contract); pinning them is about reproducing *timing*
/// conditions, pinning the seed about reproducing the data.
struct RunSpec {
  std::optional<std::uint64_t> seed;
  std::optional<std::size_t> threads;  // 0 = hardware concurrency

  friend bool operator==(const RunSpec&, const RunSpec&) = default;
};

/// A whole scenario as data: assign its fields, then compile() checks
/// them all at once.
struct ScenarioSpec {
  std::string name;
  std::string description;
  ChannelSpec channel;
  TopologySpec topology;
  SessionSpec session;
  EstimatorAxis estimator;
  SweepSpec sweep;
  OutputSpec output;
  RunSpec run;
  net::MacParams mac;

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// The most values one sweep may materialise: the values of one range in
/// a spec file, sweep.repeats, and the cases of a plan built from explicit
/// points (placement sweeps, explicit-placement repetitions, sweep.key
/// variants). Past it, a typo is a diagnostic, not a multi-GB allocation.
inline constexpr std::size_t kMaxSweepValues = std::size_t{1} << 20;

/// The most x-payload bytes one round may carry (session.x_packets x
/// session.payload_bytes): 64 MiB. session.x_packets and session.rounds
/// are bounded by kMaxSweepValues.
inline constexpr std::size_t kMaxRoundPayloadBytes = std::size_t{1} << 26;

/// Validate `spec` and compile it into a runnable Scenario: every key's
/// domain (runtime::check_keys, the rules a spec file meets), then the
/// rules across keys and the size caps. The returned Scenario carries a
/// copy of the spec (Scenario::spec), keeps the engine's purity contract,
/// and throws nothing at run time that compile could have caught. Throws
/// std::invalid_argument with a "<name>: <problem>" message on an
/// inconsistent spec.
[[nodiscard]] Scenario compile(const ScenarioSpec& spec);

/// compile() + ScenarioRegistry::add in one step.
void register_spec(const ScenarioSpec& spec);

}  // namespace thinair::runtime
