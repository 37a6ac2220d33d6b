#pragma once
// The sweep engine: expands a scenario's SweepPlan, derives one seed per
// case, runs every case on `threads` threads (the calling thread plus
// threads - 1 helpers) that claim case indices from one shared atomic
// cursor, and streams the results through a ResultSink, whose drainer
// thread owns all formatting and I/O — workers only ever do a wait-free
// ring push (see docs/runtime.md). The determinism contract:
// for a fixed (scenario, master_seed), the NDJSON bytes and the summary
// aggregates are identical for every thread count, because nothing
// observable depends on scheduling — seeds come from case indices and
// the sink re-orders emission by index.

#include <cstdint>
#include <utility>
#include <vector>

#include "core/session.h"
#include "core/unicast.h"
#include "packet/arena.h"
#include "runtime/object_pool.h"
#include "runtime/result_sink.h"
#include "runtime/scenario.h"

namespace thinair::runtime {

/// Hard ceiling on worker threads one run will spawn. Output is
/// thread-count-invariant (the determinism contract), so the engine
/// clamps rather than errors; the CLI rejects requests beyond it up
/// front so typos fail loudly.
inline constexpr std::size_t kMaxRunThreads = 1024;

struct RunOptions {
  std::size_t threads = 0;        // 0 = hardware concurrency
  std::uint64_t master_seed = 1;
  /// Run only the first `limit` cases of the plan (0 = all) — a cheap
  /// smoke-run knob for the CLI.
  std::size_t limit = 0;
};

struct RunStats {
  std::size_t cases = 0;       // cases actually run (after --limit)
  std::size_t plan_cases = 0;  // cases the plan holds
  std::size_t threads = 0;
  double wall_s = 0.0;

  /// True when --limit cut the plan short — per-group summaries then
  /// cover partial groups (the sink stamps the NDJSON accordingly).
  [[nodiscard]] bool truncated() const { return cases < plan_cases; }

  [[nodiscard]] double cases_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(cases) / wall_s : 0.0;
  }
};

/// hardware_concurrency(), never 0 — what RunOptions::threads = 0 means.
[[nodiscard]] std::size_t hardware_threads();

/// Execute `scenario` and feed every case into `sink` (the caller calls
/// sink.finish() semantics internally — the sink is finished on return).
/// Throws whatever the scenario's plan/run throws: the first case
/// exception stops further claims and is rethrown once every thread has
/// joined.
RunStats run_scenario(const Scenario& scenario, const RunOptions& options,
                      ResultSink& sink);

/// Convenience for presentation layers (bench tables) that need every
/// case, not just aggregates: run on the engine and return (spec, result)
/// pairs in case-index order. Holds all results in memory — use the sink
/// API for unbounded sweeps.
std::vector<std::pair<CaseSpec, CaseResult>> run_scenario_collect(
    const Scenario& scenario, const RunOptions& options,
    RunStats* stats = nullptr);

/// The calling worker's reusable payload arena. The engine resets it
/// before every case, so a scenario's case function can hand it to the
/// sessions it builds (SessionConfig::arena) and a sweep of thousands of
/// cases allocates its payload memory once per thread instead of once per
/// payload. Arena contents never outlive a case and never cross threads,
/// so the determinism contract is unaffected.
[[nodiscard]] packet::PayloadArena& worker_arena();

/// The calling worker's session pools: free-list recycled
/// GroupSecretSession / UnicastSession objects plus an arena pool for
/// per-session arenas. Scenario case functions acquire sessions here
/// (acquire == construct bit-for-bit, by the reset() contract), so a
/// sweep of thousands of cases reuses one session object per worker
/// instead of rebuilding per-session state per case. Pool objects never
/// cross threads; acquisition order per worker is irrelevant to output
/// bytes, so the determinism contract is unaffected.
struct WorkerPools {
  ObjectPool<core::GroupSecretSession> group_sessions;
  ObjectPool<core::UnicastSession> unicast_sessions;
  ArenaPool arenas;
};
[[nodiscard]] WorkerPools& worker_pools();

}  // namespace thinair::runtime
