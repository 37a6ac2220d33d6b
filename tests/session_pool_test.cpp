// The session lifecycle and its memory: run() continues a session, the
// per-worker arena gives back the capacity of a pathological case, a
// second engine run on the same threads derives the same bytes, and
// (outside the sanitizers) a per-case allocation budget holds the fig1
// and fig2 round loops.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>

#include "channel/erasure.h"
#include "channel/rng.h"
#include "core/session.h"
#include "net/medium.h"
#include "packet/arena.h"
#include "runtime/engine.h"
#include "runtime/result_sink.h"
#include "runtime/scenarios.h"
#include "runtime/seed.h"
#include "sanitizers.h"

// A count of every operator-new call for the allocation budget. Relaxed:
// the measured loops below are single-threaded, but gtest and the runtime
// may allocate on other threads. At global scope so the replacement
// operator new at the bottom of the file can see it.
std::atomic<std::uint64_t> g_alloc_calls{0};

namespace thinair {
namespace {

// --------------------------------------------------------- arena trim

TEST(PayloadArena, TrimToWatermarkGivesBackFatEpoch) {
  packet::PayloadArena arena;
  // One fat epoch: far past the 64 KiB block minimum.
  for (int i = 0; i < 8; ++i) (void)arena.alloc(std::size_t{64} << 10);
  arena.reset();
  arena.trim_to_watermark();
  const std::size_t fat = arena.capacity();
  EXPECT_GT(fat, std::size_t{256} << 10);

  // Small epochs decay the watermark; the trim the engine applies before
  // every case must hand the fat blocks back instead of pinning the spike
  // capacity for the rest of the sweep.
  for (int epoch = 0; epoch < 32; ++epoch) {
    (void)arena.alloc(512);
    arena.reset();
    arena.trim_to_watermark();
  }
  EXPECT_LT(arena.capacity(), fat);
  EXPECT_GT(arena.trimmed_bytes(), 0u);
}

// ---------------------------------------------------------- lifecycle

struct Net {
  channel::IidErasure channel;
  net::SimMedium medium;

  Net(double p, std::size_t n, std::uint64_t seed)
      : channel(p), medium(channel, channel::Rng(seed)) {
    for (std::size_t i = 0; i < n; ++i)
      medium.attach(packet::NodeId{static_cast<std::uint16_t>(i)},
                    net::Role::kTerminal);
    medium.attach(packet::NodeId{static_cast<std::uint16_t>(n)},
                  net::Role::kEavesdropper);
  }
};

// Repeated run() continues the same lifecycle: the round counter and the
// virtual clock advance, so a second run is not a replay of the first.
TEST(SessionPool, RunContinuesLifecycle) {
  Net net(0.5, 3, 1234);
  core::SessionConfig cfg;
  cfg.x_packets_per_round = 16;
  cfg.payload_bytes = 16;
  cfg.rounds = 2;
  cfg.estimator.kind = core::EstimatorKind::kLooFraction;
  core::GroupSecretSession session(net.medium, cfg);
  const core::SessionResult first = session.run();
  const double clock_after_first = net.medium.now();
  const core::SessionResult second = session.run();

  EXPECT_NE(first.secret, second.secret);
  EXPECT_GT(net.medium.now(), clock_after_first);
}

// ------------------------------------------- round-loop allocation budget

#if !THINAIR_UNDER_SANITIZER
// Mean operator-new calls per case of a registered scenario, run case by
// case on this thread the way the engine runs them (fresh worker arena
// per case, seed derived from the index). Only the second of two passes
// over the plan counts: the first warms the thread's arena and the
// scenario's lazily built caches.
double warm_allocs_per_case(const std::string& name) {
  runtime::register_builtin_scenarios();
  const runtime::Scenario* scenario =
      runtime::ScenarioRegistry::instance().find(name);
  if (scenario == nullptr) throw std::logic_error("no scenario " + name);
  const runtime::SweepPlan plan = scenario->plan();
  std::uint64_t calls = 0;
  for (int pass = 0; pass < 2; ++pass) {
    calls = 0;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      runtime::worker_arena().reset();
      runtime::worker_arena().trim_to_watermark();
      const runtime::CaseSpec cs{i, runtime::derive_seed(42, i), plan.at(i)};
      const std::uint64_t before =
          g_alloc_calls.load(std::memory_order_relaxed);
      (void)scenario->run(cs);
      calls += g_alloc_calls.load(std::memory_order_relaxed) - before;
    }
  }
  return static_cast<double>(calls) / static_cast<double>(plan.size());
}
#endif

// Ceilings: the measured warm mean plus under 10% (fig1 3449, fig2 988
// on gcc 12 / libstdc++), so a change that brings back a per-frame or
// per-row allocation in the round loop fails here.
TEST(AllocationBudget, Fig1WarmCases) {
#if !THINAIR_UNDER_SANITIZER
  const double per_case = warm_allocs_per_case("fig1");
  RecordProperty("allocs_per_case", std::to_string(per_case));
  EXPECT_LE(per_case, 3750.0) << "fig1 allocations per warm case";
#else
  GTEST_SKIP() << "allocation counting is disabled under the sanitizers";
#endif
}

TEST(AllocationBudget, Fig2WarmCases) {
#if !THINAIR_UNDER_SANITIZER
  const double per_case = warm_allocs_per_case("fig2");
  RecordProperty("allocs_per_case", std::to_string(per_case));
  EXPECT_LE(per_case, 1050.0) << "fig2 allocations per warm case";
#else
  GTEST_SKIP() << "allocation counting is disabled under the sanitizers";
#endif
}

// ------------------------------------------- engine reuse, byte equality

// worker_arena() is thread_local, so a second engine run on the same
// thread reuses the blocks the first run grew. The NDJSON must not notice.
TEST(SessionPool, EngineRunTwiceSameBytes) {
  runtime::register_builtin_scenarios();
  const runtime::Scenario* scenario =
      runtime::ScenarioRegistry::instance().find("headline");
  ASSERT_NE(scenario, nullptr);

  const auto run_once = [&] {
    std::ostringstream ndjson;
    runtime::ResultSink sink(scenario->name, &ndjson);
    runtime::RunOptions options;
    options.threads = 1;
    options.master_seed = 42;
    options.limit = 6;
    runtime::run_scenario(*scenario, options, sink);
    return ndjson.str();
  };

  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace thinair

#if !THINAIR_UNDER_SANITIZER
// Counting overloads of the global allocator, defined after all other
// code so nothing above accidentally depends on them being active.
void* operator new(std::size_t n) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

void* operator new[](std::size_t n) { return operator new(n); }

void operator delete[](void* p) noexcept { operator delete(p); }

void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }
#endif
