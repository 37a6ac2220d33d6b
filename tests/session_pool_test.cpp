// Pooled session lifecycle: the reset contract under churn.
//
// runtime::ObjectPool promises that acquiring a recycled object is
// observably identical to constructing a fresh one — the property that
// lets the engine, the daemon and the churn bench recycle session state
// without perturbing a single output byte. This suite holds the pools to
// that contract directly: pooled-vs-fresh result equality, run()/reset()
// lifecycle semantics, a 10k-session churn over rotating configs and
// failure paths, arena watermark trimming, and (outside the sanitizers)
// zero net allocation once the pools are warm and a per-case allocation
// budget for the fig1 and fig2 round loops.
#include "runtime/object_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "channel/erasure.h"
#include "channel/rng.h"
#include "core/session.h"
#include "core/unicast.h"
#include "net/medium.h"
#include "runtime/engine.h"
#include "runtime/result_sink.h"
#include "runtime/scenarios.h"
#include "runtime/seed.h"

// The sanitizers interpose the global allocator (and deliberately never
// reuse addresses), so the counting check only runs in plain builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define THINAIR_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define THINAIR_ALLOC_COUNTING 0
#else
#define THINAIR_ALLOC_COUNTING 1
#endif
#else
#define THINAIR_ALLOC_COUNTING 1
#endif

// Live-allocation counter for the zero-net-allocation check, and a count
// of every operator-new call for the allocation budget. Relaxed atomics:
// the measured loops below are single-threaded, but gtest and the runtime
// may allocate on other threads. At global scope so the replacement
// operator new/delete at the bottom of the file can see them.
std::atomic<std::int64_t> g_live_allocs{0};
std::atomic<std::uint64_t> g_alloc_calls{0};

namespace thinair {
namespace {

// ---------------------------------------------------------------- pool core

struct Counted {
  int value = 0;
  bool poisoned = false;
  explicit Counted(int v) : value(v) {}
  void reset(int v) {
    if (v < 0) throw std::invalid_argument("Counted: negative");
    value = v;
    poisoned = false;
  }
};

TEST(ObjectPool, AcquireConstructsThenRecycles) {
  runtime::ObjectPool<Counted> pool;
  Counted* a = pool.acquire(1);
  EXPECT_EQ(a->value, 1);
  EXPECT_EQ(pool.size(), 1u);
  pool.release(a);
  EXPECT_EQ(pool.available(), 1u);

  Counted* b = pool.acquire(2);
  EXPECT_EQ(b, a);  // recycled, not rebuilt
  EXPECT_EQ(b->value, 2);
  EXPECT_EQ(pool.size(), 1u);

  const runtime::PoolCounters c = pool.stats().snapshot();
  EXPECT_EQ(c.acquired, 2u);
  EXPECT_EQ(c.constructed, 1u);
  EXPECT_EQ(c.released, 1u);
  EXPECT_DOUBLE_EQ(c.hit_rate(), 0.5);
  pool.release(b);
}

TEST(ObjectPool, ResetThrowReturnsObjectToFreeList) {
  runtime::ObjectPool<Counted> pool;
  pool.release(pool.acquire(1));
  ASSERT_EQ(pool.available(), 1u);

  EXPECT_THROW((void)pool.acquire(-1), std::invalid_argument);
  // The failed acquire kept the object pooled and resettable...
  EXPECT_EQ(pool.available(), 1u);
  EXPECT_EQ(pool.stats().snapshot().reset_failures, 1u);
  // ...so the next valid acquire still recycles it.
  Counted* again = pool.acquire(7);
  EXPECT_EQ(again->value, 7);
  EXPECT_EQ(pool.size(), 1u);
  pool.release(again);
}

TEST(ObjectPool, HandleReleasesOnScopeExit) {
  runtime::ObjectPool<Counted> pool;
  {
    const auto h = pool.acquire_scoped(3);
    EXPECT_EQ(h->value, 3);
    EXPECT_EQ(pool.available(), 0u);
  }
  EXPECT_EQ(pool.available(), 1u);
}

TEST(ArenaPool, ReleaseTrimsToWatermark) {
  runtime::ArenaPool pool;
  // One fat epoch: far past the 64 KiB block minimum.
  {
    const auto arena = pool.acquire_scoped();
    for (int i = 0; i < 8; ++i) (void)arena->alloc(std::size_t{64} << 10);
  }
  const std::size_t fat = pool.capacity();
  EXPECT_GT(fat, std::size_t{256} << 10);

  // Small epochs decay the watermark; the release-time trim must hand the
  // fat blocks back instead of pinning the spike capacity forever.
  for (int epoch = 0; epoch < 32; ++epoch) {
    const auto arena = pool.acquire_scoped();
    (void)arena->alloc(512);
  }
  EXPECT_LT(pool.capacity(), fat);
  EXPECT_GT(pool.trimmed_bytes(), 0u);
}

// ---------------------------------------------------------- session reuse

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

core::SessionConfig small_config(std::size_t n_packets = 12,
                                 std::size_t payload = 16,
                                 std::size_t rounds = 1) {
  core::SessionConfig cfg;
  cfg.x_packets_per_round = n_packets;
  cfg.payload_bytes = payload;
  cfg.rounds = rounds;
  cfg.estimator.kind = core::EstimatorKind::kLooFraction;
  return cfg;
}

void expect_same_result(const core::SessionResult& got,
                        const core::SessionResult& want,
                        const std::string& context) {
  EXPECT_EQ(got.secret, want.secret) << context;
  EXPECT_EQ(got.duration_s, want.duration_s) << context;
  ASSERT_EQ(got.rounds.size(), want.rounds.size()) << context;
  for (std::size_t i = 0; i < got.rounds.size(); ++i) {
    EXPECT_EQ(got.rounds[i].pool_size, want.rounds[i].pool_size) << context;
    EXPECT_EQ(got.rounds[i].secret_bits, want.rounds[i].secret_bits)
        << context;
    EXPECT_EQ(got.rounds[i].data_packets, want.rounds[i].data_packets)
        << context;
  }
  EXPECT_EQ(got.ledger.total_bits(), want.ledger.total_bits()) << context;
}

// The heart of the contract: a session recycled through the pool derives
// exactly the bytes a freshly constructed session would, across changing
// media, seeds and configs.
TEST(SessionPool, PooledGroupSessionMatchesFreshConstruction) {
  runtime::ObjectPool<core::GroupSecretSession> pool;
  for (std::uint64_t i = 0; i < 8; ++i) {
    const std::uint64_t seed = runtime::derive_seed(99, i);
    const core::SessionConfig cfg =
        small_config(8 + 4 * (i % 3), 8 << (i % 2));

    Net pooled_net(0.3, 3, seed);
    const auto pooled = pool.acquire_scoped(pooled_net.medium, cfg);
    const core::SessionResult got = pooled->run();

    Net fresh_net(0.3, 3, seed);
    core::GroupSecretSession fresh(fresh_net.medium, cfg);
    expect_same_result(got, fresh.run(), "cycle " + std::to_string(i));
  }
  EXPECT_EQ(pool.size(), 1u);  // one object served every cycle
}

TEST(SessionPool, PooledUnicastSessionMatchesFreshConstruction) {
  runtime::ObjectPool<core::UnicastSession> pool;
  for (std::uint64_t i = 0; i < 4; ++i) {
    const std::uint64_t seed = runtime::derive_seed(7, i);
    Net pooled_net(0.4, 4, seed);
    const auto pooled = pool.acquire_scoped(pooled_net.medium, small_config());
    const core::SessionResult got = pooled->run();

    Net fresh_net(0.4, 4, seed);
    core::UnicastSession fresh(fresh_net.medium, small_config());
    expect_same_result(got, fresh.run(), "cycle " + std::to_string(i));
  }
  EXPECT_EQ(pool.size(), 1u);
}

// Repeated run() continues the same lifecycle (round counter and virtual
// clock advance); reset() — not construction — is what restarts it.
TEST(SessionPool, RunContinuesAndResetRestarts) {
  Net net(0.5, 3, 1234);
  core::GroupSecretSession session(net.medium, small_config(16, 16, 2));
  const core::SessionResult first = session.run();
  const core::SessionResult second = session.run();

  // The second run consumed later rounds of the same virtual clock: fresh
  // erasure draws, continuing round ids — not a replay of the first.
  EXPECT_NE(first.secret, second.secret);

  // reset() on an identical fresh medium restores first-run bytes.
  Net net2(0.5, 3, 1234);
  session.reset(net2.medium, small_config(16, 16, 2));
  expect_same_result(session.run(), first, "after reset");
}

TEST(SessionPool, ResetValidatesBeforeMutating) {
  Net net(0.5, 3, 55);
  core::GroupSecretSession session(net.medium, small_config());
  const core::SessionResult want = [&] {
    Net probe(0.5, 3, 55);
    core::GroupSecretSession fresh(probe.medium, small_config());
    return fresh.run();
  }();

  core::SessionConfig bad = small_config();
  bad.x_packets_per_round = 0;
  EXPECT_THROW(session.reset(net.medium, bad), std::invalid_argument);

  // The failed reset left the session fully usable with its prior state.
  const core::SessionResult got = session.run();
  expect_same_result(got, want, "run after failed reset");
}

// ------------------------------------------------------------- 10k churn

TEST(SessionPool, TenThousandSessionChurn) {
  constexpr std::size_t kCycles = 10'000;
  channel::IidErasure channel(0.25);

  runtime::WorkerPools pools;
  std::size_t with_secret = 0;
  std::size_t failures = 0;

  for (std::size_t i = 0; i < kCycles; ++i) {
    const std::uint64_t seed = runtime::derive_seed(2026, i);
    const std::size_t n_terminals = 2 + i % 3;

    net::SimMedium medium(channel, channel::Rng(seed));
    for (std::size_t t = 0; t < n_terminals; ++t)
      medium.attach(packet::NodeId{static_cast<std::uint16_t>(t)},
                    net::Role::kTerminal);
    medium.attach(packet::NodeId{static_cast<std::uint16_t>(n_terminals)},
                  net::Role::kEavesdropper);

    core::SessionConfig cfg =
        small_config(4 + 4 * (i % 3), std::size_t{8} << (i % 3));
    const auto arena = pools.arenas.acquire_scoped();
    cfg.arena = arena.get();

    // Every 97th cycle exercises the failure path: an invalid config must
    // throw out of acquire without leaking the pooled slot.
    if (i % 97 == 96) {
      core::SessionConfig bad = cfg;
      bad.payload_bytes = 0;
      const std::size_t free_before = pools.group_sessions.available();
      EXPECT_THROW((void)pools.group_sessions.acquire(medium, bad),
                   std::invalid_argument);
      EXPECT_EQ(pools.group_sessions.available(), free_before);
      ++failures;
      continue;
    }

    if (i % 5 == 4) {
      const auto session = pools.unicast_sessions.acquire_scoped(medium, cfg);
      if (!session->run().secret.empty()) ++with_secret;
    } else {
      const auto session = pools.group_sessions.acquire_scoped(medium, cfg);
      if (!session->run().secret.empty()) ++with_secret;
    }
  }

  EXPECT_GT(with_secret, 0u);
  EXPECT_GT(failures, 0u);

  // Serial churn needs exactly one object per pool; everything else is
  // free-list reuse.
  EXPECT_EQ(pools.group_sessions.size(), 1u);
  EXPECT_EQ(pools.unicast_sessions.size(), 1u);
  EXPECT_EQ(pools.arenas.size(), 1u);
  EXPECT_GE(pools.group_sessions.stats().snapshot().hit_rate(), 0.99);
  EXPECT_GE(pools.arenas.stats().snapshot().hit_rate(), 0.99);
  EXPECT_EQ(pools.group_sessions.stats().snapshot().reset_failures,
            failures);
}

// ------------------------------------------------- zero net allocation

TEST(SessionPool, WarmChurnIsAllocationFree) {
#if THINAIR_ALLOC_COUNTING
  channel::IidErasure channel(0.25);
  runtime::WorkerPools pools;

  const auto cycle = [&](std::size_t i) {
    net::SimMedium medium(channel, channel::Rng(runtime::derive_seed(3, i)));
    for (std::uint16_t t = 0; t < 3; ++t)
      medium.attach(packet::NodeId{t}, net::Role::kTerminal);
    medium.attach(packet::NodeId{3}, net::Role::kEavesdropper);
    core::SessionConfig cfg = small_config(8 + 4 * (i % 2), 16);
    const auto arena = pools.arenas.acquire_scoped();
    cfg.arena = arena.get();
    const auto session = pools.group_sessions.acquire_scoped(medium, cfg);
    (void)session->run();
  };

  // Warm up over every config variant the measured loop will use, plus
  // slack for lazily grown containers to reach steady-state capacity.
  for (std::size_t i = 0; i < 64; ++i) cycle(i);

  const std::int64_t before = g_live_allocs.load(std::memory_order_relaxed);
  for (std::size_t i = 64; i < 1064; ++i) cycle(i);
  const std::int64_t after = g_live_allocs.load(std::memory_order_relaxed);

  // Transient (alloc, free) pairs inside a cycle are fine — the medium is
  // rebuilt per cycle by design. What pooling forbids is *net* growth.
  EXPECT_LE(after - before, 0)
      << "warm pooled churn leaked " << (after - before)
      << " live allocations over 1000 cycles";
#else
  GTEST_SKIP() << "allocation counting is disabled under the sanitizers";
#endif
}

// ------------------------------------------- round-loop allocation budget

#if THINAIR_ALLOC_COUNTING
// Mean operator-new calls per case of a registered scenario, run case by
// case on this thread the way the engine runs them (fresh worker arena
// per case, seed derived from the index). Only the second of two passes
// over the plan counts: the first warms the thread's arena and pools.
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

// Ceilings: the measured warm mean plus under 10% (fig1 3419, fig2 974
// on gcc 12 / libstdc++), so a change that brings back a per-frame or
// per-row allocation in the round loop fails here.
TEST(AllocationBudget, Fig1WarmCases) {
#if THINAIR_ALLOC_COUNTING
  const double per_case = warm_allocs_per_case("fig1");
  RecordProperty("allocs_per_case", std::to_string(per_case));
  EXPECT_LE(per_case, 3750.0) << "fig1 allocations per warm case";
#else
  GTEST_SKIP() << "allocation counting is disabled under the sanitizers";
#endif
}

TEST(AllocationBudget, Fig2WarmCases) {
#if THINAIR_ALLOC_COUNTING
  const double per_case = warm_allocs_per_case("fig2");
  RecordProperty("allocs_per_case", std::to_string(per_case));
  EXPECT_LE(per_case, 1050.0) << "fig2 allocations per warm case";
#else
  GTEST_SKIP() << "allocation counting is disabled under the sanitizers";
#endif
}

// ------------------------------------------- engine reuse, byte equality

// worker_pools() is thread_local, so a second engine run on the same
// threads genuinely recycles the first run's session objects. The NDJSON
// must not notice.
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

#if THINAIR_ALLOC_COUNTING
// Counting overloads of the global allocator, defined after all other
// code so nothing above accidentally depends on them being active.
void* operator new(std::size_t n) {
  g_live_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept {
  if (p != nullptr) {
    g_live_allocs.fetch_sub(1, std::memory_order_relaxed);
    std::free(p);
  }
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

void* operator new[](std::size_t n) { return operator new(n); }

void operator delete[](void* p) noexcept { operator delete(p); }

void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }
#endif
