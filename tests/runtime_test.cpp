// The scenario runtime: seed derivation, plan expansion, result
// reordering, the engine's shared-cursor loop, and its headline
// guarantee — a sweep's NDJSON is byte-identical at any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <ostream>
#include <random>
#include <set>
#include <sstream>
#include <streambuf>
#include <thread>

#include "channel/rng.h"
#include "runtime/engine.h"
#include "runtime/scenario_spec.h"
#include "runtime/scenarios.h"
#include "runtime/seed.h"

namespace thinair::runtime {
namespace {

// ----------------------------------------------------------------- seeds

TEST(Seed, DeterministicAndDistinct) {
  EXPECT_EQ(derive_seed(1, 0), derive_seed(1, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) seen.insert(derive_seed(42, i));
  EXPECT_EQ(seen.size(), 1000u);  // no collisions across indices
  EXPECT_NE(derive_seed(1, 5), derive_seed(2, 5));  // master matters
  EXPECT_NE(derive_seed2(1, 5), derive_seed(1, 5));  // second stream differs
}

TEST(Seed, IndependentOfNeighbours) {
  // Adjacent indices must not produce correlated low bits (SplitMix's
  // whole point). Crude check: parity of the seeds is not constant.
  int ones = 0;
  for (std::uint64_t i = 0; i < 64; ++i)
    ones += static_cast<int>(derive_seed(7, i) & 1);
  EXPECT_GT(ones, 16);
  EXPECT_LT(ones, 48);
}

// ------------------------------------------------------------------ plan

TEST(SweepPlan, CartesianExpansion) {
  SweepPlan plan;
  plan.add_axis("a", {1, 2, 3});
  plan.add_axis("b", {10, 20});
  ASSERT_EQ(plan.size(), 6u);
  // Last axis fastest-varying.
  EXPECT_EQ(plan.at(0), (Params{{"a", 1}, {"b", 10}}));
  EXPECT_EQ(plan.at(1), (Params{{"a", 1}, {"b", 20}}));
  EXPECT_EQ(plan.at(5), (Params{{"a", 3}, {"b", 20}}));
  EXPECT_THROW((void)plan.at(6), std::out_of_range);
}

TEST(SweepPlan, ExplicitPoints) {
  SweepPlan plan;
  plan.add_point({{"x", 1}});
  plan.add_point({{"x", 5}, {"y", 2}});
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_DOUBLE_EQ(param(plan.at(1), "y"), 2.0);
  EXPECT_THROW(plan.add_axis("z", {1}), std::logic_error);
}

TEST(SweepPlan, RejectsBadAxes) {
  SweepPlan plan;
  EXPECT_THROW(plan.add_axis("a", {}), std::invalid_argument);
  plan.add_axis("a", {1});
  EXPECT_THROW(plan.add_axis("a", {2}), std::invalid_argument);
  EXPECT_THROW(plan.add_point({{"x", 1}}), std::logic_error);
  EXPECT_THROW((void)param(plan.at(0), "missing"), std::out_of_range);
  EXPECT_EQ(SweepPlan{}.size(), 0u);
}

// ------------------------------------------------------------------ sink

TEST(ResultSink, ReordersOutOfOrderPushes) {
  std::ostringstream out;
  ResultSink sink("s", &out);
  const auto spec = [](std::size_t i) {
    return CaseSpec{i, derive_seed(1, i), {{"i", static_cast<double>(i)}}};
  };
  const auto result = [](double v) {
    return CaseResult{"g", {{"m", v}}};
  };
  sink.push(spec(2), result(2));
  EXPECT_TRUE(out.str().empty());  // waiting for 0 and 1
  sink.push(spec(0), result(0));
  sink.push(spec(1), result(1));
  sink.finish();
  EXPECT_EQ(sink.cases(), 3u);

  std::string line;
  std::istringstream lines(out.str());
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("\"index\":" + std::to_string(i)), std::string::npos);
  }
  ASSERT_EQ(sink.summaries().size(), 1u);
  EXPECT_EQ(sink.summaries()[0].cases, 3u);
  EXPECT_DOUBLE_EQ(sink.summaries()[0].metrics.at("m").mean(), 1.0);
}

TEST(ResultSink, SummaryTablePrintsFigure2Quantiles) {
  // 20 cases at 0, 0.05, ..., 0.95: 19 of them reach 0.05 and 10 reach
  // 0.5, so those are the p95 and p50 columns.
  ResultSink sink("s", nullptr);
  for (std::size_t i = 0; i < 20; ++i)
    sink.push(CaseSpec{i, derive_seed(1, i), {}},
              CaseResult{"g", {{"m", static_cast<double>(i) / 20.0}}});
  sink.finish();
  std::ostringstream table;
  sink.print_summary(table);
  std::istringstream lines(table.str());
  std::vector<std::vector<std::string>> rows;
  for (std::string line; std::getline(lines, line);) {
    std::istringstream words(line);
    rows.emplace_back(std::istream_iterator<std::string>(words),
                      std::istream_iterator<std::string>());
  }
  ASSERT_EQ(rows.size(), 3u);  // header, rule, one group x metric row
  EXPECT_EQ(rows[0],
            (std::vector<std::string>{"group", "metric", "cases", "min", "p95",
                                      "p50", "mean", "stddev", "max"}));
  ASSERT_EQ(rows[2].size(), 9u);
  EXPECT_EQ(rows[2][2], "20");
  EXPECT_EQ(rows[2][3], "0.0000");
  EXPECT_EQ(rows[2][4], "0.0500");
  EXPECT_EQ(rows[2][5], "0.5000");
  EXPECT_EQ(rows[2][6], "0.4750");
  EXPECT_EQ(rows[2][8], "0.9500");
}

TEST(ResultSink, RejectsDuplicatesAndGaps) {
  {
    // A duplicate of an emitted index throws from the push, so the
    // engine stops claiming cases at once.
    ResultSink sink("s", nullptr);
    sink.push(CaseSpec{0, 0, {}}, CaseResult{});
    EXPECT_THROW(sink.push(CaseSpec{0, 0, {}}, CaseResult{}),
                 std::logic_error);
  }
  {
    // A duplicate of an index still parked in the reorder window.
    ResultSink sink("s", nullptr);
    sink.push(CaseSpec{2, 0, {}}, CaseResult{});
    EXPECT_THROW(sink.push(CaseSpec{2, 0, {}}, CaseResult{}),
                 std::logic_error);
    sink.push(CaseSpec{0, 0, {}}, CaseResult{});
    sink.push(CaseSpec{1, 0, {}}, CaseResult{});
    sink.finish();  // the rejected push left the window intact
    EXPECT_EQ(sink.cases(), 3u);
  }
  {
    ResultSink sink("s", nullptr);
    sink.push(CaseSpec{0, 0, {}}, CaseResult{});
    sink.push(CaseSpec{2, 0, {}}, CaseResult{});
    EXPECT_THROW(sink.finish(), std::logic_error);  // case 1 missing
  }
}

TEST(ResultSink, DestructionWithoutFinishIsClean) {
  // The error-unwind path: a sink abandoned mid-run (engine rethrowing a
  // case exception) must leave the stream untouched.
  std::ostringstream out;
  {
    ResultSink sink("s", &out);
    sink.push(CaseSpec{1, 0, {}}, CaseResult{});  // case 0 never arrives
  }
  EXPECT_TRUE(out.str().empty());
}

TEST(ResultSink, StressRandomPushOrderMatchesSingleThreadedBytes) {
  // Thousands of cases pushed from several threads in shuffled order
  // must produce byte-identical NDJSON (and summaries) to an in-order
  // single-threaded reference push — the determinism contract exercised
  // directly at the sink layer, through its lock and reorder window.
  constexpr std::size_t kCases = 4000;
  constexpr std::size_t kThreads = 4;
  const auto spec = [](std::size_t i) {
    return CaseSpec{i, derive_seed(3, i),
                    {{"i", static_cast<double>(i)}, {"x", 0.5 * i}}};
  };
  const auto result = [](std::size_t i) {
    return CaseResult{i % 3 == 0 ? "a" : "b",
                      {{"m", 1.0 / (1.0 + i)}, {"n", static_cast<double>(i)}}};
  };

  std::ostringstream ref_out;
  ResultSink ref("stress", &ref_out);
  for (std::size_t i = 0; i < kCases; ++i) ref.push(spec(i), result(i));
  ref.finish();

  std::ostringstream out;
  ResultSink sink("stress", &out);
  std::vector<std::thread> producers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      // Each thread owns a disjoint residue class, pushed in an order
      // shuffled by a thread-specific RNG.
      std::vector<std::size_t> mine;
      for (std::size_t i = t; i < kCases; i += kThreads) mine.push_back(i);
      std::mt19937 shuffle_rng(static_cast<unsigned>(17 + t));
      std::shuffle(mine.begin(), mine.end(), shuffle_rng);
      for (const std::size_t i : mine) sink.push(spec(i), result(i));
    });
  }
  for (std::thread& p : producers) p.join();
  sink.finish();

  EXPECT_EQ(sink.cases(), kCases);
  EXPECT_EQ(out.str(), ref_out.str());
  ASSERT_EQ(sink.summaries().size(), ref.summaries().size());
  for (std::size_t g = 0; g < sink.summaries().size(); ++g) {
    EXPECT_EQ(sink.summaries()[g].group, ref.summaries()[g].group);
    EXPECT_EQ(sink.summaries()[g].cases, ref.summaries()[g].cases);
  }
}

TEST(ResultSink, FormatDoubleRoundTrips) {
  EXPECT_EQ(format_double(0.25), "0.25");
  EXPECT_EQ(format_double(1.0), "1");
  EXPECT_EQ(std::stod(format_double(1.0 / 3.0)), 1.0 / 3.0);
}

// ---------------------------------------------------------------- engine

// A cheap synthetic scenario: every case draws from its own seeded Rng,
// so any scheduling leak between cases would change the output.
Scenario synthetic_scenario(std::size_t cases) {
  Scenario s;
  s.name = "synthetic";
  s.description = "test";
  s.plan = [cases] {
    SweepPlan plan;
    std::vector<double> is(cases);
    for (std::size_t i = 0; i < cases; ++i) is[i] = static_cast<double>(i);
    plan.add_axis("i", is);
    return plan;
  };
  s.run = [](const CaseSpec& spec) {
    channel::Rng rng(spec.seed);
    CaseResult result;
    result.group = spec.index % 2 == 0 ? "even" : "odd";
    result.metrics = {{"u", rng.next_double()},
                      {"v", static_cast<double>(rng.next_below(1000))}};
    return result;
  };
  return s;
}

std::string run_to_ndjson(const Scenario& s, std::size_t threads) {
  std::ostringstream out;
  ResultSink sink(s.name, &out);
  RunOptions options;
  options.threads = threads;
  options.master_seed = 99;
  const RunStats stats = run_scenario(s, options, sink);
  EXPECT_EQ(stats.cases, sink.cases());
  EXPECT_EQ(stats.threads, threads);
  return out.str();
}

TEST(Engine, NdjsonIsByteIdenticalAcrossThreadCounts) {
  const Scenario s = synthetic_scenario(64);
  const std::string one = run_to_ndjson(s, 1);
  EXPECT_EQ(std::count(one.begin(), one.end(), '\n'), 64);
  EXPECT_EQ(one, run_to_ndjson(s, 8));
  EXPECT_EQ(one, run_to_ndjson(s, 3));
}

TEST(RunStats, CasesPerSecond) {
  RunStats stats;
  stats.cases = 10;
  stats.wall_s = 2.0;
  EXPECT_DOUBLE_EQ(stats.cases_per_s(), 5.0);
  stats.wall_s = 0.0;  // degenerate clock resolution: no division by zero
  EXPECT_DOUBLE_EQ(stats.cases_per_s(), 0.0);
}

TEST(Engine, LimitTruncatesThePlan) {
  const Scenario s = synthetic_scenario(64);
  ResultSink sink(s.name, nullptr);
  RunOptions options;
  options.limit = 5;
  const RunStats stats = run_scenario(s, options, sink);
  EXPECT_EQ(stats.cases, 5u);
  EXPECT_EQ(sink.cases(), 5u);
}

TEST(Engine, CaseExceptionsPropagate) {
  for (const std::size_t threads : {1u, 4u}) {
    std::atomic<int> ran_after_throw{0};
    Scenario s = synthetic_scenario(8);
    s.run = [&](const CaseSpec& spec) -> CaseResult {
      if (spec.index == 3) throw std::runtime_error("boom");
      if (spec.index > 3) ran_after_throw.fetch_add(1);
      return CaseResult{};
    };
    ResultSink sink(s.name, nullptr);
    RunOptions options;
    options.threads = threads;
    EXPECT_THROW((void)run_scenario(s, options, sink), std::runtime_error);
    // One thread claims indices in order, so the exception stops the
    // sweep before any later case starts.
    if (threads == 1) {
      EXPECT_EQ(ran_after_throw.load(), 0);
    }
  }
}

// A device that takes `room` bytes and then refuses every write, as a
// full disk does. (The sink writes whole lines, so only xsputn is used.)
struct FullAfter : std::streambuf {
  explicit FullAfter(std::size_t bytes) : room(bytes) {}
  std::streamsize xsputn(const char*, std::streamsize n) override {
    if (static_cast<std::size_t>(n) > room) return 0;
    room -= static_cast<std::size_t>(n);
    return n;
  }
  std::size_t room;
};

TEST(Engine, FailedStreamStopsTheRun) {
  // The sink throws from the push that found the stream failed, so the
  // sweep stops within a few cases instead of computing all of them. On
  // one thread that count is deterministic: the cases whose lines fit the
  // device, plus one. On four, a worker that claimed the next case to
  // emit can be descheduled while the others run cases into the reorder
  // window, so only what scheduling cannot break is asserted: a sink that
  // never stops the run runs all kCases.
  constexpr std::size_t kCases = 1'000'000;
  for (const std::size_t threads : {1u, 4u}) {
    std::atomic<std::size_t> ran{0};
    Scenario s = synthetic_scenario(kCases);
    const auto run = s.run;
    s.run = [&](const CaseSpec& spec) {
      ran.fetch_add(1);
      return run(spec);
    };
    FullAfter device(4096);
    std::ostream out(&device);
    ResultSink sink(s.name, &out);
    RunOptions options;
    options.threads = threads;
    EXPECT_THROW((void)run_scenario(s, options, sink), std::runtime_error);
    EXPECT_FALSE(out.good());
    EXPECT_LT(ran.load(), threads == 1 ? 500 : kCases / 2)
        << "threads=" << threads;
  }
}

TEST(Engine, CollectReturnsCasesInIndexOrder) {
  // Every index runs exactly once at any thread count, including more
  // threads than cases.
  for (const std::size_t threads : {1u, 3u, 32u}) {
    std::vector<std::atomic<int>> hits(16);
    Scenario s = synthetic_scenario(16);
    const auto run = s.run;
    s.run = [&](const CaseSpec& spec) {
      hits[spec.index].fetch_add(1);
      return run(spec);
    };
    RunOptions options;
    options.threads = threads;
    options.master_seed = 7;
    RunStats stats;
    const auto cases = run_scenario_collect(s, options, &stats);
    EXPECT_EQ(stats.threads, std::min<std::size_t>(threads, 16));
    ASSERT_EQ(cases.size(), 16u);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1);
      EXPECT_EQ(cases[i].first.index, i);
      EXPECT_EQ(cases[i].first.seed, derive_seed(7, i));
      EXPECT_DOUBLE_EQ(param(cases[i].first.params, "i"),
                       static_cast<double>(i));
    }
  }
}

// -------------------------------------------------------------- registry

TEST(Registry, BuiltinsRegisterOnceAndList) {
  register_builtin_scenarios();
  register_builtin_scenarios();  // idempotent
  ScenarioRegistry& registry = ScenarioRegistry::instance();
  ASSERT_NE(registry.find(kFig1Scenario), nullptr);
  ASSERT_NE(registry.find(kFig2Scenario), nullptr);
  ASSERT_NE(registry.find(kHeadlineScenario), nullptr);
  EXPECT_EQ(registry.find("nope"), nullptr);
  const auto all = registry.list();
  EXPECT_GE(all.size(), 3u);
  for (std::size_t i = 1; i < all.size(); ++i)
    EXPECT_LT(all[i - 1]->name, all[i]->name);  // sorted
  EXPECT_THROW(registry.add(Scenario{}), std::invalid_argument);
  Scenario dup;
  dup.name = kFig1Scenario;
  dup.plan = [] { return SweepPlan{}; };
  dup.run = [](const CaseSpec&) { return CaseResult{}; };
  EXPECT_THROW(registry.add(std::move(dup)), std::invalid_argument);
}

TEST(Registry, BuiltinPlansAreWellFormed) {
  register_builtin_scenarios();
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  EXPECT_EQ(registry.find(kFig1Scenario)->plan().size(), 36u);  // 4 n x 9 p
  EXPECT_EQ(registry.find(kHeadlineScenario)->plan().size(), 1971u);
  EXPECT_GT(registry.find(kFig2Scenario)->plan().size(), 200u);
}

// ------------------------------------------------- end-to-end determinism

TEST(Determinism, TestbedSweepMatchesAcrossThreadCounts) {
  ScenarioSpec spec;
  spec.name = "testbed-sweep";
  spec.topology.n_values = {3, 4};
  spec.topology.max_placements = 6;
  spec.session.x_packets = 45;
  const Scenario s = compile(spec);
  const auto summaries = [&s](std::size_t threads) {
    ResultSink sink(s.name, nullptr);
    RunOptions options;
    options.threads = threads;
    options.master_seed = 11;
    (void)run_scenario(s, options, sink);
    return sink.summaries();
  };
  const std::vector<ResultSink::GroupSummary> one = summaries(1);
  const std::vector<ResultSink::GroupSummary> eight = summaries(8);

  ASSERT_EQ(one.size(), 2u);
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].group, eight[i].group);
    EXPECT_EQ(one[i].cases, eight[i].cases);
    // Sample-for-sample identical, not just equal in aggregate.
    EXPECT_EQ(one[i].metrics.at("reliability").samples(),
              eight[i].metrics.at("reliability").samples());
    EXPECT_EQ(one[i].metrics.at("efficiency").samples(),
              eight[i].metrics.at("efficiency").samples());
  }
}

TEST(Determinism, Fig1ScenarioNdjsonStableUnderThreads) {
  register_builtin_scenarios();
  const Scenario* fig1 = ScenarioRegistry::instance().find(kFig1Scenario);
  ASSERT_NE(fig1, nullptr);

  const auto run = [&](std::size_t threads) {
    std::ostringstream out;
    ResultSink sink(fig1->name, &out);
    RunOptions options;
    options.threads = threads;
    options.master_seed = 5;
    options.limit = 6;  // keep the unit test cheap
    (void)run_scenario(*fig1, options, sink);
    return out.str();
  };
  const std::string one = run(1);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, run(8));
}

}  // namespace
}  // namespace thinair::runtime
