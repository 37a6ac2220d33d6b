// micro_engine — the sweep engine under a sink-bound load and under the
// paper's headline sweep.
//
// Runs a near-zero-work scenario (two metrics derived from the case
// seed by a handful of integer ops) so that end-to-end throughput is
// dominated by the result path: per-case scheduling and the sink's
// reorder/format/fold work. Measures
//
//   - cases/s at thread counts {1, 2, 4, ...} up to hardware
//     concurrency (best of --reps runs each), NDJSON formatting
//     included (the stream is a discarding buffer, so disk I/O noise
//     is excluded), and
//   - the p50/p99 latency of a single ResultSink::push call under a
//     steady single-producer stream.
//
// Then runs the registered headline sweep (1971 testbed placements, seed
// 42) at 1 and at min(4, hardware) threads, best of --reps each, and
// reports the ratio as headline_speedup: the scaling of a real workload,
// which tools/check_bench.py gates.
//
// Writes BENCH_engine.json and exits nonzero unless every sweep emitted
// every case with the expected aggregate — the CI run doubles as a
// correctness check.
//
//   usage: micro_engine [--cases N] [--push-samples N] [--reps R]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <ostream>
#include <streambuf>
#include <string_view>
#include <vector>

#include "report.h"
#include "runtime/engine.h"
#include "runtime/result_sink.h"
#include "runtime/scenarios.h"
#include "util/parse.h"

namespace {

using namespace thinair;

struct Options {
  std::size_t cases = 200000;
  std::size_t push_samples = 100000;
  std::size_t reps = 3;
};

// Swallows everything: keeps the sink's formatting and writes in the
// measurement while excluding filesystem variance.
struct NullBuf : std::streambuf {
  int_type overflow(int_type c) override { return traits_type::not_eof(c); }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

runtime::Scenario trivial_scenario(std::size_t cases) {
  runtime::Scenario s;
  s.name = "micro_engine";
  s.description = "near-zero-work cases; throughput is sink-bound";
  s.plan = [cases] {
    runtime::SweepPlan plan;
    std::vector<double> is(cases);
    for (std::size_t i = 0; i < cases; ++i) is[i] = static_cast<double>(i);
    plan.add_axis("i", is);
    return plan;
  };
  s.run = [](const runtime::CaseSpec& spec) {
    // A couple of integer mixes — cheap enough that the result path,
    // not the "experiment", sets the pace.
    std::uint64_t x = spec.seed * 0x9e3779b97f4a7c15ull;
    x ^= x >> 29;
    runtime::CaseResult result;
    result.group = spec.index % 4 == 0 ? "g0" : "g1";
    result.metrics = {
        {"u", static_cast<double>(x >> 11) * 0x1p-53},
        {"v", static_cast<double>(spec.index)},
    };
    return result;
  };
  return s;
}

double run_once(const runtime::Scenario& scenario, std::size_t threads,
                std::uint64_t seed) {
  NullBuf buf;
  std::ostream null_stream(&buf);
  runtime::ResultSink sink(scenario.name, &null_stream);
  runtime::RunOptions options;
  options.threads = threads;
  options.master_seed = seed;
  const runtime::RunStats stats =
      runtime::run_scenario(scenario, options, sink);
  if (sink.cases() != stats.plan_cases || sink.summaries().empty()) {
    std::fprintf(stderr, "micro_engine: %s lost cases (%zu of %zu)\n",
                 scenario.name.c_str(), sink.cases(), stats.plan_cases);
    std::exit(1);
  }
  return stats.cases_per_s();
}

// Best of `reps` runs: sheds scheduler noise.
double best_rate(const runtime::Scenario& scenario, std::size_t threads,
                 std::uint64_t seed, std::size_t reps) {
  double best = 0.0;
  for (std::size_t rep = 0; rep < reps; ++rep)
    best = std::max(best, run_once(scenario, threads, seed));
  return best;
}

struct PushLatency {
  double p50_ns = 0.0;
  double p99_ns = 0.0;
};

struct ReorderProbe {
  std::size_t block = 0;
  std::size_t cases = 0;
  double cases_per_s = 0.0;
};

// Forces the reorder window to do real work: cases are pushed in
// block-reversed order (each kBlock-sized block back to front), so the
// sink must park kBlock-1 records before the block's first index
// arrives and unblocks emission of the whole block.
ReorderProbe measure_reorder(std::size_t cases) {
  constexpr std::size_t kBlock = 4096;
  NullBuf buf;
  std::ostream null_stream(&buf);
  runtime::ResultSink sink("reorder_probe", &null_stream);
  runtime::CaseResult result{"g", {{"u", 0.5}}};
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t block = 0; block < cases; block += kBlock) {
    const std::size_t end = std::min(block + kBlock, cases);
    for (std::size_t i = end; i > block; --i) {
      runtime::CaseSpec spec{i - 1, (i - 1) * 0x9e3779b97f4a7c15ull,
                             {{"i", static_cast<double>(i - 1)}}};
      sink.push(spec, result);
    }
  }
  sink.finish();
  const auto t1 = std::chrono::steady_clock::now();
  if (sink.cases() != cases) {
    std::fprintf(stderr, "micro_engine: reorder probe lost cases\n");
    std::exit(1);
  }
  ReorderProbe probe;
  probe.block = kBlock;
  probe.cases = cases;
  probe.cases_per_s = static_cast<double>(cases) /
                      std::chrono::duration<double>(t1 - t0).count();
  return probe;
}

PushLatency measure_push(std::size_t samples) {
  NullBuf buf;
  std::ostream null_stream(&buf);
  runtime::ResultSink sink("push_probe", &null_stream);
  std::vector<double> ns(samples);
  runtime::CaseResult result{"g", {{"u", 0.5}, {"v", 1.0}}};
  for (std::size_t i = 0; i < samples; ++i) {
    runtime::CaseSpec spec{i, i * 0x9e3779b97f4a7c15ull,
                           {{"i", static_cast<double>(i)}}};
    const auto t0 = std::chrono::steady_clock::now();
    sink.push(spec, result);
    const auto t1 = std::chrono::steady_clock::now();
    ns[i] = std::chrono::duration<double, std::nano>(t1 - t0).count();
  }
  sink.finish();
  if (sink.cases() != samples) {
    std::fprintf(stderr, "micro_engine: push probe lost cases\n");
    std::exit(1);
  }
  std::sort(ns.begin(), ns.end());
  PushLatency lat;
  lat.p50_ns = ns[samples / 2];
  lat.p99_ns = ns[samples - 1 - samples / 100];
  return lat;
}

int usage() {
  std::fprintf(stderr,
               "usage: micro_engine [--cases N] [--push-samples N] "
               "[--reps R]   (every value >= 1)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  constexpr std::uint64_t kMax = std::numeric_limits<std::size_t>::max();
  for (int i = 1; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string_view value = argv[i + 1];
    std::uint64_t n = 0;
    if (flag == "--cases" && util::parse_u64_in(value, 1, kMax, n)) {
      opt.cases = n;
    } else if (flag == "--push-samples" &&
               util::parse_u64_in(value, 1, kMax, n)) {
      opt.push_samples = n;
    } else if (flag == "--reps" && util::parse_u64_in(value, 1, kMax, n)) {
      opt.reps = n;
    } else {
      return usage();
    }
  }

  const std::size_t hw = runtime::hardware_threads();
  std::vector<std::size_t> thread_counts;
  for (std::size_t t = 1; t <= hw; t *= 2) thread_counts.push_back(t);
  if (thread_counts.back() != hw) thread_counts.push_back(hw);

  const PushLatency push = measure_push(opt.push_samples);
  std::printf("push latency over %zu samples: p50 %.0f ns, p99 %.0f ns\n",
              opt.push_samples, push.p50_ns, push.p99_ns);

  const ReorderProbe reorder = measure_reorder(opt.cases);
  std::printf("reorder probe (block %zu): %12.0f cases/s\n", reorder.block,
              reorder.cases_per_s);

  const runtime::Scenario trivial = trivial_scenario(opt.cases);
  std::vector<double> cases_per_s(thread_counts.size(), 0.0);
  for (std::size_t k = 0; k < thread_counts.size(); ++k) {
    cases_per_s[k] = best_rate(trivial, thread_counts[k], 2026, opt.reps);
    std::printf("threads %2zu: %12.0f cases/s\n", thread_counts[k],
                cases_per_s[k]);
  }
  const double speedup = cases_per_s.back() / cases_per_s.front();
  std::printf("max-threads vs 1-thread: %.2fx (%zu hardware threads)\n",
              speedup, hw);

  // A headline case costs about 0.5 ms and the sink about 1 us of it, so
  // this ratio measures the engine on real work, not the sink.
  runtime::register_builtin_scenarios();
  const runtime::Scenario& headline =
      *runtime::ScenarioRegistry::instance().find(runtime::kHeadlineScenario);
  const std::size_t headline_threads[] = {1, std::min<std::size_t>(4, hw)};
  double headline_rate[2] = {};
  for (std::size_t k = 0; k < 2; ++k) {
    headline_rate[k] = best_rate(headline, headline_threads[k], 42, opt.reps);
    std::printf("headline, threads %zu: %9.0f cases/s\n", headline_threads[k],
                headline_rate[k]);
  }
  const double headline_speedup = headline_rate[1] / headline_rate[0];
  std::printf("headline %zu threads vs 1: %.2fx\n", headline_threads[1],
              headline_speedup);

  bench::Report report("engine");
  report.count("cases", opt.cases)
      .count("hardware_threads", hw)
      .num("push_p50_ns", push.p50_ns, 1)
      .num("push_p99_ns", push.p99_ns, 1)
      .array("threads");
  for (std::size_t k = 0; k < thread_counts.size(); ++k)
    report.object()
        .count("threads", thread_counts[k])
        .num("cases_per_s", cases_per_s[k], 1)
        .end();
  report.end()
      .num("speedup_max_vs_1", speedup)
      .object("reorder")
      .count("block", reorder.block)
      .count("cases", reorder.cases)
      .num("cases_per_s", reorder.cases_per_s, 1)
      .end()
      .array("headline");
  for (std::size_t k = 0; k < 2; ++k)
    report.object()
        .count("threads", headline_threads[k])
        .num("cases_per_s", headline_rate[k], 1)
        .end();
  report.end().num("headline_speedup", headline_speedup);
  return report.write();
}
