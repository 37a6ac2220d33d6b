// micro_dist — the distributed sweep's fan-out overhead, measured.
//
// Runs one cheap spec-defined scenario through run_distributed_local at
// 1, 2 and 4 forked workers (the real fork/exec + socketpair path — the
// workers are `thinair sweep-worker` processes of the sibling CLI
// binary) and through run_scenario as the single-process reference.
// Writes BENCH_dist.json:
//
//   cases, per-worker-count {wall_s, cases/s, shards, shard round-trip
//   p50/p99 ms}
//
// and exits nonzero unless every distributed run's NDJSON is
// byte-identical to the reference — the bench doubles as the
// acceptance check, exactly like micro_daemon. The container CI runs
// on one core, so the checker (tools/check_bench.py) holds the numbers
// to structural sanity, not scaling.
//
//   usage: micro_dist [--cases K] [--binary /path/to/thinair]

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "dist/runner.h"
#include "report.h"
#include "runtime/engine.h"
#include "runtime/result_sink.h"
#include "runtime/scenario_spec.h"
#include "util/parse.h"

namespace {

using namespace thinair;

struct Options {
  std::size_t cases = 2000;
  std::string binary;  // empty = <dir of this bench>/thinair
};

/// The sibling thinair CLI binary: workers are exec'd from it, so the
/// bench exercises the same code path as `thinair run --workers N`.
std::string sibling_thinair() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "thinair";
  buf[n] = '\0';
  std::string path(buf);
  const std::size_t slash = path.rfind('/');
  path.resize(slash == std::string::npos ? 0 : slash + 1);
  path += "thinair";
  return path;
}

/// A cheap iid scenario with a tunable case count: 4 grid points
/// (2 n-values x 2 p-values) x `cases / 4` repeats.
runtime::Scenario make_scenario(std::size_t cases) {
  runtime::SessionSpec session;
  session.x_packets = 30;
  session.rounds = 1;
  runtime::ScenarioSpec spec =
      runtime::ScenarioSpec{}
          .with_name("dist-bench")
          .on_iid(0.3)
          .sweep_p({0.2, 0.5})
          .with_n({2, 3})
          .with_session(session)
          .with_estimator(core::EstimatorKind::kLooFraction)
          .with_repeats(std::max<std::size_t>(cases / 4, 1));
  return runtime::compile(spec);
}

struct WorkerPoint {
  std::size_t workers = 0;
  double wall_s = 0.0;
  double cases_per_s = 0.0;
  std::size_t shards = 0;
  double shard_p50_ms = 0.0;
  double shard_p99_ms = 0.0;
};

double pct(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t i = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[i];
}

int run_bench(const Options& opt) {
  const runtime::Scenario scenario = make_scenario(opt.cases);
  runtime::RunOptions options;
  options.threads = 1;
  options.master_seed = 21;

  // Single-process reference bytes (and the determinism yardstick).
  std::ostringstream reference;
  std::size_t cases = 0;
  {
    runtime::ResultSink sink(scenario.name, &reference);
    cases = run_scenario(scenario, options, sink).cases;
  }

  dist::LocalSpawnOptions spawn;
  spawn.worker_binary = opt.binary.empty() ? sibling_thinair() : opt.binary;

  std::vector<WorkerPoint> points;
  for (const std::size_t workers : {1U, 2U, 4U}) {
    std::ostringstream ndjson;
    runtime::ResultSink sink(scenario.name, &ndjson);
    spawn.workers = workers;
    std::vector<double> shard_s;
    runtime::RunStats stats;
    try {
      stats = dist::run_distributed_local(scenario, options, {}, spawn, sink,
                                          &shard_s);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "micro_dist: %zu-worker run failed: %s\n", workers,
                   e.what());
      return 1;
    }
    if (ndjson.str() != reference.str()) {
      std::fprintf(stderr,
                   "micro_dist: FAILED — %zu-worker NDJSON differs from the "
                   "single-process bytes\n",
                   workers);
      return 1;
    }
    std::sort(shard_s.begin(), shard_s.end());
    WorkerPoint point;
    point.workers = workers;
    point.wall_s = stats.wall_s;
    point.cases_per_s =
        stats.wall_s > 0.0 ? static_cast<double>(cases) / stats.wall_s : 0.0;
    point.shards = shard_s.size();
    point.shard_p50_ms = pct(shard_s, 0.50) * 1e3;
    point.shard_p99_ms = pct(shard_s, 0.99) * 1e3;
    points.push_back(point);
    std::fprintf(stderr,
                 "micro_dist: %zu worker(s): %.0f cases/s over %zu shards "
                 "(shard p50 %.2f ms, p99 %.2f ms), %.2fs wall\n",
                 workers, point.cases_per_s, point.shards, point.shard_p50_ms,
                 point.shard_p99_ms, point.wall_s);
  }

  bench::Report report("dist");
  report.count("cases", cases).flag("byte_identical", true).array("runs");
  for (const WorkerPoint& p : points)
    report.object()
        .count("workers", p.workers)
        .num("wall_s", p.wall_s)
        .num("cases_per_s", p.cases_per_s, 1)
        .count("shards", p.shards)
        .num("shard_p50_ms", p.shard_p50_ms)
        .num("shard_p99_ms", p.shard_p99_ms)
        .end();
  report.end();
  return report.write();
}

int usage() {
  std::fprintf(stderr,
               "usage: micro_dist [--cases K] [--binary PATH]   (K >= 1)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string_view value = argv[i + 1];
    std::uint64_t n = 0;
    if (flag == "--cases" &&
        util::parse_u64_in(value, 1, std::numeric_limits<std::size_t>::max(),
                           n)) {
      opt.cases = n;
    } else if (flag == "--binary" && !value.empty()) {
      opt.binary = value;
    } else {
      return usage();
    }
  }
  return run_bench(opt);
}
