// thinair — the scenario-runtime driver, the single entry point for
// running the paper's sweeps at scale:
//
//   $ thinair list
//   $ thinair run fig2 --threads 8 --seed 42 --out fig2.ndjson
//   $ thinair run fig2 --workers 4 --out fig2.ndjson
//   $ thinair run fig2 --set channel.interference=off --limit 20
//   $ thinair run --spec examples/specs/fig2_iid.toml --out -
//   $ thinair describe headline
//
// `run` executes every case of a scenario — a registered name, a spec
// file (--spec), or either with dotted-path overrides (--set key=value) —
// on the shared-cursor engine and writes one NDJSON line per case to
// --out ("-" = stdout), then prints per-group summary aggregates. Output
// is bit-identical for any --threads value AND any --workers value:
// case seeds derive from (--seed, case index) and rows are emitted in
// case-index order. --workers N runs the sweep across N forked worker
// processes (docs/distributed.md); sweep-master/sweep-worker are the
// multi-machine flavour of the same split. Timing goes to stderr so
// stdout stays byte-comparable across runs. `describe` dumps the
// resolved spec back out in spec-file syntax (a parse round-trip), and
// `list` shows each scenario's parameter axes.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "dist_cmd.h"
#include "dist/runner.h"
#include "gf/kernels.h"
#include "netd_cmd.h"
#include "run_common.h"
#include "runtime/engine.h"
#include "runtime/result_sink.h"
#include "runtime/scenarios.h"
#include "runtime/spec_parse.h"

namespace {

using namespace thinair;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s list\n"
      "       %s describe NAME|--spec FILE [--set key=value]...\n"
      "       %s run NAME|--spec FILE [--set key=value]...\n"
      "           [--threads N | --workers N] [--seed S] [--out FILE|-]\n"
      "           [--limit K] [--quiet] [--shard-size K]\n"
      "           [--kernel scalar|portable|ssse3|avx2|gfni|auto]\n"
      "       %s kernels\n",
      argv0, argv0, argv0, argv0);
  tools::netd_usage(argv0);
  tools::dist_usage(argv0);
  std::fprintf(
      stderr,
      "--spec runs a scenario composed in a spec file (docs/scenarios.md);\n"
      "--set overrides one spec key by dotted path, e.g. channel.p=0.3.\n"
      "--workers N forks N local worker processes; output is byte-identical\n"
      "to any --threads run (docs/distributed.md).\n"
      "--kernel (or THINAIR_GF_KERNEL) retargets the GF(2^8) bulk kernels;\n"
      "output is byte-identical across kernels.\n"
      "serve/client run a live key agreement over UDP (docs/daemon.md).\n");
  return 2;
}

int cmd_kernels() {
  // One row per registered kernel; every kernel implements the full
  // vtable (axpy/mul_row/xor_into + the fused mad_multi scatter and
  // dot_multi gather), so the second column documents the fusion both
  // directions dispatch to.
  for (const gf::Kernel* k : gf::all_kernels())
    std::printf("%-9s fused: mad_multi+dot_multi (x%zu)%s\n", k->name,
                gf::kMaxFusedRows,
                k == &gf::active_kernel() ? "  (active)" : "");
  return 0;
}

std::string axis_display(const runtime::SweepPlan::AxisSummary& axis) {
  std::string out = axis.name + " in ";
  if (axis.values.size() <= 6) {
    out += "{";
    for (std::size_t i = 0; i < axis.values.size(); ++i)
      out += (i > 0 ? ", " : "") + runtime::format_double(axis.values[i]);
    return out + "}";
  }
  return out + "[" + runtime::format_double(axis.min()) + " .. " +
         runtime::format_double(axis.max()) + "] (" +
         std::to_string(axis.values.size()) + " values)";
}

int cmd_list() {
  for (const runtime::Scenario* s :
       runtime::ScenarioRegistry::instance().list()) {
    const runtime::SweepPlan plan = s->plan();
    std::printf("%-10s %6zu cases  %s\n", s->name.c_str(), plan.size(),
                s->description.c_str());
    std::string axes;
    for (const runtime::SweepPlan::AxisSummary& axis : plan.axis_summaries())
      axes += (axes.empty() ? "" : "; ") + axis_display(axis);
    if (!axes.empty()) std::printf("%24s axes: %s\n", "", axes.c_str());
  }
  return 0;
}

int cmd_run(const tools::RunArgs& args) {
  if (!args.listen.empty()) {
    std::fprintf(stderr, "--listen belongs to sweep-master, not run\n");
    return 2;
  }
  const std::optional<runtime::Scenario> scenario =
      tools::resolve_scenario(args.spec);
  if (!scenario.has_value()) return 1;
  const runtime::RunOptions options = tools::pinned_options(*scenario, args);

  std::ofstream file;
  std::ostream* ndjson = nullptr;
  if (!tools::open_ndjson(args.out, file, ndjson)) return 1;

  runtime::ResultSink sink(scenario->name, ndjson);
  runtime::RunStats stats;
  try {
    if (args.workers > 0) {
      dist::MasterTuning tuning;
      tuning.shard_size = args.shard_size;
      tuning.shard_timeout_s = args.shard_timeout_s;
      dist::LocalSpawnOptions spawn;
      spawn.workers = args.workers;
      spawn.kill_worker0_after_records = args.test_kill_worker_after;
      stats = dist::run_distributed_local(*scenario, options, tuning, spawn,
                                          sink);
    } else {
      stats = runtime::run_scenario(*scenario, options, sink);
    }
  } catch (const std::exception& e) {
    // The engine funnels worker exceptions back to this thread; report
    // them as an error instead of letting main() terminate.
    std::fprintf(stderr, "run failed: %s\n", e.what());
    return 1;
  }

  tools::print_run_tail(*scenario, sink, stats, args.quiet,
                        ndjson == &std::cout,
                        args.workers > 0 ? "worker" : "thread");
  return 0;
}

int cmd_describe(int argc, char** argv) {
  tools::SpecArgs args;
  for (int i = 0; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value =
        flag.starts_with("--") && i + 1 < argc ? argv[++i] : nullptr;
    if (tools::parse_spec_arg(args, flag, value) != 0) return 2;
  }
  if (args.scenario.empty() == args.spec_file.empty()) return 2;

  const std::optional<runtime::Scenario> scenario =
      tools::resolve_scenario(args);
  if (!scenario.has_value()) return 1;
  if (scenario->spec == nullptr) {
    std::fprintf(stderr, "scenario '%s' is hand-written (no spec)\n",
                 scenario->name.c_str());
    return 1;
  }
  std::fputs(runtime::serialize_spec(*scenario->spec).c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  runtime::register_builtin_scenarios();

  const std::string command = argv[1];
  if (command == "list") return cmd_list();
  if (command == "kernels") return cmd_kernels();
  if (command == "describe") {
    const int rc = cmd_describe(argc - 2, argv + 2);
    return rc == 2 ? usage(argv[0]) : rc;
  }
  if (command == "run") {
    tools::RunArgs args;
    if (!tools::parse_run_args(argc - 2, argv + 2, args)) return usage(argv[0]);
    const int rc = cmd_run(args);
    return rc == 2 ? usage(argv[0]) : rc;
  }
  if (command == "serve") {
    const int rc = tools::cmd_serve(argc - 2, argv + 2);
    return rc == 2 ? usage(argv[0]) : rc;
  }
  if (command == "client") {
    const int rc = tools::cmd_client(argc - 2, argv + 2);
    return rc == 2 ? usage(argv[0]) : rc;
  }
  if (command == "sweep-master") {
    const int rc = tools::cmd_sweep_master(argc - 2, argv + 2);
    return rc == 2 ? usage(argv[0]) : rc;
  }
  if (command == "sweep-worker") {
    const int rc = tools::cmd_sweep_worker(argc - 2, argv + 2);
    return rc == 2 ? usage(argv[0]) : rc;
  }
  return usage(argv[0]);
}
