// thinair — the scenario-runtime driver, the single entry point for
// running the paper's sweeps at scale:
//
//   $ thinair list
//   $ thinair run fig2 --threads 8 --seed 42 --out fig2.ndjson
//   $ thinair run fig2 --set channel.interference=off --limit 20
//   $ thinair run --spec examples/specs/fig2_iid.toml --out -
//   $ thinair describe headline
//
// `run` executes every case of a scenario — a registered name, a spec
// file (--spec), or either with dotted-path overrides (--set key=value) —
// on the shared-cursor engine and writes one NDJSON line per case to
// --out ("-" = stdout), then prints per-group summary aggregates. Output
// is bit-identical for any --threads value: case seeds derive from
// (--seed, case index) and rows are emitted in case-index order. Timing
// goes to stderr so stdout stays byte-comparable across runs. `describe`
// dumps the resolved spec back out in spec-file syntax (a parse
// round-trip), and `list` shows each scenario's parameter axes.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

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
      "           [--threads N] [--seed S] [--out FILE|-]\n"
      "           [--limit K] [--quiet]\n"
      "       %s kernels\n",
      argv0, argv0, argv0, argv0);
  tools::netd_usage(argv0);
  std::fprintf(
      stderr,
      "--spec runs a scenario composed in a spec file (docs/scenarios.md);\n"
      "--set overrides one spec key by dotted path, e.g. channel.p=0.3.\n"
      "serve/client run a live key agreement over UDP (docs/daemon.md).\n");
  return 2;
}

int cmd_kernels() {
  // One row per GF(2^8) kernel this CPU can run; CPUID dispatch picks
  // the active one.
  for (const gf::Kernel* k : gf::all_kernels())
    std::printf("%s%s\n", k->name,
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
    stats = runtime::run_scenario(*scenario, options, sink);
  } catch (const std::exception& e) {
    // The engine funnels worker exceptions back to this thread; report
    // them as an error instead of letting main() terminate. The sink
    // stops the run at the first write the stream failed (a full disk,
    // say), mid-run or in finish()'s flush.
    if (ndjson != nullptr && !*ndjson)
      std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    else
      std::fprintf(stderr, "run failed: %s\n", e.what());
    return 1;
  }

  tools::print_run_tail(*scenario, sink, stats, args.quiet,
                        ndjson == &std::cout);
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
  std::fputs(runtime::serialize_spec(*scenario->spec).c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);

  const std::string command = argv[1];
  if (command == "kernels") return cmd_kernels();
  if (command == "serve") {
    const int rc = tools::cmd_serve(argc - 2, argv + 2);
    return rc == 2 ? usage(argv[0]) : rc;
  }
  if (command == "client") {
    const int rc = tools::cmd_client(argc - 2, argv + 2);
    return rc == 2 ? usage(argv[0]) : rc;
  }
  // Only the scenario commands read the registry: compiling the built-ins
  // builds two testbed channels, which a daemon or a client has no use for.
  runtime::register_builtin_scenarios();
  if (command == "list") return cmd_list();
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
  return usage(argv[0]);
}
