#pragma once
// Scenario selection and run-flag parsing for the thinair CLI: `run` and
// `describe` name a scenario the same way (NAME | --spec FILE, --set
// overrides), and `run` adds --seed/--threads/--limit/--out/...

#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/engine.h"
#include "runtime/result_sink.h"
#include "runtime/scenario.h"

namespace thinair::tools {

/// How a run/describe names its scenario: a registered name, a spec
/// file, or either plus --set overrides.
struct SpecArgs {
  std::string scenario;   // registered name ("" with --spec)
  std::string spec_file;  // --spec FILE
  std::vector<std::pair<std::string, std::string>> overrides;
};

/// Resolve the scenario a SpecArgs names, compiling specs and applying
/// overrides. Every scenario `thinair` registers is a compiled spec, so
/// the result's Scenario::spec is set. Prints the failure to stderr and
/// returns nullopt on error.
std::optional<runtime::Scenario> resolve_scenario(const SpecArgs& args);

/// Shared by run/describe: scenario NAME / --spec / --set.
/// Returns -1 when `flag` is not a spec-selection argument, 0 on
/// success, 1 on error (already reported).
int parse_spec_arg(SpecArgs& args, const std::string& flag,
                   const char* value);

struct RunArgs {
  SpecArgs spec;
  runtime::RunOptions options;
  std::string out;     // empty = no NDJSON, "-" = stdout
  bool quiet = false;  // suppress the summary table
  // Whether the flag was given explicitly: a spec's [run] section pins
  // seed/threads only when the corresponding flag is absent (flags win).
  bool seed_given = false;
  bool threads_given = false;
};

/// Parse run-style flags into `args`. Returns false (after reporting to
/// stderr) on any malformed flag, or when the scenario selection is not
/// exactly one of NAME / --spec.
bool parse_run_args(int argc, char** argv, RunArgs& args);

/// Spec-level execution pinning ([run] seed/threads): the spec decides
/// unless the flag was given explicitly.
runtime::RunOptions pinned_options(const runtime::Scenario& scenario,
                                   const RunArgs& args);

/// Open --out ("-" = stdout, "" = none) into `file`, returning the
/// stream to hand the sink (nullptr = aggregate only). Reports and
/// returns false on open failure.
bool open_ndjson(const std::string& out, std::ofstream& file,
                 std::ostream*& ndjson);

/// The post-run tail `run` prints: summary table (unless quiet or NDJSON
/// went to stdout), truncation warning, and the timing line.
void print_run_tail(const runtime::Scenario& scenario,
                    const runtime::ResultSink& sink,
                    const runtime::RunStats& stats, bool quiet,
                    bool ndjson_to_stdout);

}  // namespace thinair::tools
