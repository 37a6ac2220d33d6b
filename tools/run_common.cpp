#include "run_common.h"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "runtime/spec_parse.h"
#include "util/parse.h"

namespace thinair::tools {

namespace {

/// Strict decimal parse (util::parse_u64) — rejects empty strings,
/// whitespace, '+'/'-' signs, trailing garbage and 64-bit overflow, so
/// `--seed banana` and `--threads -1` fail loudly instead of silently
/// running seed 0 or requesting 2^64 - 1 threads.
bool parse_u64(const char* text, std::uint64_t& out) {
  return text != nullptr && util::parse_u64(text, out);
}

}  // namespace

std::optional<runtime::Scenario> resolve_scenario(const SpecArgs& args) {
  runtime::ScenarioSpec spec;
  if (!args.spec_file.empty()) {
    std::ifstream file(args.spec_file);
    if (!file) {
      std::fprintf(stderr, "cannot read spec file %s\n",
                   args.spec_file.c_str());
      return std::nullopt;
    }
    std::ostringstream text;
    text << file.rdbuf();
    try {
      spec = runtime::parse_spec(text.str());
    } catch (const runtime::SpecError& e) {
      std::fprintf(stderr, "%s: %s\n", args.spec_file.c_str(), e.what());
      return std::nullopt;
    }
  } else {
    const runtime::Scenario* registered =
        runtime::ScenarioRegistry::instance().find(args.scenario);
    if (registered == nullptr) {
      std::fprintf(stderr, "unknown scenario '%s' (see `thinair list`)\n",
                   args.scenario.c_str());
      return std::nullopt;
    }
    if (args.overrides.empty()) return *registered;
    spec = *registered->spec;
  }

  for (const auto& [key, value] : args.overrides) {
    try {
      runtime::apply_override(spec, key, value);
    } catch (const runtime::SpecError& e) {
      std::fprintf(stderr, "--set %s=%s: %s\n", key.c_str(), value.c_str(),
                   e.what());
      return std::nullopt;
    }
  }
  try {
    return runtime::compile(spec);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "invalid spec: %s\n", e.what());
    return std::nullopt;
  }
}

int parse_spec_arg(SpecArgs& args, const std::string& flag,
                   const char* value) {
  if (flag == "--spec") {
    if (value == nullptr) return 1;
    args.spec_file = value;
    return 0;
  }
  if (flag == "--set") {
    if (value == nullptr) return 1;
    const std::string assignment = value;
    const std::size_t eq = assignment.find('=');
    if (eq == std::string::npos || eq == 0) {
      std::fprintf(stderr, "--set %s: want key=value\n", value);
      return 1;
    }
    args.overrides.emplace_back(assignment.substr(0, eq),
                                assignment.substr(eq + 1));
    return 0;
  }
  if (!flag.starts_with("--")) {
    if (!args.scenario.empty()) {
      std::fprintf(stderr, "two scenario names: %s and %s\n",
                   args.scenario.c_str(), flag.c_str());
      return 1;
    }
    args.scenario = flag;
    return 0;
  }
  return -1;
}

bool parse_run_args(int argc, char** argv, RunArgs& args) {
  for (int i = 0; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const auto bad_number = [&flag](const char* v) {
      std::fprintf(stderr, "%s: not a number: %s\n", flag.c_str(),
                   v == nullptr ? "(missing)" : v);
      return false;
    };
    if (flag == "--spec" || flag == "--set" || !flag.starts_with("--")) {
      const char* v = flag.starts_with("--") ? value() : nullptr;
      if (parse_spec_arg(args.spec, flag, v) != 0) return false;
    } else if (flag == "--quiet") {
      args.quiet = true;
    } else if (flag == "--threads") {
      std::uint64_t n = 0;
      const char* v = value();
      if (v == nullptr ||
          !util::parse_u64_in(v, 0, runtime::kMaxRunThreads, n)) {
        std::fprintf(stderr,
                     "--threads %s: want an integer in [0, %zu] (0 = auto)\n",
                     v == nullptr ? "(missing)" : v, runtime::kMaxRunThreads);
        return false;
      }
      args.options.threads = n;
      args.threads_given = true;
    } else if (flag == "--seed") {
      const char* v = value();
      if (!parse_u64(v, args.options.master_seed)) return bad_number(v);
      args.seed_given = true;
    } else if (flag == "--limit") {
      std::uint64_t n = 0;
      const char* v = value();
      if (!parse_u64(v, n)) return bad_number(v);
      args.options.limit = n;
    } else if (flag == "--out") {
      const char* v = value();
      if (v == nullptr) return false;
      args.out = v;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return args.spec.scenario.empty() != args.spec.spec_file.empty();
}

runtime::RunOptions pinned_options(const runtime::Scenario& scenario,
                                   const RunArgs& args) {
  runtime::RunOptions options = args.options;
  if (scenario.spec != nullptr) {
    const runtime::RunSpec& pinned = scenario.spec->run;
    if (!args.seed_given && pinned.seed.has_value())
      options.master_seed = *pinned.seed;
    if (!args.threads_given && pinned.threads.has_value())
      options.threads = *pinned.threads;
  }
  return options;
}

bool open_ndjson(const std::string& out, std::ofstream& file,
                 std::ostream*& ndjson) {
  ndjson = nullptr;
  if (out == "-") {
    ndjson = &std::cout;
  } else if (!out.empty()) {
    file.open(out, std::ios::trunc);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", out.c_str());
      return false;
    }
    ndjson = &file;
  }
  return true;
}

void print_run_tail(const runtime::Scenario& scenario,
                    const runtime::ResultSink& sink,
                    const runtime::RunStats& stats, bool quiet,
                    bool ndjson_to_stdout) {
  if (!quiet && !ndjson_to_stdout) {
    std::printf("%s — %s\n\n", scenario.name.c_str(),
                scenario.description.c_str());
    sink.print_summary(std::cout);
  }
  if (stats.truncated())
    std::fprintf(stderr,
                 "warning: --limit truncated %s: ran %zu of %zu cases; "
                 "group summaries are partial\n",
                 scenario.name.c_str(), stats.cases, stats.plan_cases);
  std::fprintf(stderr, "%zu cases on %zu thread(s) in %.2fs (%.1f cases/s)\n",
               stats.cases, stats.threads, stats.wall_s, stats.cases_per_s());
}

}  // namespace thinair::tools
