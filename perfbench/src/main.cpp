// perfbench / perfbench_traced: one workload run of the end-to-end
// benchmark. perfbench/run.py builds these, runs them and turns the last
// stdout line into the benchmark's result. perfbench makes the timed run;
// perfbench_traced, which counts allocations, makes the traced run.
//
//   perfbench[_traced] --workload fig1|fig2|headline_mt|daemon --seed N
//                      --seconds S [--setup-only] [--golden SHA256]
//                      [--thinair PATH] [--trace-out FILE]

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

bool parse(int argc, char** argv, perfbench::Options& opt) {
  opt.args.assign(argv + 1, argv + argc);
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      opt.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--golden") {
      opt.golden = value;
    } else if (flag == "--thinair") {
      opt.thinair = value;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      return false;
    }
  }
  return !opt.workload.empty() && opt.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t start_ns = perfbench::now_ns();
  perfbench::Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S"
                 " [--setup-only] [--golden SHA256] [--thinair PATH]"
                 " [--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  try {
    if (perfbench::is_sweep_workload(opt.workload))
      return perfbench::run_sweep(opt, start_ns);
    if (opt.workload == "daemon") return perfbench::run_daemon(opt, start_ns);
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
  }
  return 2;
}
