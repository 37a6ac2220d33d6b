#pragma once
// The workload runners. Each prints one Report line on stdout and returns
// the process exit code (nonzero when an output check failed).

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {

/// fig1, fig2, headline_mt: the registered paper sweeps.
[[nodiscard]] bool is_sweep_workload(const std::string& name);
int run_sweep(const Options& options, std::int64_t start_ns);

/// daemon: closed-loop key refresh against a live `thinair serve`.
int run_daemon(const Options& options, std::int64_t start_ns);

}  // namespace perfbench
