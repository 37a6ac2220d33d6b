#pragma once
// Shared plumbing of the workload runners: command-line options, the
// clock, order statistics, process memory, the host fingerprint, set-up
// probes and the result line the runners print for perfbench/run.py.

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "util/sha256.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Stop after set-up and print only setup_s (SetupProbes runs this).
  bool setup_only = false;
  /// Pinned NDJSON digest the single-thread reference must match (empty
  /// when no golden applies to this seed).
  std::string golden;
  /// Path of the `thinair` CLI (daemon workload).
  std::string thinair;
  /// Where a traced run writes its spans.
  std::string trace_out;
  /// The command line after the program name, for SetupProbes.
  std::vector<std::string> args;
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// A run is cut into windows (sweep passes, slices of daemon groups) and
/// reports each end-to-end number at the slow quartile over its windows:
/// the 75th percentile of a time, the 25th of a rate. The 4-vCPU VMs this
/// was sized on switch every few seconds between a slow phase, steady to
/// ~2%, and a fast phase up to ~45% faster and far less steady, and short
/// stalls hit a few daemon windows of some runs. A median over windows
/// lands in either phase; the slow end picks out the stalled windows. Over
/// 20 daemon runs the spread (IQR / median across runs) was 10-12% at the
/// quartile against 10-15% at the median and 9-17% at the 90th percentile;
/// the sweeps read alike at the quartile and at the 90th percentile.
inline constexpr double kTimeQ = 0.75;
inline constexpr double kRateQ = 0.25;

/// Peak resident set (VmHWM) of process `pid` (0 = this process), in MB.
[[nodiscard]] double peak_rss_mb(int pid = 0);

/// Milliseconds a fixed arithmetic loop takes on this host right now — a
/// noise probe, so a slow run can be told apart from a slow program.
[[nodiscard]] double host_ref_ms();

/// CPU model, core count, dispatched GF(2^8) kernel and compiler.
[[nodiscard]] std::map<std::string, std::string> host_fingerprint();

/// An ostream that hashes everything written to it (SHA-256), so a sweep's
/// NDJSON can be checked without being kept in memory.
class HashingStream : public std::ostream {
 public:
  HashingStream() : std::ostream(&buf_) {}
  [[nodiscard]] std::string hex() {
    flush();
    return buf_.sha.hex();
  }

 private:
  struct Buf : std::streambuf {
    thinair::util::Sha256 sha;
    int_type overflow(int_type c) override;
    std::streamsize xsputn(const char* s, std::streamsize n) override;
  };
  Buf buf_;
};

/// What a runner reports: correctness, counts, named metric values and
/// free-form context (fingerprint, sample counts). Printed as one JSON
/// line on stdout; run.py attaches the units from BENCHMARK.json.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, double> context_numbers;
  std::map<std::string, std::string> context_text;

  /// Mark the run incorrect and say why on stderr.
  void fail(const std::string& why);
  void print() const;
};

/// setup_s of a timed run: the median over the run's own set-up and cold
/// set-ups in fresh processes of this binary (same arguments plus
/// --setup-only). The probes run between the run's windows, about
/// kProbesPerS per measured second, so they sample the same mix of host
/// phases as the windows do; set-ups taken back to back all fall into one
/// phase, which moves a ~3 ms set-up by up to a factor of two.
class SetupProbes {
 public:
  static constexpr double kProbesPerS = 2.0;

  explicit SetupProbes(std::vector<std::string> args);
  /// Probe until there are kProbesPerS probes per second of `measured_s`.
  void catch_up(double measured_s);
  [[nodiscard]] double median_with(double own) const;
  [[nodiscard]] std::size_t count() const { return samples_.size(); }

 private:
  std::vector<std::string> argv_;
  std::vector<double> samples_;
};

}  // namespace perfbench
