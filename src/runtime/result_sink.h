#pragma once
// Streaming result aggregation for sweeps.
//
// Workers push CaseResults in completion order. push() formats the
// case's NDJSON line on the calling thread, then takes the sink's one
// mutex to park the line in a case-index reorder window and to emit the
// contiguous run at the window's front: its lines go to the stream and
// its metrics into the per-group util::Summary folds, strictly in
// case-index order. So both the NDJSON bytes and the accumulator
// contents are independent of thread count and arrival order — this is
// the second half of the runtime's determinism contract (seeds are the
// first), and the golden-SHA256 suites pin it.
//
// One lock is enough for the traffic: the heaviest registered sweep
// pushes about 5k cases/s, and the locked work per case (a window slot,
// a stream write, a fold) takes under a microsecond (docs/runtime.md).
//
// Errors stop the run at once: push() throws on an index pushed twice
// and on a stream that failed a write, so the engine claims no further
// case. A lost case surfaces from finish(). summaries() and
// print_summary() are valid once finish() has returned.

#include <cstddef>
#include <deque>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "runtime/scenario.h"
#include "util/mutex.h"
#include "util/stats.h"
#include "util/thread_annotations.h"

namespace thinair::runtime {

/// Deterministic shortest-round-trip formatting for doubles ("0.25",
/// "1e-06", ...) — what the NDJSON writer uses for every number.
[[nodiscard]] std::string format_double(double value);

class ResultSink {
 public:
  /// `ndjson` may be nullptr (aggregate only). The stream must outlive
  /// the sink.
  ResultSink(std::string scenario_name, std::ostream* ndjson);

  ResultSink(const ResultSink&) = delete;
  ResultSink& operator=(const ResultSink&) = delete;

  /// Record case `spec` -> `result`. Thread-safe. The record waits in
  /// the reorder window until every lower index has arrived; the call
  /// that supplies the missing index writes the whole ready run. Each
  /// index of the run's plan must be pushed exactly once: a second push
  /// throws std::logic_error. A stream that fails a write throws
  /// std::runtime_error from the push that wrote to it.
  void push(const CaseSpec& spec, const CaseResult& result);

  /// Declare that this run covers only the first `run_cases` of the
  /// plan's `plan_cases` (--limit): finish() appends a one-line
  /// {"truncated":true,...} footer to the NDJSON stream and
  /// print_summary flags the group rows as partial. Without this call a
  /// full run's output bytes are unchanged. Call before finish().
  void mark_truncated(std::size_t run_cases, std::size_t plan_cases);

  /// Writes the optional truncation footer and flushes the stream.
  /// Throws std::logic_error if the emitted indices are not the
  /// contiguous range [0, cases()) — a case was lost — and
  /// std::runtime_error if the stream failed. Must happen-after every
  /// push (the engine joins its threads first).
  void finish();

  /// Cases emitted so far (== cases pushed, once finish() succeeded).
  [[nodiscard]] std::size_t cases() const;

  struct GroupSummary {
    std::string group;
    std::size_t cases = 0;
    /// Keyed by metric name; samples are in case-index order.
    std::map<std::string, util::Summary> metrics;
  };

  /// Summaries in first-appearance (case-index) order. Valid once
  /// finish() has returned.
  [[nodiscard]] const std::vector<GroupSummary>& summaries() const {
    util::MutexLock lock(&mu_);
    return groups_;
  }

  /// Render the summaries as a fixed-width table (one row per group x
  /// metric: count, min, p95, p50, mean, stddev, max). p95 and p50 are
  /// the values at least 95% and 50% of the cases met or exceeded
  /// (util::Summary::exceeded_by): Figure 2's "minimum achieved during
  /// 95% / 50% of the experiments". Valid once finish() has returned.
  void print_summary(std::ostream& os) const;

 private:
  /// A case waiting in the window: its formatted NDJSON line (empty
  /// without a stream) and the result its summaries fold.
  struct Record {
    std::string line;
    CaseResult result;
  };

  void emit(const Record& record) THINAIR_REQUIRES(mu_);
  void check_stream() const THINAIR_REQUIRES(mu_);

  const std::string scenario_name_;
  std::ostream* const ndjson_;

  mutable util::Mutex mu_;
  std::size_t next_emit_ THINAIR_GUARDED_BY(mu_) = 0;
  // The reorder window: slot k holds case next_emit_ + k once it has
  // arrived. A filled front slot is emitted at once, so a non-empty
  // window means case next_emit_ is missing.
  std::deque<std::optional<Record>> window_ THINAIR_GUARDED_BY(mu_);
  std::vector<GroupSummary> groups_ THINAIR_GUARDED_BY(mu_);
  std::size_t truncated_plan_cases_ THINAIR_GUARDED_BY(mu_) = 0;  // 0 = full
};

}  // namespace thinair::runtime
