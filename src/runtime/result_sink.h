#pragma once
// Lock-free streaming result aggregation for sweeps.
//
// Workers push CaseResults in completion order; push() is an
// enqueue-and-return into a per-thread SPSC ring (runtime/spsc_ring.h)
// — no mutex, no number formatting, no stream I/O ever runs on a worker
// thread. A dedicated drainer thread, spawned by the constructor and
// joined by finish() (or the destructor on error unwind), owns
// everything that used to happen under the old sink mutex: the
// case-index reorder window, NDJSON line building into a large buffered
// writer, and the per-group util::Summary folds. Because the drainer
// still emits strictly in case-index order, both the NDJSON bytes and
// the accumulator contents are independent of thread count and arrival
// order — this is the second half of the runtime's determinism contract
// (seeds are the first), and the golden-SHA256 suites pin it.
//
// Backpressure: rings are fixed-capacity, so a producer that outruns
// the drainer spins until a slot frees up. Memory is bounded by
// O(producers x ring capacity) plus the reorder window, which spans
// from the emission cursor to the furthest index that arrived ahead of
// it (bounded by in-flight parallelism in practice).
//
// Contract errors (an index pushed twice, a formatting failure) are
// detected on the drainer and rethrown by finish(); summaries() and
// print_summary() are valid once finish() has returned.

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "runtime/scenario.h"
#include "runtime/spsc_ring.h"
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
  /// the sink. Spawns the drainer thread.
  ResultSink(std::string scenario_name, std::ostream* ndjson);

  /// Stops and joins the drainer. Destruction without finish() is the
  /// error-unwind path: buffered output that finish() would have
  /// written stays unwritten, and contract violations are swallowed.
  ~ResultSink();

  ResultSink(const ResultSink&) = delete;
  ResultSink& operator=(const ResultSink&) = delete;

  /// Record case `spec` -> `result`. Thread-safe, wait-free on the
  /// worker side apart from full-ring backpressure: the record is
  /// enqueued on the calling thread's ring and the call returns. Each
  /// index of the run's plan must be pushed exactly once; violations
  /// surface as std::logic_error from finish(), which must
  /// happen-after every push (the engine guarantees this by joining its
  /// threads first). A record waits in the reorder window until every
  /// lower index has arrived.
  void push(const CaseSpec& spec, const CaseResult& result);

  /// Declare that this run covers only the first `run_cases` of the
  /// plan's `plan_cases` (--limit): finish() appends a one-line
  /// {"truncated":true,...} footer to the NDJSON stream and
  /// print_summary flags the group rows as partial. Without this call a
  /// full run's output bytes are unchanged. Call before finish().
  void mark_truncated(std::size_t run_cases, std::size_t plan_cases);

  /// Drain-join: stops the drainer once every ring is empty, writes the
  /// buffered NDJSON tail plus the optional truncation footer, and
  /// flushes the stream. Throws std::logic_error if the emitted indices
  /// are not the contiguous range [0, cases()) — i.e. a case was lost
  /// or pushed twice.
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
  /// finish() has returned — the caller then owns the drainer state, so
  /// the accessor claims the (no-op) drainer role for the read.
  [[nodiscard]] const std::vector<GroupSummary>& summaries() const {
    util::RoleLock role(&drainer_role_);
    return groups_;
  }

  /// Render the summaries as a fixed-width table (one row per group x
  /// metric: count, min, p95, p50, mean, stddev, max). p95 and p50 are
  /// the values at least 95% and 50% of the cases met or exceeded
  /// (util::Summary::exceeded_by): Figure 2's "minimum achieved during
  /// 95% / 50% of the experiments". Valid once finish() has returned.
  void print_summary(std::ostream& os) const;

 private:
  struct Record {
    CaseSpec spec;
    CaseResult result;
  };
  using Ring = SpscRing<Record>;

  /// Records each producer ring can hold before push() backpressures.
  static constexpr std::size_t kRingCapacity = 1024;
  /// Ring slots: engine::kMaxRunThreads workers plus the submitting
  /// thread plus slack for external callers.
  static constexpr std::size_t kMaxProducers = 1088;
  /// Drainer flushes its line buffer to the stream at this size.
  static constexpr std::size_t kFlushBytes = 256 * 1024;

  [[nodiscard]] Ring& producer_ring();
  void drain_loop() THINAIR_EXCLUDES(drainer_role_);
  bool drain_rings() THINAIR_REQUIRES(drainer_role_);
  void accept(Record&& record) THINAIR_REQUIRES(drainer_role_);
  void emit(const CaseSpec& spec, const CaseResult& result)
      THINAIR_REQUIRES(drainer_role_);
  void flush_buffer() THINAIR_REQUIRES(drainer_role_);
  void stop_drainer();

  std::string scenario_name_;
  std::ostream* ndjson_;
  std::uint64_t sink_id_;

  // Producer registry: slots are claimed lock-free (fetch_add) by the
  // first push from each thread; the Ring* store/load pair
  // (release/acquire) publishes the ring to the drainer. This is the
  // *worker-owned* half of the sink: nothing below it is ever touched
  // from a push path.
  std::array<std::atomic<Ring*>, kMaxProducers> rings_{};
  std::atomic<std::size_t> n_rings_{0};

  // Drainer-owned state, guarded by an explicit single-owner capability:
  // drain_loop() holds drainer_role_ for its lifetime, and finish()/the
  // destructor reclaim it only after the drainer thread is joined (the
  // join is the happens-before edge; the role makes the ownership split
  // a compile-time property instead of a comment). Any access outside a
  // region holding the role fails -Wthread-safety.
  util::Role drainer_role_;
  std::size_t next_emit_ THINAIR_GUARDED_BY(drainer_role_) = 0;
  // The reorder window: slot k holds case next_emit_ + k once it has
  // arrived. A filled front slot is emitted at once, so a non-empty
  // window means case next_emit_ is missing.
  std::deque<std::optional<Record>> window_
      THINAIR_GUARDED_BY(drainer_role_);
  std::vector<GroupSummary> groups_ THINAIR_GUARDED_BY(drainer_role_);
  std::string buffer_ THINAIR_GUARDED_BY(drainer_role_);
  std::exception_ptr drain_error_ THINAIR_GUARDED_BY(drainer_role_);

  // Written by mark_truncated() strictly before finish() joins the
  // drainer (main thread only), read by the drainer's final emit — the
  // ordering contract is "call before finish()", documented above.
  std::size_t truncated_plan_cases_ = 0;  // 0 = not truncated
  std::atomic<std::size_t> emitted_{0};
  std::atomic<bool> stop_{false};
  std::thread drainer_;
};

}  // namespace thinair::runtime
