#pragma once
// Span recording for traced runs, from the benchmark's side of each call.
//
// A span is (name, key, start, end, parent): `key` is the case index of a
// sweep case or the session id of a daemon group, so every span of one
// case shares it. A span's layer is the prefix of its name: "channel.",
// "net.", "core.<step>", "analysis.<step>", "netd.client.", "netd.io.",
// "netd.wait."; any other name (case, session, round, netd.group) is glue. Each thread appends to its own buffer (no locking on the
// hot path); buffers register once in a global list, outlive their thread
// and are read after the traced pass has joined its workers.
//
// Channel time is the one layer not recorded as spans: an erasure-model
// call costs nanoseconds and happens thousands of times per round, so the
// TimedErasure decorator counts every call, times one call in 16 (less
// the clock's own cost, scaled by 16) into a per-thread sum, and each span
// records how much of that sum accrued while it was open. Self time then
// subtracts child spans and the channel time inside them. Channel time is
// a sampled estimate: sound over a case, rough for one small span.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "channel/erasure.h"

namespace perfbench {

struct Span {
  const char* name = "";  // static string, "<layer>.<what>" or glue
  std::uint64_t key = 0;
  std::uint32_t parent = 0;  // index + 1 in the same thread's buffer, 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t channel_ns = 0;  // decorator time while this span was open
};

/// Open a span on this thread; closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint64_t key);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Change the name before the span closes (once the call's outcome is
  /// known). `name` must be a static string.
  void rename(const char* name);

 private:
  std::uint32_t index_;
};

/// Counting, timing pass-through to another erasure model (the channel
/// layer's probe). Probabilities are the inner model's, so every draw the
/// medium makes is unchanged.
class TimedErasure final : public thinair::channel::ErasureModel {
 public:
  explicit TimedErasure(const thinair::channel::ErasureModel& inner)
      : inner_(inner) {}
  [[nodiscard]] double erasure_probability(
      const thinair::channel::LinkContext& link) const override;

 private:
  const thinair::channel::ErasureModel& inner_;
};

/// Per-layer totals over every span recorded since the last clear().
struct LayerTotals {
  std::map<std::string, double> self_ms;  // by layer; "glue" = uncovered
  double root_ms = 0.0;                   // sum of root-span durations
  std::uint64_t channel_calls = 0;
  std::uint64_t spans = 0;

  void add(const LayerTotals& other);
};

[[nodiscard]] LayerTotals summarize_spans();

/// Write every recorded span as JSON to `path` (one array per thread).
void write_spans(const std::string& path, const std::string& workload,
                 std::uint64_t seed);

/// Drop all recorded spans and channel counters.
void clear_spans();

}  // namespace perfbench
