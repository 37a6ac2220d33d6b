#include "runtime/result_sink.h"

#include <charconv>
#include <chrono>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "util/table.h"

namespace thinair::runtime {

namespace {

// Minimal JSON string escaping for names that flow into NDJSON keys and
// values — scenarios are an extension point, so labels are not trusted to
// be quote-free.
void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          // Fixed-width \u00XX by hand: printf-family formatting is banned
          // in the NDJSON path (locale-sensitive; thinair_lint
          // ndjson-float-format), and control chars only need two digits.
          static constexpr char kHex[] = "0123456789abcdef";
          const unsigned char u = static_cast<unsigned char>(c);
          out += "\\u00";
          out += kHex[u >> 4];
          out += kHex[u & 0xf];
        } else {
          out += c;
        }
    }
  }
}

void append_u64(std::string& out, std::uint64_t value) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc{})
    throw std::runtime_error("ResultSink: integer to_chars failed");
  out.append(buf, ptr);
}

void append_double(std::string& out, double value) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc{})
    throw std::runtime_error("format_double: to_chars failed");
  out.append(buf, ptr);
}

// Unique-forever sink ids let a thread cache its claimed ring without
// any dangling-pointer hazard when sink storage is reused: a dead
// sink's id never matches again.
std::uint64_t next_sink_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

struct ProducerCache {
  std::uint64_t sink_id = 0;
  void* ring = nullptr;
};
thread_local ProducerCache tl_producer;

}  // namespace

std::string format_double(double value) {
  std::string out;
  append_double(out, value);
  return out;
}

ResultSink::ResultSink(std::string scenario_name, std::ostream* ndjson)
    : scenario_name_(std::move(scenario_name)),
      ndjson_(ndjson),
      sink_id_(next_sink_id()) {
  buffer_.reserve(kFlushBytes + 4096);
  drainer_ = std::thread([this] { drain_loop(); });
}

ResultSink::~ResultSink() {
  stop_drainer();
  for (std::atomic<Ring*>& slot : rings_)
    delete slot.load(std::memory_order_relaxed);
}

ResultSink::Ring& ResultSink::producer_ring() {
  if (tl_producer.sink_id == sink_id_)
    return *static_cast<Ring*>(tl_producer.ring);
  // First push from this thread: claim a slot lock-free and publish the
  // ring to the drainer. Happens once per (thread, sink) — allocation
  // here is setup cost, not steady-state push cost.
  const std::size_t slot = n_rings_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= kMaxProducers)
    throw std::logic_error("ResultSink: too many producer threads");
  Ring* ring = new Ring(kRingCapacity);
  rings_[slot].store(ring, std::memory_order_release);
  tl_producer = {sink_id_, ring};
  return *ring;
}

void ResultSink::push(const CaseSpec& spec, const CaseResult& result) {
  producer_ring().push(Record{spec, result});
}

bool ResultSink::drain_rings() {
  bool progress = false;
  const std::size_t n =
      std::min(n_rings_.load(std::memory_order_acquire), kMaxProducers);
  for (std::size_t i = 0; i < n; ++i) {
    Ring* ring = rings_[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;  // claimed but not yet published
    Record record;
    while (ring->try_pop(record)) {
      progress = true;
      try {
        accept(std::move(record));
      } catch (...) {
        // First error wins; keep consuming so producers never block on
        // a full ring behind a dead drainer. finish() rethrows.
        if (!drain_error_) drain_error_ = std::current_exception();
      }
    }
  }
  return progress;
}

void ResultSink::drain_loop() {
  // The drainer thread owns the reorder/format/summary state for its
  // whole lifetime; the RoleLock makes that claim visible to the
  // analysis (finish() reclaims the role only after joining us).
  util::RoleLock role(&drainer_role_);
  int idle = 0;
  for (;;) {
    if (drain_rings()) {
      idle = 0;
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) {
      // Producers are done (finish() happens-after every push): one
      // final sweep empties whatever raced with the stop flag.
      while (drain_rings()) {
      }
      return;
    }
    // Spin briefly for low latency, then back off to sleeping so an
    // idle drainer does not burn a core under long-running cases.
    if (++idle < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
}

void ResultSink::accept(Record&& record) {
  if (drain_error_) return;  // already failed: discard, keep rings moving
  const std::size_t index = record.spec.index;
  if (index < next_emit_)
    throw std::logic_error("ResultSink: case pushed twice");
  const std::size_t slot = index - next_emit_;
  if (slot >= window_.size()) window_.resize(slot + 1);
  if (window_[slot].has_value())
    throw std::logic_error("ResultSink: case pushed twice");
  window_[slot] = std::move(record);
  // Emit the contiguous run at the front of the window.
  for (; !window_.empty() && window_.front().has_value();
       window_.pop_front(), ++next_emit_)
    emit(window_.front()->spec, window_.front()->result);
  emitted_.store(next_emit_, std::memory_order_relaxed);
}

void ResultSink::emit(const CaseSpec& spec, const CaseResult& result) {
  if (ndjson_ != nullptr) {
    std::string& out = buffer_;
    out += "{\"scenario\":\"";
    append_escaped(out, scenario_name_);
    out += "\",\"index\":";
    append_u64(out, spec.index);
    out += ",\"seed\":";
    append_u64(out, spec.seed);
    if (!result.group.empty()) {
      out += ",\"group\":\"";
      append_escaped(out, result.group);
      out += "\"";
    }
    out += ",\"params\":{";
    for (std::size_t i = 0; i < spec.params.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"";
      append_escaped(out, spec.params[i].name);
      out += "\":";
      append_double(out, spec.params[i].value);
    }
    out += "},\"metrics\":{";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"";
      append_escaped(out, result.metrics[i].name);
      out += "\":";
      append_double(out, result.metrics[i].value);
    }
    out += "}}\n";
    if (out.size() >= kFlushBytes) flush_buffer();
  }

  GroupSummary* group = nullptr;
  for (GroupSummary& g : groups_)
    if (g.group == result.group) group = &g;
  if (group == nullptr) {
    groups_.push_back(GroupSummary{result.group, 0, {}});
    group = &groups_.back();
  }
  ++group->cases;
  for (const Metric& m : result.metrics) group->metrics[m.name].add(m.value);
}

void ResultSink::flush_buffer() {
  if (ndjson_ != nullptr && !buffer_.empty()) {
    ndjson_->write(buffer_.data(),
                   static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
  }
}

void ResultSink::stop_drainer() {
  if (!drainer_.joinable()) return;
  stop_.store(true, std::memory_order_release);
  drainer_.join();
}

void ResultSink::mark_truncated(std::size_t run_cases,
                                std::size_t plan_cases) {
  if (run_cases >= plan_cases)
    throw std::logic_error("ResultSink::mark_truncated: nothing truncated");
  truncated_plan_cases_ = plan_cases;
}

void ResultSink::finish() {
  stop_drainer();
  // The drainer is joined: this thread is the sole owner of its state
  // from here on, so it may claim the role.
  util::RoleLock role(&drainer_role_);
  // Lines emitted before a contract violation still reach the stream —
  // matching the old eager-writing sink's behaviour on error paths.
  flush_buffer();
  if (drain_error_) std::rethrow_exception(drain_error_);
  if (!window_.empty()) {
    std::string what = "ResultSink::finish: missing case ";
    append_u64(what, next_emit_);
    throw std::logic_error(what);
  }
  if (ndjson_ != nullptr) {
    // A truncated run's per-group aggregates cover partial groups;
    // stamp that into the stream so downstream readers cannot mistake
    // the file for a full sweep. Full runs emit no footer, keeping
    // their bytes identical to pre-footer versions.
    if (truncated_plan_cases_ != 0) {
      std::string& out = buffer_;
      out += "{\"scenario\":\"";
      append_escaped(out, scenario_name_);
      out += "\",\"truncated\":true,\"cases\":";
      append_u64(out, next_emit_);
      out += ",\"plan_cases\":";
      append_u64(out, truncated_plan_cases_);
      out += "}\n";
      flush_buffer();
    }
    ndjson_->flush();
  }
}

std::size_t ResultSink::cases() const {
  return emitted_.load(std::memory_order_relaxed);
}

void ResultSink::print_summary(std::ostream& os) const {
  // Valid only post-finish (documented contract): the caller is the sole
  // owner of the drainer state, so claim the role for the walk.
  util::RoleLock role(&drainer_role_);
  util::Table t({"group", "metric", "cases", "min", "p95", "p50", "mean",
                 "stddev", "max"});
  for (const GroupSummary& g : groups_) {
    for (const auto& [name, summary] : g.metrics) {
      std::string cases_str;
      append_u64(cases_str, g.cases);
      t.add_row({g.group.empty() ? "(all)" : g.group, name,
                 std::move(cases_str), util::fmt(summary.min(), 4),
                 util::fmt(summary.exceeded_by(0.95), 4),
                 util::fmt(summary.exceeded_by(0.50), 4),
                 util::fmt(summary.mean(), 4),
                 summary.count() > 1 ? util::fmt(summary.stddev(), 4) : "-",
                 util::fmt(summary.max(), 4)});
    }
  }
  t.print(os);
  if (truncated_plan_cases_ != 0)
    os << "\ntruncated: summaries cover the first " << next_emit_ << " of "
       << truncated_plan_cases_ << " cases (group rows are partial)\n";
}

}  // namespace thinair::runtime
