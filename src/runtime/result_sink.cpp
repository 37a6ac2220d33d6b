#include "runtime/result_sink.h"

#include <charconv>
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

std::string ndjson_line(const std::string& scenario, const CaseSpec& spec,
                        const CaseResult& result) {
  std::string out = "{\"scenario\":\"";
  append_escaped(out, scenario);
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
  return out;
}

}  // namespace

std::string format_double(double value) {
  std::string out;
  append_double(out, value);
  return out;
}

ResultSink::ResultSink(std::string scenario_name, std::ostream* ndjson)
    : scenario_name_(std::move(scenario_name)), ndjson_(ndjson) {}

void ResultSink::push(const CaseSpec& spec, const CaseResult& result) {
  // Formatting is the costly part of a record, and it needs no lock.
  Record record{ndjson_ != nullptr ? ndjson_line(scenario_name_, spec, result)
                                   : std::string{},
                result};
  util::MutexLock lock(&mu_);
  if (spec.index < next_emit_)
    throw std::logic_error("ResultSink: case pushed twice");
  const std::size_t slot = spec.index - next_emit_;
  if (slot >= window_.size()) window_.resize(slot + 1);
  if (window_[slot].has_value())
    throw std::logic_error("ResultSink: case pushed twice");
  window_[slot] = std::move(record);
  if (slot != 0) return;  // case next_emit_ is still missing
  for (; !window_.empty() && window_.front().has_value();
       window_.pop_front(), ++next_emit_)
    emit(*window_.front());
  check_stream();
}

void ResultSink::emit(const Record& record) {
  if (ndjson_ != nullptr)
    ndjson_->write(record.line.data(),
                   static_cast<std::streamsize>(record.line.size()));

  const CaseResult& result = record.result;
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

void ResultSink::check_stream() const {
  if (ndjson_ != nullptr && !*ndjson_)
    throw std::runtime_error("ResultSink: cannot write the NDJSON stream");
}

void ResultSink::mark_truncated(std::size_t run_cases,
                                std::size_t plan_cases) {
  if (run_cases >= plan_cases)
    throw std::logic_error("ResultSink::mark_truncated: nothing truncated");
  util::MutexLock lock(&mu_);
  truncated_plan_cases_ = plan_cases;
}

void ResultSink::finish() {
  util::MutexLock lock(&mu_);
  if (!window_.empty()) {
    std::string what = "ResultSink::finish: missing case ";
    append_u64(what, next_emit_);
    throw std::logic_error(what);
  }
  if (ndjson_ == nullptr) return;
  // A truncated run's per-group aggregates cover partial groups; stamp
  // that into the stream so downstream readers cannot mistake the file
  // for a full sweep. Full runs emit no footer, keeping their bytes
  // identical to pre-footer versions.
  if (truncated_plan_cases_ != 0) {
    std::string out = "{\"scenario\":\"";
    append_escaped(out, scenario_name_);
    out += "\",\"truncated\":true,\"cases\":";
    append_u64(out, next_emit_);
    out += ",\"plan_cases\":";
    append_u64(out, truncated_plan_cases_);
    out += "}\n";
    ndjson_->write(out.data(), static_cast<std::streamsize>(out.size()));
  }
  ndjson_->flush();
  check_stream();
}

std::size_t ResultSink::cases() const {
  util::MutexLock lock(&mu_);
  return next_emit_;
}

void ResultSink::print_summary(std::ostream& os) const {
  util::MutexLock lock(&mu_);
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
