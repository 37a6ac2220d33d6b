#include "trace.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "common.h"

namespace perfbench {

namespace {

constexpr std::int64_t kChannelSample = 16;

struct ThreadSpans {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<std::uint32_t> open;  // indices of open spans, innermost last
  std::int64_t channel_ns = 0;
  std::uint64_t channel_calls = 0;
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadSpans>> threads;
};

Registry& registry() {
  static Registry r;
  return r;
}

/// Median time between two back-to-back clock reads.
std::int64_t clock_cost_ns() {
  static const std::int64_t cost = [] {
    std::vector<std::int64_t> d(257);
    for (std::int64_t& x : d) {
      const std::int64_t t0 = now_ns();
      x = now_ns() - t0;
    }
    std::nth_element(d.begin(), d.begin() + 128, d.end());
    return d[128];
  }();
  return cost;
}

ThreadSpans& local() {
  thread_local ThreadSpans* mine = nullptr;
  if (mine == nullptr) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.threads.push_back(std::make_unique<ThreadSpans>());
    mine = r.threads.back().get();
    mine->thread = static_cast<std::uint32_t>(r.threads.size() - 1);
    mine->spans.reserve(4096);
  }
  return *mine;
}

}  // namespace

ScopedSpan::ScopedSpan(const char* name, std::uint64_t key) {
  ThreadSpans& t = local();
  index_ = static_cast<std::uint32_t>(t.spans.size());
  Span s;
  s.name = name;
  s.key = key;
  s.parent = t.open.empty() ? 0 : t.open.back() + 1;
  s.channel_ns = t.channel_ns;  // start value; turned into a delta on close
  t.open.push_back(index_);
  s.start_ns = now_ns();
  t.spans.push_back(s);
}

ScopedSpan::~ScopedSpan() {
  const std::int64_t end = now_ns();
  ThreadSpans& t = local();
  Span& s = t.spans[index_];
  s.end_ns = end;
  s.channel_ns = t.channel_ns - s.channel_ns;
  t.open.pop_back();
}

void ScopedSpan::rename(const char* name) { local().spans[index_].name = name; }

double TimedErasure::erasure_probability(
    const thinair::channel::LinkContext& link) const {
  // Every call is counted; one in kChannelSample is timed, less the cost
  // of the clock reads themselves (never below zero), and stands for the
  // kChannelSample calls around it. Timing all of them would cost more
  // than an iid draw itself.
  ThreadSpans& t = local();
  if (t.channel_calls++ % kChannelSample != 0)
    return inner_.erasure_probability(link);
  const std::int64_t cost = clock_cost_ns();
  const std::int64_t t0 = now_ns();
  const double p = inner_.erasure_probability(link);
  t.channel_ns +=
      std::max<std::int64_t>(0, now_ns() - t0 - cost) * kChannelSample;
  return p;
}

namespace {

/// Layer a span name belongs to: "channel", "net", "core.phase1", ...,
/// "netd.client", "netd.io", "netd.wait", or "glue" for the case, session,
/// round and group frames around them.
std::string layer_of(const char* span_name) {
  const std::string name(span_name);
  if (name.rfind("core.", 0) == 0 || name.rfind("analysis.", 0) == 0)
    return name;
  for (const char* layer :
       {"channel.", "net.", "netd.client.", "netd.io.", "netd.wait."}) {
    const std::string prefix(layer);
    if (name.rfind(prefix, 0) == 0) return prefix.substr(0, prefix.size() - 1);
  }
  return "glue";
}

}  // namespace

void LayerTotals::add(const LayerTotals& other) {
  for (const auto& [layer, ms] : other.self_ms) self_ms[layer] += ms;
  root_ms += other.root_ms;
  channel_calls += other.channel_calls;
  spans += other.spans;
}

LayerTotals summarize_spans() {
  LayerTotals totals;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& t : r.threads) {
    if (!t->open.empty())
      throw std::logic_error("summarize_spans: a span is still open");
    const std::vector<Span>& spans = t->spans;
    // Children's duration and channel time, accumulated onto the parent.
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    std::vector<std::int64_t> child_channel(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent == 0) continue;
      child_ns[s.parent - 1] += s.end_ns - s.start_ns;
      child_channel[s.parent - 1] += s.channel_ns;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const std::int64_t dur = s.end_ns - s.start_ns;
      const std::int64_t own_channel = s.channel_ns - child_channel[i];
      const std::int64_t self = dur - child_ns[i] - own_channel;
      totals.self_ms[layer_of(s.name)] += static_cast<double>(self) * 1e-6;
      totals.self_ms["channel"] += static_cast<double>(own_channel) * 1e-6;
      if (s.parent == 0) totals.root_ms += static_cast<double>(dur) * 1e-6;
    }
    totals.channel_calls += t->channel_calls;
    totals.spans += spans.size();
  }
  return totals;
}

void write_spans(const std::string& path, const std::string& workload,
                 std::uint64_t seed) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::int64_t origin = INT64_MAX;
  for (const auto& t : r.threads)
    for (const Span& s : t->spans) origin = std::min(origin, s.start_ns);
  out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
      << ",\n \"columns\": [\"name\", \"key\", \"parent\", \"start_ns\", "
         "\"end_ns\", \"channel_ns\"],\n \"threads\": [";
  const char* tsep = "";
  for (const auto& t : r.threads) {
    out << tsep << "\n  {\"thread\": " << t->thread << ", \"spans\": [";
    const char* sep = "";
    for (const Span& s : t->spans) {
      out << sep << "\n   [\"" << s.name << "\", " << s.key << ", " << s.parent
          << ", " << s.start_ns - origin << ", " << s.end_ns - origin << ", "
          << s.channel_ns << "]";
      sep = ",";
    }
    out << "]}";
    tsep = ",";
  }
  out << "\n]}\n";
}

void clear_spans() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& t : r.threads) {
    t->spans.clear();
    t->channel_ns = 0;
    t->channel_calls = 0;
  }
}

}  // namespace perfbench
