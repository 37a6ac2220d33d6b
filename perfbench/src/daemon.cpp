// The daemon workload: `thinair serve` in its own process on loopback,
// driven by a closed-loop, single-threaded generator. One 3-terminal group
// is in flight at a time (NodeConfig defaults: N = 24, 32-byte payloads,
// one round per terminal); the next group re-keys as soon as every
// terminal of the previous one holds the key — the paper's key-refresh
// use. The generator owns one UDP socket per node index and busy-polls
// them without sleeping while a group is in flight, so time-to-key
// measures the protocol and the daemon, not the generator's wake-ups.
//
// Timed run (perfbench): kWindows equal slices of the run's time, each
// read for its p50/p90 time-to-key and groups/s; the run reports each at
// the slow quartile over windows (common.h). Set-up probes run between
// windows (common.h, SetupProbes).
//
// Checks: every group's three terminals must end with byte-identical keys;
// a group that fails, expires or disagrees fails the run. An empty key is
// valid agreement (the estimator may judge a round to carry no secrecy;
// about 0.1% of groups at the NodeConfig defaults), but a run in which
// more than kMaxKeylessShare of the groups agree on an empty key fails.
//
// Traced run (perfbench_traced): groups alternate between untraced, the
// overhead baseline and the allocation count, and traced, so both see the
// same host phases. In a traced group every call the generator makes is a
// span under the group's "netd.group" root: NodeSession on_datagram/
// on_tick/poll_datagram (netd.client), UdpSocket send_to and recv_from
// that returned a datagram (netd.io), recv_from that found nothing
// (netd.wait: the generator waiting for the daemon). Spans are summarized
// every kSpanBatch traced groups and the first batch is written out.

#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "netd/node_session.h"
#include "netd/udp.h"
#include "netd/wire.h"
#include "runtime/seed.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace nd = thinair::netd;

constexpr std::size_t kMembers = 3;
constexpr std::size_t kWindows = 20;
constexpr std::size_t kSpanBatch = 8;
constexpr double kMaxKeylessShare = 0.01;
// Far above a healthy group's few milliseconds and above the ARQ/probe
// recovery of a lost datagram (50 ms / 250 ms), so only a wedged group
// reaches it.
constexpr double kGroupDeadlineS = 10.0;

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

/// The first two CPUs this process may use (generator, daemon); empty when
/// fewer than two are available.
std::vector<int> pick_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE && cpus.size() < 2; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  if (cpus.size() < 2) cpus.clear();
  return cpus;
}

/// Pin the calling thread (or, before exec, the process) to `cpu`.
void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

/// `thinair serve --port 0` as a child process; stopped and reaped on
/// destruction.
class ServeProcess {
 public:
  ServeProcess(const std::string& thinair, std::uint64_t hub_seed, int cpu) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    const std::string seed = std::to_string(hub_seed);
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (cpu >= 0) pin_to(cpu);
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      execl(thinair.c_str(), thinair.c_str(), "serve", "--host", "127.0.0.1",
            "--port", "0", "--seed", seed.c_str(), nullptr);
      _exit(127);
    }
    close(fds[1]);
    out_ = fds[0];
    port_ = read_port();
  }

  ~ServeProcess() { stop(); }
  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;

  [[nodiscard]] int pid() const { return pid_; }
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// utime + stime of the daemon so far, in microseconds.
  [[nodiscard]] double cpu_us() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::size_t close_paren = stat.rfind(')');
    if (close_paren == std::string::npos) return 0.0;
    std::istringstream fields(stat.substr(close_paren + 2));
    std::string field;
    double utime = 0.0, stime = 0.0;
    // Fields after the command name start at field 3 (state); utime and
    // stime are fields 14 and 15.
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i == 14) utime = std::stod(field);
      if (i == 15) stime = std::stod(field);
    }
    return (utime + stime) * 1e6 / static_cast<double>(sysconf(_SC_CLK_TCK));
  }

  void stop() {
    if (out_ >= 0) close(out_);
    out_ = -1;
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 500; ++i) {
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      usleep(10'000);
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  std::uint16_t read_port() {
    // "thinaird listening on 127.0.0.1:PORT (epoll)"
    std::string line;
    const std::int64_t t0 = now_ns();
    while (line.find('\n') == std::string::npos) {
      if (seconds_since(t0) > 10.0) break;
      pollfd p{out_, POLLIN, 0};
      if (poll(&p, 1, 100) <= 0) continue;
      char buf[256];
      const ssize_t got = read(out_, buf, sizeof buf);
      if (got <= 0) break;
      line.append(buf, static_cast<std::size_t>(got));
    }
    const std::size_t colon = line.rfind(':');
    if (line.find("listening") == std::string::npos ||
        colon == std::string::npos) {
      stop();
      throw std::runtime_error("thinair serve did not report a port: " + line);
    }
    return static_cast<std::uint16_t>(std::stoul(line.substr(colon + 1)));
  }

  pid_t pid_ = -1;
  int out_ = -1;
  std::uint16_t port_ = 0;
};

struct GroupResult {
  bool ok = false;
  std::string error;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t dgrams = 0;       // exchanged with the daemon, both ways
  std::uint64_t timer_sends = 0;  // datagrams on_tick produced
  std::size_t key_bytes = 0;
  [[nodiscard]] double ttk_ms() const {
    return static_cast<double>(end_ns - start_ns) * 1e-6;
  }
};

class Generator {
 public:
  Generator(std::uint16_t port, std::uint64_t seed)
      : daemon_(nd::make_addr("127.0.0.1", port)), seed_(seed) {
    for (std::size_t i = 0; i < kMembers; ++i) {
      sockets_[i] = nd::UdpSocket::bind("127.0.0.1", 0);
      sessions_[i] = std::make_unique<nd::NodeSession>(nd::NodeConfig{});
    }
  }

  /// Run group `group` to completion. With `traced`, every call is a span;
  /// with `until_attach_ok`, return as soon as the first kAttachOk arrives.
  GroupResult run(std::uint64_t group, bool traced,
                  bool until_attach_ok = false) {
    GroupResult r;
    const std::uint64_t sid = group + 1;
    for (std::size_t i = 0; i < kMembers; ++i) {
      nd::NodeConfig c;  // N, payload size, timers: the defaults
      c.session_id = sid;
      c.node = static_cast<std::uint16_t>(i);
      c.members = kMembers;
      c.payload_seed = thinair::runtime::derive_seed(seed_, group * kMembers + i);
      sessions_[i]->reset(c);
    }
    std::optional<ScopedSpan> root;
    if (traced) root.emplace("netd.group", sid);
    r.start_ns = now_ns();
    const double start = static_cast<double>(r.start_ns) * 1e-9;
    for (auto& s : sessions_) s->start(start);
    const auto call = [traced, sid](const char* name, auto&& f) {
      if (!traced) return f();
      ScopedSpan span(name, sid);
      return f();
    };
    const auto recv = [&](std::size_t i) {
      if (!traced) return sockets_[i].recv_from(buf_, from_);
      ScopedSpan span("netd.io.recv_from", sid);
      const bool got = sockets_[i].recv_from(buf_, from_);
      if (!got) span.rename("netd.wait.recv_from");
      return got;
    };
    const auto flush = [&](std::size_t i, std::uint64_t* timer_sends) {
      while (call("netd.client.poll_datagram",
                  [&] { return sessions_[i]->poll_datagram(buf_); })) {
        call("netd.io.send_to",
             [&] { return sockets_[i].send_to(daemon_, buf_); });
        ++r.dgrams;
        if (timer_sends != nullptr) ++*timer_sends;
      }
    };
    for (std::size_t i = 0; i < kMembers; ++i) flush(i, nullptr);

    for (;;) {
      for (std::size_t i = 0; i < kMembers; ++i) {
        while (recv(i)) {
          ++r.dgrams;
          if (until_attach_ok) {
            const nd::DecodeResult d = nd::decode(buf_);
            if (d.frame.has_value() &&
                d.frame->header.type ==
                    static_cast<std::uint8_t>(nd::FrameType::kAttachOk)) {
              r.end_ns = now_ns();
              r.ok = true;
              return r;
            }
          }
          call("netd.client.on_datagram",
               [&] { sessions_[i]->on_datagram(buf_, now_s()); });
        }
        flush(i, nullptr);
      }
      const double now = now_s();
      for (std::size_t i = 0; i < kMembers; ++i) {
        call("netd.client.on_tick", [&] { sessions_[i]->on_tick(now); });
        flush(i, &r.timer_sends);
      }

      std::size_t done = 0;
      for (std::size_t i = 0; i < kMembers; ++i) {
        if (sessions_[i]->failed()) {
          r.end_ns = now_ns();
          r.error = "node " + std::to_string(i) +
                    " failed: " + sessions_[i]->error();
          return r;
        }
        done += sessions_[i]->done();
      }
      if (done == kMembers) break;
      if (now - start > kGroupDeadlineS) {
        r.end_ns = now_ns();
        r.error = "expired after " + std::to_string(kGroupDeadlineS) + " s";
        return r;
      }
    }
    r.end_ns = now_ns();
    const std::vector<std::uint8_t>& key = sessions_[0]->secret();
    for (std::size_t i = 1; i < kMembers; ++i)
      if (sessions_[i]->secret() != key) {
        r.error = "terminals disagree on the key";
        return r;
      }
    r.key_bytes = key.size();
    r.ok = true;
    return r;
  }

 private:
  sockaddr_in daemon_;
  std::uint64_t seed_;
  std::array<nd::UdpSocket, kMembers> sockets_;
  std::array<std::unique_ptr<nd::NodeSession>, kMembers> sessions_;
  std::vector<std::uint8_t> buf_;
  sockaddr_in from_{};
};

/// Run the next group; a failure is reported into `report`.
GroupResult run_group(Generator& gen, std::uint64_t& next_group, bool traced,
                      Report& report) {
  GroupResult r = gen.run(next_group++, traced);
  if (!r.ok)
    report.fail("group " + std::to_string(next_group - 1) + ": " + r.error);
  return r;
}

/// Time-to-key of the completed groups from index `first` on.
std::vector<double> ttk_samples(const std::vector<GroupResult>& groups,
                                std::size_t first = 0) {
  std::vector<double> ms;
  for (std::size_t i = first; i < groups.size(); ++i)
    if (groups[i].ok) ms.push_back(groups[i].ttk_ms());
  return ms;
}

std::string joined(const std::vector<double>& values, const char* format) {
  std::string out;
  for (const double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof buf, format, v);
    out += out.empty() ? "" : " ";
    out += buf;
  }
  return out;
}

}  // namespace

int run_daemon(const Options& opt, std::int64_t start_ns) {
  if (opt.thinair.empty())
    throw std::invalid_argument("daemon workload needs --thinair PATH");
  const bool traced = alloc_counting();
  Report report;
  // The generator and the daemon each keep one CPU for the whole run, so
  // neither migrates mid-group and their placement is the same every run.
  const std::vector<int> cpus = pick_cpus();
  cpu_set_t run_cpus;  // what the process may use before pinning
  CPU_ZERO(&run_cpus);
  (void)sched_getaffinity(0, sizeof run_cpus, &run_cpus);
  ServeProcess serve(opt.thinair, thinair::runtime::derive_seed2(opt.seed, 0),
                     cpus.empty() ? -1 : cpus[1]);
  if (!cpus.empty()) pin_to(cpus[0]);
  Generator gen(serve.port(), opt.seed);
  std::uint64_t next_group = 0;
  // Set-up ends when the daemon acknowledges the first attach; that warm-up
  // group is then abandoned (its session idles out at the hub).
  const GroupResult attach = gen.run(next_group++, false, true);
  const double own_setup_s = seconds_since(start_ns);
  if (!attach.ok) report.fail("no kAttachOk from the daemon");
  if (opt.setup_only) {
    report.attempted = 1;
    report.metrics["setup_s"] = own_setup_s;
    report.print();
    return report.correct ? 0 : 1;
  }
  for (const auto& [k, v] : host_fingerprint()) report.context_text[k] = v;
  report.context_numbers["host.ref_ms"] = host_ref_ms();
  // One untimed group fills the generator's and the daemon's buffers.
  (void)gen.run(next_group++, false);

  const double cpu0 = serve.cpu_us();
  std::vector<GroupResult> plain;  // untraced groups
  std::vector<GroupResult> spanned;
  std::vector<double> window_p50, window_p90, window_rate;
  double setup_s = own_setup_s;
  LayerTotals totals;
  AllocTally plain_allocs;
  if (!traced) {
    SetupProbes probes(opt.args);
    double measured_s = 0.0;
    for (std::size_t w = 0; w < kWindows; ++w) {
      const std::size_t first = plain.size();
      const std::int64_t t0 = now_ns();
      while (seconds_since(t0) < opt.seconds / kWindows)
        plain.push_back(run_group(gen, next_group, false, report));
      const double wall_s = seconds_since(t0);
      measured_s += wall_s;
      const std::vector<double> ms = ttk_samples(plain, first);
      window_p50.push_back(percentile(ms, 0.5));
      window_p90.push_back(percentile(ms, 0.9));
      window_rate.push_back(static_cast<double>(ms.size()) / wall_s);
      // A probe starts on the CPUs this run started on, so it pins its
      // generator and daemon apart as the run did.
      (void)sched_setaffinity(0, sizeof run_cpus, &run_cpus);
      probes.catch_up(measured_s);
      if (!cpus.empty()) pin_to(cpus[0]);
    }
    setup_s = probes.median_with(own_setup_s);
    report.context_numbers["setup_samples"] =
        static_cast<double>(probes.count() + 1);
  } else {
    const auto drain_spans = [&] {
      totals.add(summarize_spans());
      if (!opt.trace_out.empty() && spanned.size() <= kSpanBatch)
        write_spans(opt.trace_out, "daemon", opt.seed);
      clear_spans();
    };
    const std::int64_t t0 = now_ns();
    while (seconds_since(t0) < opt.seconds) {
      const AllocTally a0 = thread_alloc_tally();
      plain.push_back(run_group(gen, next_group, false, report));
      const AllocTally a1 = thread_alloc_tally();
      plain_allocs.calls += a1.calls - a0.calls;
      plain_allocs.bytes += a1.bytes - a0.bytes;
      spanned.push_back(run_group(gen, next_group, true, report));
      if (spanned.size() % kSpanBatch == 0) drain_spans();
    }
    if (spanned.size() % kSpanBatch != 0) drain_spans();
  }
  const double cpu_us = serve.cpu_us() - cpu0;
  const double rss = peak_rss_mb(serve.pid());
  serve.stop();

  // Time-to-key and per-group counts come from the untraced groups.
  const std::vector<double> ttk = ttk_samples(plain);
  std::uint64_t failed = 0, completed = 0, keyless = 0, timer_sends = 0;
  std::uint64_t dgrams = 0;
  double key_bytes = 0.0;
  for (const std::vector<GroupResult>* part : {&plain, &spanned})
    for (const GroupResult& g : *part) {
      failed += !g.ok;
      completed += g.ok;
      keyless += g.ok && g.key_bytes == 0;
    }
  for (const GroupResult& g : plain) {
    timer_sends += g.timer_sends;
    dgrams += g.dgrams;
    key_bytes += static_cast<double>(g.key_bytes);
  }
  const double groups = static_cast<double>(plain.size());
  report.attempted = plain.size() + spanned.size();
  if (ttk.empty()) report.fail("no group completed");
  if (static_cast<double>(keyless) >
      kMaxKeylessShare * static_cast<double>(completed)) {
    report.fail(std::to_string(keyless) + " of " + std::to_string(completed) +
                " groups agreed on an empty key");
    failed += keyless;
  }
  report.failed = failed;
  report.context_numbers["ttk_samples"] = static_cast<double>(ttk.size());
  report.context_numbers["groups_keyless"] = static_cast<double>(keyless);
  report.context_numbers["key_bytes_per_group"] =
      groups > 0 ? key_bytes / groups : 0.0;
  report.context_numbers["netd.ttk_ms_p99"] = percentile(ttk, 0.99);
  report.context_numbers["netd.timer_sends"] = static_cast<double>(timer_sends);
  report.context_numbers["netd.dgrams_per_group"] =
      groups > 0 ? static_cast<double>(dgrams) / groups : 0.0;

  if (!traced) {
    report.context_text["window_p50_ms"] = joined(window_p50, "%.3f");
    report.context_text["window_p90_ms"] = joined(window_p90, "%.3f");
    report.context_text["window_groups_per_s"] = joined(window_rate, "%.1f");
    report.metrics["ttk_ms_p50"] = percentile(window_p50, kTimeQ);
    report.metrics["ttk_ms_p90"] = percentile(window_p90, kTimeQ);
    report.metrics["cases_per_s"] = percentile(window_rate, kRateQ);
    report.context_numbers["ttk_ms_p50_all"] = percentile(ttk, 0.5);
    report.context_numbers["ttk_ms_p90_all"] = percentile(ttk, 0.9);
    report.metrics["setup_s"] = setup_s;
    report.metrics["peak_rss_mb"] = rss;
    std::fprintf(stderr,
                 "daemon: %zu groups, ttk p50 %.3f ms p90 %.3f ms p99 %.3f "
                 "ms, %.1f dgrams/group, %llu timer sends, %llu keyless, "
                 "setup %.4f s\n",
                 plain.size(), report.metrics["ttk_ms_p50"],
                 report.metrics["ttk_ms_p90"],
                 report.context_numbers["netd.ttk_ms_p99"],
                 report.context_numbers["netd.dgrams_per_group"],
                 static_cast<unsigned long long>(timer_sends),
                 static_cast<unsigned long long>(keyless), setup_s);
  } else {
    // Span totals are per traced group; everything else per untraced one.
    const double client = totals.self_ms["netd.client"] * 1e3;
    const double io = totals.self_ms["netd.io"] * 1e3;
    const double wall = totals.root_ms * 1e3;
    const double traced_groups = static_cast<double>(spanned.size());
    auto& m = report.metrics;
    m["netd.dgrams"] = static_cast<double>(dgrams) / groups;
    m["netd.timer_sends"] = static_cast<double>(timer_sends) / groups;
    m["netd.daemon_cpu_us"] =
        cpu_us / static_cast<double>(plain.size() + spanned.size());
    m["netd.client_us"] = client / traced_groups;
    m["netd.io_us"] = io / traced_groups;
    m["netd.wait_us"] = (wall - client - io) / traced_groups;
    m["netd.ttk_ms_p99"] = percentile(ttk, 0.99);
    m["alloc.calls"] = static_cast<double>(plain_allocs.calls) / groups;
    m["alloc.mb"] = static_cast<double>(plain_allocs.bytes) / groups / 1e6;
    m["host.ref_ms"] = report.context_numbers["host.ref_ms"];
    m["trace.coverage"] =
        wall > 0.0 ? 1.0 - totals.self_ms["glue"] * 1e3 / wall : 0.0;
    const double plain_p50 = percentile(ttk, 0.5);
    m["trace.overhead"] =
        plain_p50 > 0.0
            ? percentile(ttk_samples(spanned), 0.5) / plain_p50 - 1.0
            : 0.0;
    report.context_numbers["spans"] = static_cast<double>(totals.spans);
    std::fprintf(stderr,
                 "daemon traced: %zu traced groups (and %zu untraced), %.0f "
                 "spans per group, ttk p50 overhead %+.1f%%, p99 %.3f ms over "
                 "%zu samples\n"
                 "  per group: client %.1f us, io %.1f us, wait %.1f us, "
                 "daemon cpu %.1f us, %.1f dgrams, %.2f timer sends, %.0f "
                 "allocations\n",
                 spanned.size(), plain.size(),
                 static_cast<double>(totals.spans) / traced_groups,
                 m["trace.overhead"] * 100.0, m["netd.ttk_ms_p99"], ttk.size(),
                 m["netd.client_us"], m["netd.io_us"], m["netd.wait_us"],
                 m["netd.daemon_cpu_us"], m["netd.dgrams"],
                 m["netd.timer_sends"], m["alloc.calls"]);
  }
  report.print();
  return report.correct ? 0 : 1;
}

}  // namespace perfbench
