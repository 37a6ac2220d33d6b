// micro_daemon — thinaird under session load.
//
// Starts one daemon (real UDP on loopback) and drives N concurrent
// two-party key-agreement sessions against it from a multiplexed client
// pool: one non-blocking socket per terminal, all serviced by a single
// epoll loop, every session in flight at once. Writes BENCH_daemon.json:
//
//   sessions, completed, p50/p99 time-to-key, sessions/sec, epoll
//
// and exits nonzero unless every session completed with matching keys —
// so the CI smoke run doubles as a correctness check. Defaults to 1000
// concurrent sessions (the load target); --sessions overrides.
//
//   usage: micro_daemon [--sessions K] [--packets N] [--deadline SEC]

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "netd/daemon.h"
#include "netd/node_session.h"
#include "netd/poller.h"
#include "netd/udp.h"
#include "report.h"
#include "util/parse.h"

namespace {

using namespace thinair;

double monotonic_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::size_t sessions = 1000;
  std::size_t packets = 12;  // N per round; small keeps the focus on the
                             // daemon's relay path, not GF(2^8) math
  double deadline_s = 120.0;
  // Filled in by clamp_to_fd_limit before the run starts.
  std::size_t requested_sessions = 0;
  std::size_t fd_limit = 0;
  bool fd_clamped = false;
};

// The client pool opens one socket per terminal (2 per session), so an
// unchecked --sessions dies on EMFILE mid-run — after the daemon thread
// is up and half the pool is built. Probe RLIMIT_NOFILE up front: raise
// the soft limit to the hard limit if that is enough, otherwise clamp
// the session count (loudly) so the run completes and reports honestly.
// Records the limit in effect and whether sessions shrank in `opt`.
void clamp_to_fd_limit(Options& opt) {
  opt.requested_sessions = opt.sessions;
  // daemon socket + epoll fd + stdio + JSON output + slack
  constexpr std::size_t kOverheadFds = 16;
  rlimit rl{};
  if (getrlimit(RLIMIT_NOFILE, &rl) != 0) return;
  const std::size_t needed = opt.sessions * 2 + kOverheadFds;
  if (rl.rlim_cur < needed && rl.rlim_max > rl.rlim_cur) {
    rlimit raised = rl;
    raised.rlim_cur = rl.rlim_max == RLIM_INFINITY
                          ? static_cast<rlim_t>(needed)
                          : std::min<rlim_t>(rl.rlim_max,
                                             static_cast<rlim_t>(needed));
    if (setrlimit(RLIMIT_NOFILE, &raised) == 0) rl = raised;
  }
  const std::size_t limit = static_cast<std::size_t>(rl.rlim_cur);
  opt.fd_limit = limit;
  if (limit < needed) {
    const std::size_t fit = limit > kOverheadFds ? (limit - kOverheadFds) / 2
                                                 : 0;
    std::fprintf(stderr,
                 "micro_daemon: WARNING: RLIMIT_NOFILE=%zu cannot hold %zu "
                 "sessions (2 fds each + %zu overhead); clamping --sessions "
                 "%zu -> %zu. Raise `ulimit -n` to run the full load.\n",
                 limit, opt.sessions, kOverheadFds, opt.sessions, fit);
    opt.sessions = fit;
    opt.fd_clamped = true;
  }
}

// One terminal: its socket, its protocol state machine, its timing.
struct ClientSlot {
  netd::UdpSocket socket;
  std::unique_ptr<netd::NodeSession> session;
  std::size_t session_index = 0;
  bool counted_done = false;
};

struct SessionTiming {
  double start_s = 0.0;
  double done_s = -1.0;
  std::size_t nodes_done = 0;
};

int run_bench(const Options& opt) {
  netd::DaemonConfig dconfig;
  dconfig.hub.seed = 2026;
  dconfig.hub.idle_timeout_s = opt.deadline_s;  // no expiry under load
  netd::Daemon daemon(dconfig);
  std::thread daemon_thread([&daemon] { daemon.run(); });
  const sockaddr_in daemon_addr = netd::make_addr("127.0.0.1", daemon.port());

  // Build the client pool: two terminals per session, one socket each,
  // all registered with one poller.
  const std::size_t n_clients = opt.sessions * 2;
  std::vector<ClientSlot> clients;
  clients.reserve(n_clients);
  std::vector<SessionTiming> timings(opt.sessions);
  netd::Poller poller;
  std::vector<std::size_t> by_fd;  // fd -> client index
  for (std::size_t s = 0; s < opt.sessions; ++s) {
    for (std::uint16_t node = 0; node < 2; ++node) {
      netd::NodeConfig nc;
      nc.session_id = 1 + s;
      nc.node = node;
      nc.members = 2;
      nc.x_packets_per_round = opt.packets;
      nc.payload_bytes = 16;
      nc.rounds = 1;
      nc.payload_seed = 0x1000 + s * 2 + node;
      // Under thousands of in-flight sessions one relay can take a while;
      // keep retransmits patient so the daemon is load-tested, not DoSed.
      nc.rto_s = 0.25;
      nc.probe_s = 1.0;
      nc.max_retries = static_cast<std::size_t>(opt.deadline_s / nc.rto_s);
      ClientSlot slot;
      slot.socket = netd::UdpSocket::bind("127.0.0.1", 0);
      slot.session = std::make_unique<netd::NodeSession>(nc);
      slot.session_index = s;
      const int fd = slot.socket.fd();
      poller.add(fd);
      if (static_cast<std::size_t>(fd) >= by_fd.size())
        by_fd.resize(fd + 1, SIZE_MAX);
      by_fd[fd] = clients.size();
      clients.push_back(std::move(slot));
    }
  }

  const double t0 = monotonic_s();
  for (std::size_t s = 0; s < opt.sessions; ++s) timings[s].start_s = t0;

  std::vector<std::uint8_t> dgram;
  const auto flush = [&](ClientSlot& c) {
    while (c.session->poll_datagram(dgram))
      (void)c.socket.send_to(daemon_addr, dgram);
  };
  for (ClientSlot& c : clients) {
    c.session->start(t0);
    flush(c);
  }

  std::size_t done_clients = 0;
  std::size_t failed = 0;
  const auto note_progress = [&](ClientSlot& c, double now) {
    if (c.counted_done || !(c.session->done() || c.session->failed())) return;
    c.counted_done = true;
    ++done_clients;
    if (c.session->failed()) {
      ++failed;
      std::fprintf(stderr, "session %zu node failed: %s\n", c.session_index,
                   c.session->error().c_str());
      return;
    }
    SessionTiming& t = timings[c.session_index];
    if (++t.nodes_done == 2) t.done_s = now;
  };

  std::vector<int> ready;
  sockaddr_in from{};
  double last_tick = t0;
  while (done_clients < n_clients) {
    double now = monotonic_s();
    if (now - t0 > opt.deadline_s) break;
    ready.clear();
    poller.wait(20, ready);
    now = monotonic_s();
    for (const int fd : ready) {
      ClientSlot& c = clients[by_fd[static_cast<std::size_t>(fd)]];
      while (c.socket.recv_from(dgram, from))
        c.session->on_datagram(dgram, now);
      flush(c);
      note_progress(c, now);
    }
    if (now - last_tick >= 0.05) {
      last_tick = now;
      for (ClientSlot& c : clients) {
        if (c.counted_done) continue;
        c.session->on_tick(now);
        flush(c);
        note_progress(c, now);
      }
    }
  }
  const double wall_s = monotonic_s() - t0;

  daemon.stop();
  daemon_thread.join();

  // Completed = both nodes done AND keys byte-identical. A zero-length
  // key is a legitimate outcome (the estimator judged the round to carry
  // no extractable secrecy), so count agreement, and report how many
  // sessions actually extracted bits.
  std::size_t completed = 0;
  std::size_t with_secret = 0;
  std::vector<double> ttk_ms;
  for (std::size_t s = 0; s < opt.sessions; ++s) {
    const SessionTiming& t = timings[s];
    if (t.done_s < 0.0) continue;
    const auto& a = *clients[s * 2].session;
    const auto& b = *clients[s * 2 + 1].session;
    if (a.secret() != b.secret()) {
      std::fprintf(stderr, "session %zu: key mismatch\n", s);
      ++failed;
      continue;
    }
    ++completed;
    if (!a.secret().empty()) ++with_secret;
    ttk_ms.push_back((t.done_s - t.start_s) * 1e3);
  }
  std::sort(ttk_ms.begin(), ttk_ms.end());
  const auto pct = [&](double p) {
    if (ttk_ms.empty()) return 0.0;
    const std::size_t i = static_cast<std::size_t>(
        p * static_cast<double>(ttk_ms.size() - 1) + 0.5);
    return ttk_ms[i];
  };
  const double p50 = pct(0.50), p99 = pct(0.99);
  const double rate = wall_s > 0.0 ? completed / wall_s : 0.0;
  const netd::HubStats& hs = daemon.hub().stats();

  bench::Report report("daemon");
  report.count("sessions", opt.sessions)
      .count("requested_sessions", opt.requested_sessions)
      .count("fd_limit", opt.fd_limit)
      .flag("fd_clamped", opt.fd_clamped)
      .count("completed", completed)
      .count("with_nonzero_secret", with_secret)
      .count("x_packets_per_round", opt.packets)
      .num("p50_time_to_key_ms", p50, 2)
      .num("p99_time_to_key_ms", p99, 2)
      .num("sessions_per_s", rate, 1)
      .num("wall_s", wall_s, 2)
      .count("datagrams_in", hs.datagrams_in.load())
      .count("frames_relayed", hs.frames_relayed.load())
      .flag("epoll", daemon.using_epoll());
  if (report.write() != 0) return 1;

  std::fprintf(stderr,
               "micro_daemon: %zu/%zu sessions, p50 %.1f ms, p99 %.1f ms, "
               "%.0f sessions/s, %.2fs wall (%s)\n",
               completed, opt.sessions, p50, p99, rate, wall_s,
               daemon.using_epoll() ? "epoll" : "poll");
  if (completed != opt.sessions || failed != 0) {
    std::fprintf(stderr, "micro_daemon: FAILED (%zu incomplete, %zu failed)\n",
                 opt.sessions - completed, failed);
    return 1;
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: micro_daemon [--sessions K] [--packets N] "
               "[--deadline SEC]   (1 <= K <= 1000000; N >= 1; "
               "0 < SEC <= 86400)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  constexpr std::uint64_t kMax = std::numeric_limits<std::size_t>::max();
  // Two fds per session put any larger count past every RLIMIT_NOFILE, and
  // the cap keeps clamp_to_fd_limit's sessions * 2 from wrapping. The
  // deadline cap keeps deadline_s / rto_s a representable retry count.
  constexpr std::uint64_t kMaxSessions = 1'000'000;
  constexpr double kMaxDeadlineS = 86400.0;
  for (int i = 1; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string_view value = argv[i + 1];
    std::uint64_t n = 0;
    double seconds = 0.0;
    if (flag == "--sessions" && util::parse_u64_in(value, 1, kMaxSessions, n)) {
      opt.sessions = n;
    } else if (flag == "--packets" && util::parse_u64_in(value, 1, kMax, n)) {
      opt.packets = n;
    } else if (flag == "--deadline" &&
               util::parse_nonneg_double(value, seconds) && seconds > 0.0 &&
               seconds <= kMaxDeadlineS) {
      opt.deadline_s = seconds;  // also the hub's idle timeout
    } else {
      return usage();
    }
  }
  clamp_to_fd_limit(opt);
  if (opt.sessions == 0) {
    std::fprintf(stderr, "micro_daemon: fd limit too low for any session\n");
    return 1;
  }
  return run_bench(opt);
}
