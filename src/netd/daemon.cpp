#include "netd/daemon.h"

#include <chrono>
#include <optional>

namespace thinair::netd {

namespace {

double monotonic_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)),
      socket_(UdpSocket::bind(config_.host, config_.port)),
      hub_(config_.hub) {
  poller_.add(socket_.fd());
}

void Daemon::flush(std::vector<Outgoing>& out) {
  for (const Outgoing& o : out) {
    const auto it = peers_.find(PeerKey{o.session, o.node});
    if (it == peers_.end()) continue;  // member never spoke: nowhere to send
    (void)socket_.send_to(it->second, o.datagram);
  }
  out.clear();
}

void Daemon::run(const std::function<void()>& on_ready) {
  // One loop thread at a time: claim the loop role for the body so every
  // peer-book touch below is statically tied to this region.
  util::RoleLock role(&loop_role_);
  if (on_ready) on_ready();

  std::vector<int> ready;
  std::vector<std::uint8_t> buf;
  std::vector<Outgoing> out;
  sockaddr_in from{};
  double last_tick = monotonic_s();
  double last_prune = last_tick;

  while (!stop_.load(std::memory_order_relaxed)) {
    ready.clear();
    // Short timeout so stop() and the expiry tick are serviced promptly
    // even on a silent socket.
    poller_.wait(50, ready);

    const double now = monotonic_s();
    if (!ready.empty()) {
      // Drain until EAGAIN (level-triggered wake, non-blocking socket).
      while (socket_.recv_from(buf, from)) {
        const std::optional<PeerKey> sender = hub_.on_datagram(buf, now, out);
        if (!sender.has_value()) continue;  // a decode error: no replies
        // Learn/refresh the sender's address before its replies go out.
        peers_[*sender] = from;
        flush(out);
        // Keep entries only while the hub tracks the session: frames for
        // rejected or unknown sessions (spoofed floods included) must not
        // grow the peer book, and a closed session's members are gone at
        // once. The reply, if any, already went out above.
        if (!hub_.has_session(sender->session))
          peers_.erase(peers_.lower_bound(PeerKey{sender->session, 0}),
                       peers_.upper_bound(PeerKey{sender->session, 0xFFFF}));
        peer_entries_.store(peers_.size(), std::memory_order_relaxed);
      }
    }
    if (now - last_tick >= 0.1) {
      hub_.on_tick(now, out);
      flush(out);
      last_tick = now;
    }
    if (now - last_prune >= 5.0) {
      // Drop peer-book entries whose session the hub has since closed.
      for (auto it = peers_.begin(); it != peers_.end();)
        it = hub_.has_session(it->first.session) ? std::next(it)
                                                  : peers_.erase(it);
      peer_entries_.store(peers_.size(), std::memory_order_relaxed);
      last_prune = now;
    }
  }
}

}  // namespace thinair::netd
