#pragma once
// thinaird: the UDP face of the session hub.
//
// A single-threaded event loop: one UDP socket, one Poller (epoll with a
// poll fallback), one SessionHub. Datagrams in, hub-addressed datagrams
// out; the daemon's only transport state is the peer book mapping
// (session, node) -> last-seen source address, learned from each client
// datagram and dropped, for every member, when the hub closes the
// session. Every 0.1 s the loop hands the hub a monotonic clock sample
// (SessionHub::on_tick), which expires idle sessions.
//
// The loop is embeddable (tests and the bench run it on a background
// thread via stop()/run(); the CLI runs it on the main thread until
// SIGINT/SIGTERM).

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "netd/hub.h"
#include "netd/poller.h"
#include "netd/udp.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace thinair::netd {

struct DaemonConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = kernel-assigned (see Daemon::port())
  HubConfig hub;
};

class Daemon {
 public:
  /// Binds the socket immediately (throws std::system_error on failure).
  explicit Daemon(DaemonConfig config);

  /// Run the event loop until stop() is called. `on_ready`, when set, is
  /// invoked once the loop is about to enter service (after binding).
  void run(const std::function<void()>& on_ready = {});

  /// Ask a running loop to exit; safe from other threads/signal context.
  void stop() { stop_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] std::uint16_t port() const { return socket_.local_port(); }
  [[nodiscard]] const SessionHub& hub() const { return hub_; }
  [[nodiscard]] bool using_epoll() const { return poller_.using_epoll(); }
  /// Peer-book entries after the loop's latest datagram or prune.
  [[nodiscard]] std::size_t peer_entries() const {
    return peer_entries_.load(std::memory_order_relaxed);
  }

 private:
  void flush(std::vector<Outgoing>& out) THINAIR_REQUIRES(loop_role_);

  DaemonConfig config_;
  UdpSocket socket_;
  Poller poller_;
  SessionHub hub_;  // internally locked (thread-safe for monitors)
  // The peer book belongs to the event-loop thread alone: run() claims
  // loop_role_ for its whole body, so any new code path touching peers_
  // from outside the loop fails -Wthread-safety instead of racing. The
  // only cross-thread entry points are stop() (atomic flag) and the
  // const accessors above, none of which reach loop state.
  util::Role loop_role_;
  std::map<PeerKey, sockaddr_in> peers_ THINAIR_GUARDED_BY(loop_role_);
  std::atomic<std::size_t> peer_entries_{0};  // peers_.size(), for monitors
  std::atomic<bool> stop_{false};
};

}  // namespace thinair::netd
