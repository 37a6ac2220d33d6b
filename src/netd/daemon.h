#pragma once
// thinaird: the UDP face of the session hub.
//
// A single-threaded loop over one UDP socket and one SessionHub: each
// datagram goes to the hub with its source address packed into the hub's
// opaque address, and each reply goes out to the address the hub gives
// it. The hub's session table is the only record of where members are;
// the daemon keeps no transport state of its own. Every 0.1 s the loop
// hands the hub a monotonic clock sample (SessionHub::on_tick), which
// expires idle sessions.
//
// The loop is embeddable (tests and the bench run it on a background
// thread via stop()/run(); the CLI runs it on the main thread until
// SIGINT/SIGTERM).

#include <atomic>
#include <cstdint>
#include <string>

#include "netd/hub.h"
#include "netd/udp.h"

namespace thinair::netd {

struct DaemonConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = kernel-assigned (see Daemon::port())
  HubConfig hub;
};

class Daemon {
 public:
  /// Binds the socket immediately (throws std::system_error on failure),
  /// so port() is valid, and clients may send, before run() starts.
  explicit Daemon(const DaemonConfig& config);

  /// Run the event loop until stop() is called. Throws std::system_error
  /// when waiting on or reading the socket fails.
  void run();

  /// Ask a running loop to exit; safe from other threads/signal context.
  void stop() { stop_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] std::uint16_t port() const { return socket_.local_port(); }
  [[nodiscard]] const SessionHub& hub() const { return hub_; }

 private:
  void send(std::vector<Outgoing>& out);

  UdpSocket socket_;
  SessionHub hub_;  // internally locked (thread-safe for monitors)
  std::atomic<bool> stop_{false};
};

}  // namespace thinair::netd
