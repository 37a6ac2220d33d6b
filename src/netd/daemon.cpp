#include "netd/daemon.h"

#include <chrono>

#include <arpa/inet.h>

namespace thinair::netd {

namespace {

double monotonic_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The hub's opaque address for an IPv4 peer: address << 16 | port, both
/// in host byte order.
std::uint64_t pack(const sockaddr_in& addr) {
  return std::uint64_t{ntohl(addr.sin_addr.s_addr)} << 16 |
         ntohs(addr.sin_port);
}

sockaddr_in unpack(std::uint64_t address) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(static_cast<std::uint32_t>(address >> 16));
  addr.sin_port = htons(static_cast<std::uint16_t>(address));
  return addr;
}

}  // namespace

Daemon::Daemon(const DaemonConfig& config)
    : socket_(UdpSocket::bind(config.host, config.port)), hub_(config.hub) {}

void Daemon::send(std::vector<Outgoing>& out) {
  for (const Outgoing& o : out) (void)socket_.send_to(unpack(o.to), o.datagram);
  out.clear();
}

void Daemon::run() {
  std::vector<std::uint8_t> buf;
  std::vector<Outgoing> out;
  sockaddr_in from{};
  double last_tick = monotonic_s();

  while (!stop_.load(std::memory_order_relaxed)) {
    // Short timeout so stop() and the expiry tick are serviced promptly
    // even on a silent socket.
    const bool readable = socket_.wait_readable(50);
    const double now = monotonic_s();
    // Drain until EAGAIN (the socket is non-blocking).
    while (readable && socket_.recv_from(buf, from)) {
      hub_.on_datagram(buf, pack(from), now, out);
      send(out);
    }
    if (now - last_tick >= 0.1) {
      hub_.on_tick(now, out);
      send(out);
      last_tick = now;
    }
  }
}

}  // namespace thinair::netd
