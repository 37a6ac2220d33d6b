#pragma once
// Thin RAII + error-handling wrappers over BSD UDP sockets, shared by the
// daemon, the blocking client runner and the bench's client pool. IPv4
// only (the daemon is a loopback/LAN tool).

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <netinet/in.h>

namespace thinair::netd {

/// An owned non-blocking UDP socket.
class UdpSocket {
 public:
  UdpSocket() = default;
  ~UdpSocket();
  UdpSocket(UdpSocket&& other) noexcept;
  UdpSocket& operator=(UdpSocket&& other) noexcept;
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  /// Open and bind to host:port (port 0 = kernel-assigned). Non-blocking.
  /// Throws std::system_error on failure.
  static UdpSocket bind(const std::string& host, std::uint16_t port);

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] std::uint16_t local_port() const;

  /// sendto(); returns false on EAGAIN (datagram dropped — UDP semantics,
  /// the ARQ layers recover). Throws on hard errors.
  bool send_to(const sockaddr_in& to, std::span<const std::uint8_t> bytes);

  /// Non-blocking recvfrom() into `buf` (resized to the datagram, which
  /// may be as large as kMaxDatagram). Returns false when nothing is
  /// pending.
  bool recv_from(std::vector<std::uint8_t>& buf, sockaddr_in& from);

  /// Block up to timeout_ms until recv_from() has something to report: a
  /// datagram or a socket error. Returns false on timeout or when a signal
  /// interrupts the wait; throws std::system_error when poll fails
  /// otherwise.
  bool wait_readable(int timeout_ms);

 private:
  explicit UdpSocket(int fd) : fd_(fd) {}
  int fd_ = -1;
};

/// Resolve a dotted-quad (or "localhost") + port to a sockaddr_in. Throws
/// std::invalid_argument on unparseable input.
[[nodiscard]] sockaddr_in make_addr(const std::string& host,
                                    std::uint16_t port);

}  // namespace thinair::netd
