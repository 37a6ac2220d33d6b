#pragma once
// Readiness polling for the daemon's event loop: epoll on Linux, with a
// portable poll(2) fallback selected at build time (or at runtime when
// epoll_create1 fails, e.g. under exotic sandboxes). The daemon is
// single-threaded and level-triggered: wait() returns the readable fds
// and the loop drains each with non-blocking reads until EAGAIN.

#include <cstdint>
#include <vector>

namespace thinair::netd {

class Poller {
 public:
  Poller();
  ~Poller();

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// Register `fd` for readability. Throws std::system_error on failure.
  void add(int fd);

  /// Block up to `timeout_ms` (-1 = forever) and append every readable fd
  /// to `ready`. Returns the number appended (0 on timeout).
  std::size_t wait(int timeout_ms, std::vector<int>& ready);

  /// True when the epoll backend is active (false = poll fallback).
  [[nodiscard]] bool using_epoll() const { return epoll_fd_ >= 0; }

 private:
  int epoll_fd_ = -1;           // -1 = poll(2) fallback
  std::vector<int> fallback_;   // registered fds for the fallback
};

}  // namespace thinair::netd
