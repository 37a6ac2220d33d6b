#include "netd/poller.h"

#include <cerrno>
#include <cstring>
#include <system_error>

#include <poll.h>
#include <unistd.h>

#if defined(__linux__)
#include <sys/epoll.h>
#define THINAIR_HAVE_EPOLL 1
#else
#define THINAIR_HAVE_EPOLL 0
#endif

namespace thinair::netd {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

Poller::Poller() {
#if THINAIR_HAVE_EPOLL
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  // epoll failing is survivable: fall back to poll(2).
#endif
}

Poller::~Poller() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void Poller::add(int fd) {
#if THINAIR_HAVE_EPOLL
  if (epoll_fd_ >= 0) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0)
      throw_errno("epoll_ctl(ADD)");
    return;
  }
#endif
  fallback_.push_back(fd);
}

std::size_t Poller::wait(int timeout_ms, std::vector<int>& ready) {
#if THINAIR_HAVE_EPOLL
  if (epoll_fd_ >= 0) {
    epoll_event events[64];
    const int n = epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) return 0;
      throw_errno("epoll_wait");
    }
    for (int i = 0; i < n; ++i) ready.push_back(events[i].data.fd);
    return static_cast<std::size_t>(n);
  }
#endif
  std::vector<pollfd> fds;
  fds.reserve(fallback_.size());
  for (int fd : fallback_) fds.push_back({fd, POLLIN, 0});
  const int n = ::poll(fds.data(), fds.size(), timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return 0;
    throw_errno("poll");
  }
  std::size_t appended = 0;
  for (const pollfd& p : fds)
    if ((p.revents & POLLIN) != 0) {
      ready.push_back(p.fd);
      ++appended;
    }
  return appended;
}

}  // namespace thinair::netd
