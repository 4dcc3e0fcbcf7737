#include "util/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace vppb::util {
namespace {

[[noreturn]] void fail(const char* what) {
  throw Error(strprintf("%s: %s", what, std::strerror(errno)));
}

Socket new_socket(int domain) {
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");
  Socket s(fd);
#ifdef SO_NOSIGPIPE
  // BSD/macOS: no MSG_NOSIGNAL, suppress SIGPIPE at the socket level.
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#endif
  return s;
}

/// connect(2), retrying EINTR.  A connect interrupted by a signal
/// completes asynchronously, so the retry path waits out EINPROGRESS /
/// EALREADY / "already connected" instead of failing a healthy attempt.
int connect_retry(int fd, const sockaddr* addr, socklen_t len) {
  if (::connect(fd, addr, len) == 0) return 0;
  while (errno == EINTR || errno == EALREADY || errno == EINPROGRESS) {
    pollfd pfd{fd, POLLOUT, 0};
    if (::poll(&pfd, 1, -1) < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    int err = 0;
    socklen_t elen = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &elen) != 0) return -1;
    if (err == 0) return 0;
    errno = err;
  }
  return -1;
}

void set_nonblocking(int fd, bool on) {
  const int fl = ::fcntl(fd, F_GETFL, 0);
  if (fl < 0) fail("fcntl(F_GETFL)");
  const int want = on ? (fl | O_NONBLOCK) : (fl & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, want) != 0) fail("fcntl(F_SETFL)");
}

/// connect(2) bounded by a deadline: the socket goes non-blocking for
/// the attempt and the in-progress connect is polled with the time that
/// remains, so a black-holed address (SYN never answered) fails with
/// ETIMEDOUT after `timeout_ms` instead of sitting in the kernel's
/// minutes-long SYN retry schedule.  `timeout_ms` <= 0 falls back to
/// the unbounded legacy path.  On success the socket is blocking again.
int connect_deadline(int fd, const sockaddr* addr, socklen_t len,
                     int timeout_ms) {
  if (timeout_ms <= 0) return connect_retry(fd, addr, len);
  set_nonblocking(fd, true);
  int rc = ::connect(fd, addr, len);
  if (rc != 0 && errno != EINPROGRESS && errno != EINTR &&
      errno != EALREADY) {
    return -1;
  }
  if (rc != 0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      if (left <= 0) {
        errno = ETIMEDOUT;
        return -1;
      }
      pollfd pfd{fd, POLLOUT, 0};
      const int n = ::poll(&pfd, 1, static_cast<int>(left));
      if (n < 0) {
        if (errno == EINTR) continue;
        return -1;
      }
      if (n == 0) {
        errno = ETIMEDOUT;
        return -1;
      }
      int err = 0;
      socklen_t elen = sizeof(err);
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &elen) != 0) return -1;
      if (err != 0) {
        errno = err;
        return -1;
      }
      break;
    }
  }
  set_nonblocking(fd, false);
  return 0;
}

/// Disables Nagle on a TCP socket.  The framed protocol is small
/// request/response pairs — a 4-byte header plus a payload written
/// back-to-back — and Nagle holds the second write hostage to the
/// peer's delayed ACK (~40 ms per round trip); a proxy hop in the
/// middle would pay that twice per request.  Harmless no-op on
/// AF_UNIX sockets (the setsockopt fails and is deliberately ignored),
/// so accepted sockets of either domain can pass through here.
void set_tcp_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_un unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof(addr.sun_path))
    throw Error("unix socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

sockaddr_in host_addr(const std::string& host, std::uint16_t port) {
  if (host.empty() || host == "localhost") return loopback_addr(port);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw Error("not a numeric IPv4 address (no DNS here): " + host);
  return addr;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown_read() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

void Socket::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

std::size_t Socket::recv_some(void* data, std::size_t n) {
  for (;;) {
    const ssize_t r = ::recv(fd_, data, n, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        throw SocketTimeout("recv timed out waiting for the peer");
      fail("recv");
    }
    return static_cast<std::size_t>(r);
  }
}

void Socket::send_all(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t sent = ::send(fd_, p, n, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        throw SocketTimeout("send timed out: peer not reading");
      fail("send");
    }
    p += sent;
    n -= static_cast<std::size_t>(sent);
  }
}

std::size_t Socket::recv_exact(void* data, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd_, p + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        throw SocketTimeout("recv timed out waiting for the peer");
      fail("recv");
    }
    if (r == 0) break;  // end of stream
    got += static_cast<std::size_t>(r);
  }
  return got;
}

std::size_t Socket::recv_exact_deadline(void* data, std::size_t n,
                                        int deadline_ms) {
  if (deadline_ms <= 0) return recv_exact(data, n);
  auto* p = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  while (got < n) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0)
      throw SocketTimeout(strprintf(
          "recv deadline lapsed with %zu of %zu bytes read", got, n));
    pollfd pfd{fd_, POLLIN, 0};
    const int pn = ::poll(&pfd, 1, static_cast<int>(left));
    if (pn < 0) {
      if (errno == EINTR) continue;
      fail("poll");
    }
    if (pn == 0) continue;  // deadline check at the top of the loop
    const ssize_t r = ::recv(fd_, p + got, n - got, MSG_DONTWAIT);
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
        continue;
      fail("recv");
    }
    if (r == 0) break;  // end of stream
    got += static_cast<std::size_t>(r);
  }
  return got;
}

void Socket::set_recv_timeout(int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0)
    fail("setsockopt(SO_RCVTIMEO)");
}

void Socket::set_send_timeout(int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  if (::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0)
    fail("setsockopt(SO_SNDTIMEO)");
}

void Socket::set_keepalive(int idle_s, int interval_s, int probes,
                           int user_timeout_ms) {
  const int one = 1;
  // Fails (and is ignored) on AF_UNIX sockets, where there is no
  // network to lose a peer to.
  if (::setsockopt(fd_, SOL_SOCKET, SO_KEEPALIVE, &one, sizeof(one)) != 0)
    return;
#ifdef TCP_KEEPIDLE
  ::setsockopt(fd_, IPPROTO_TCP, TCP_KEEPIDLE, &idle_s, sizeof(idle_s));
#endif
#ifdef TCP_KEEPINTVL
  ::setsockopt(fd_, IPPROTO_TCP, TCP_KEEPINTVL, &interval_s,
               sizeof(interval_s));
#endif
#ifdef TCP_KEEPCNT
  ::setsockopt(fd_, IPPROTO_TCP, TCP_KEEPCNT, &probes, sizeof(probes));
#endif
#ifdef TCP_USER_TIMEOUT
  // Also bounds the time unacked *transmit* data may sit in flight, so
  // a half-open connection dies even when we are the one sending.
  const unsigned int ut = static_cast<unsigned int>(user_timeout_ms);
  ::setsockopt(fd_, IPPROTO_TCP, TCP_USER_TIMEOUT, &ut, sizeof(ut));
#else
  (void)user_timeout_ms;
#endif
}

Socket listen_unix(const std::string& path, int backlog) {
  Socket s = new_socket(AF_UNIX);
  ::unlink(path.c_str());
  const sockaddr_un addr = unix_addr(path);
  if (::bind(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0)
    throw Error(strprintf("bind %s: %s", path.c_str(), std::strerror(errno)));
  if (::listen(s.fd(), backlog) != 0) fail("listen");
  return s;
}

Socket listen_tcp(std::uint16_t& port, int backlog) {
  Socket s = new_socket(AF_INET);
  const int one = 1;
  ::setsockopt(s.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopback_addr(port);
  if (::bind(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0)
    throw Error(strprintf("bind port %u: %s", port, std::strerror(errno)));
  if (::listen(s.fd(), backlog) != 0) fail("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(s.fd(), reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    fail("getsockname");
  port = ntohs(addr.sin_port);
  return s;
}

Socket connect_unix(const std::string& path) {
  return connect_unix(path, 0);
}

Socket connect_unix(const std::string& path, int timeout_ms) {
  Socket s = new_socket(AF_UNIX);
  const sockaddr_un addr = unix_addr(path);
  if (connect_deadline(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr), timeout_ms) != 0) {
    if (errno == ETIMEDOUT)
      throw SocketTimeout(strprintf("connect %s: timed out after %d ms",
                                    path.c_str(), timeout_ms));
    throw Error(strprintf("connect %s: %s", path.c_str(),
                          std::strerror(errno)));
  }
  return s;
}

Socket connect_tcp(std::uint16_t port) {
  return connect_tcp(std::string(), port, 0);
}

Socket connect_tcp(const std::string& host, std::uint16_t port,
                   int timeout_ms) {
  Socket s = new_socket(AF_INET);
  set_tcp_nodelay(s.fd());
  const sockaddr_in addr = host_addr(host, port);
  const char* shown = host.empty() ? "127.0.0.1" : host.c_str();
  if (connect_deadline(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr), timeout_ms) != 0) {
    if (errno == ETIMEDOUT)
      throw SocketTimeout(strprintf("connect %s:%u: timed out after %d ms",
                                    shown, port, timeout_ms));
    throw Error(strprintf("connect %s:%u: %s", shown, port,
                          std::strerror(errno)));
  }
  return s;
}

Socket accept_with_timeout(Socket& listener, int timeout_ms) {
  pollfd pfd{listener.fd(), POLLIN, 0};
  const int n = ::poll(&pfd, 1, timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return Socket();
    fail("poll");
  }
  if (n == 0) return Socket();
  const int fd = ::accept(listener.fd(), nullptr, nullptr);
  if (fd < 0) {
    if (errno == EINTR || errno == ECONNABORTED) return Socket();
    fail("accept");
  }
  set_tcp_nodelay(fd);  // no-op for AF_UNIX listeners
  return Socket(fd);
}

std::vector<std::size_t> wait_readable(const std::vector<int>& fds,
                                       int timeout_ms) {
  std::vector<pollfd> pfds;
  pfds.reserve(fds.size());
  for (const int fd : fds) pfds.push_back(pollfd{fd, POLLIN, 0});
  const int n = ::poll(pfds.data(), pfds.size(), timeout_ms);
  if (n < 0 && errno != EINTR) fail("poll");
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; n > 0 && i < pfds.size(); ++i)
    if (pfds[i].revents != 0) ready.push_back(i);
  return ready;
}

bool peer_hung_up(int fd) {
  pollfd pfd{fd, POLLRDHUP, 0};
  return ::poll(&pfd, 1, 0) > 0 &&
         (pfd.revents & (POLLRDHUP | POLLHUP | POLLERR)) != 0;
}

std::pair<Socket, Socket> socket_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) fail("socketpair");
  return {Socket(fds[0]), Socket(fds[1])};
}

}  // namespace vppb::util
