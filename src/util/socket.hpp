// Minimal blocking-socket helpers for the prediction service.
//
// The server speaks a length-prefixed framed protocol over either a
// Unix-domain socket (the default for a local daemon) or TCP; both
// endpoints only need four operations: listen, connect, send every
// byte, receive an exact count.  This wraps the POSIX calls in RAII and
// vppb::Error so the protocol layer never touches errno directly.
//
// Partition tolerance: every operation that can wait on a remote peer
// takes a bound.  connect_tcp/connect_unix accept a timeout so a
// black-holed address (SYN swallowed by a firewall) fails in bounded
// time instead of pinning the caller for minutes; set_recv_timeout and
// set_send_timeout bound the per-call read/write stalls; set_keepalive
// arms TCP keepalive plus TCP_USER_TIMEOUT so a half-open connection
// (peer host vanished without a FIN) dies deterministically instead of
// lingering until the kernel's multi-hour default gives up.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace vppb::util {

/// Thrown by recv_exact/send_all when a configured timeout lapses with
/// the peer still silent (or its window still closed).  A distinct type
/// so callers can tell "the peer is slow" (retryable) from "the stream
/// is broken".
class SocketTimeout : public Error {
 public:
  explicit SocketTimeout(const std::string& what) : Error(what) {}
};

/// An owned socket file descriptor.  Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  void close();

  /// Half-closes the read side: a peer or another thread blocked in
  /// recv on this socket observes end-of-stream.  The write side stays
  /// open so an in-flight response can still be delivered — this is how
  /// the server drains connections on shutdown.
  void shutdown_read();

  /// Full shutdown of both directions without closing the descriptor —
  /// safe to call from another thread while a pump is blocked in recv
  /// (close() would race on the fd; shutdown only wakes the blocked
  /// call with end-of-stream).
  void shutdown_both();

  /// Receives *up to* `n` bytes — whatever the next recv delivers.
  /// Returns 0 on end-of-stream.  Throws SocketTimeout on a lapsed
  /// receive timeout, vppb::Error on other errors.  For byte pumps that
  /// forward stream data without caring about message boundaries.
  std::size_t recv_some(void* data, std::size_t n);

  /// Sends all `n` bytes (looping over partial sends and EINTR, SIGPIPE
  /// suppressed via MSG_NOSIGNAL / SO_NOSIGPIPE so a vanished peer is an
  /// EPIPE error, never a process-killing signal).  Throws SocketTimeout
  /// when a send timeout (set_send_timeout) lapses with the peer's
  /// receive window still closed, vppb::Error if the peer goes away.
  void send_all(const void* data, std::size_t n);

  /// Receives exactly `n` bytes unless the stream ends first; returns
  /// the number of bytes actually read (0 = clean end-of-stream before
  /// the first byte).  Loops over EINTR.  Throws SocketTimeout when a
  /// receive timeout lapses, vppb::Error on other socket errors.
  std::size_t recv_exact(void* data, std::size_t n);

  /// Bounds every subsequent receive: recv_exact throws SocketTimeout
  /// if no data arrives for `ms` milliseconds (0 = wait forever).
  void set_recv_timeout(int ms);

  /// recv_exact with a *total* deadline over all `n` bytes, independent
  /// of SO_RCVTIMEO.  A peer trickling one byte per timeout window can
  /// hold a per-recv timer open forever; it cannot hold this one.
  /// `deadline_ms` <= 0 degrades to plain recv_exact.  Throws
  /// SocketTimeout when the deadline lapses mid-transfer.
  std::size_t recv_exact_deadline(void* data, std::size_t n,
                                  int deadline_ms);

  /// Bounds every subsequent send: send_all throws SocketTimeout if the
  /// peer's receive window stays closed for `ms` milliseconds (0 = wait
  /// forever).  A peer that accepts a connection and never reads cannot
  /// wedge a writer for longer than this.
  void set_send_timeout(int ms);

  /// Arms TCP keepalive (probe after `idle_s` seconds of silence, every
  /// `interval_s` seconds, `probes` times) and, where the platform
  /// supports it, TCP_USER_TIMEOUT = `user_timeout_ms` so unacked
  /// transmit data also bounds the connection's life.  Together these
  /// make a half-open connection — the peer host gone without a FIN —
  /// die in bounded time.  No-op on AF_UNIX sockets.
  void set_keepalive(int idle_s, int interval_s, int probes,
                     int user_timeout_ms);

 private:
  int fd_ = -1;
};

/// Binds and listens on a Unix-domain socket.  An existing socket file
/// at `path` is removed first: the daemon owns its socket path.
Socket listen_unix(const std::string& path, int backlog = 64);

/// Binds and listens on loopback TCP.  `port` 0 picks an ephemeral
/// port; on return `port` holds the actual bound port.
Socket listen_tcp(std::uint16_t& port, int backlog = 64);

Socket connect_unix(const std::string& path);
Socket connect_tcp(std::uint16_t port);

/// Connects to `host`:`port` ("localhost" or a numeric IPv4 address; no
/// DNS — a resolver stall is exactly the kind of unbounded wait this
/// layer exists to eliminate) with a connect deadline: the attempt runs
/// non-blocking and is polled, so a black-holed address throws
/// SocketTimeout after `timeout_ms` instead of hanging in connect(2).
/// `timeout_ms` <= 0 waits forever (the legacy loopback behaviour).
Socket connect_tcp(const std::string& host, std::uint16_t port,
                   int timeout_ms);

/// connect_unix with the same bounded-connect semantics (a daemon whose
/// accept queue is full can black-hole Unix connects too).
Socket connect_unix(const std::string& path, int timeout_ms);

/// Waits up to `timeout_ms` for a connection on `listener`; returns an
/// invalid Socket on timeout (so an accept loop can poll a stop flag).
Socket accept_with_timeout(Socket& listener, int timeout_ms);

/// Waits up to `timeout_ms` (< 0 = forever) for any of `fds` to turn
/// readable — data, end-of-stream and a socket error all count, since
/// each makes the next receive return at once.  Returns the indices
/// into `fds` that are ready, in order; empty on timeout (or EINTR).
std::vector<std::size_t> wait_readable(const std::vector<int>& fds,
                                       int timeout_ms);

/// Whether the peer of the connected socket `fd` has hung up: closed
/// the connection or shut down its sending side (POLLRDHUP, POLLHUP),
/// or the connection failed (POLLERR).  Does not block.  A
/// shutdown_read() of `fd` itself reads the same as a peer's hang-up.
bool peer_hung_up(int fd);

/// A connected AF_UNIX stream pair, for tests and in-process plumbing.
std::pair<Socket, Socket> socket_pair();

}  // namespace vppb::util
