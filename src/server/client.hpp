// The vppbd client: a blocking request/response call over one
// connection.  Used by `vppb request`, the integration tests, and the
// server benchmark; any other client only needs to reimplement the
// frame layout in protocol.hpp.
//
// call() is the raw single-shot primitive.  call_retry() layers the
// resilience policy on top: transient failures — Status::kOverloaded,
// kQuotaExceeded (sleeping at least its retry_after_ms hint), transport
// errors, receive timeouts — are retried with exponential backoff and
// decorrelated jitter (reconnecting when the transport broke), while
// definitive answers (kOk, kError, kDeadlineExceeded, kBudgetExceeded,
// kPoisoned) return immediately — a budget kill or a quarantine
// rejection will only repeat on retry.  A request that
// missed its deadline is never retried, and the backoff sleeps
// themselves are clamped to the request's remaining deadline_ms budget:
// the deadline is spent, and sleeping past it would double-spend it.
// The jitter PRNG is seeded deterministically so tests replay the same
// backoff schedule.
#pragma once

#include <cstdint>
#include <string>

#include "server/auth.hpp"
#include "server/protocol.hpp"
#include "util/socket.hpp"

namespace vppb::server {

/// Retry/backoff knobs for Client::call_retry.
struct RetryPolicy {
  int max_attempts = 5;          ///< total tries, including the first
  std::int64_t base_ms = 10;     ///< minimum sleep between tries
  std::int64_t cap_ms = 2000;    ///< maximum sleep between tries
  std::uint64_t seed = 1;        ///< jitter PRNG seed (deterministic)
  /// Per-attempt receive timeout; a silent server past this is treated
  /// as a transport failure and retried on a fresh connection.  0 =
  /// wait forever.
  int request_timeout_ms = 0;
  /// Total sleeps performed; call_retry accumulates into it when the
  /// caller wants to observe the schedule (tests).
  std::int64_t slept_ms = 0;
};

class Client {
 public:
  /// `connect_timeout_ms` bounds the connect itself (0 = wait forever);
  /// a black-holed endpoint throws util::SocketTimeout instead of
  /// pinning the caller.
  static Client connect_unix(const std::string& path,
                             int connect_timeout_ms = 0);
  /// TCP connect + the v8 handshake.  The loopback overload reads the
  /// ambient key ($VPPB_AUTH_KEY, usually unset); the full overload
  /// takes an explicit key for remote/authenticated shards.  Throws
  /// AuthError when the server demands a key we lack (or rejects the
  /// one we have) — definitive, never retried.
  static Client connect_tcp(std::uint16_t port);
  static Client connect_tcp(const std::string& host, std::uint16_t port,
                            const std::string& auth_key,
                            int connect_timeout_ms = 0);

  /// Sends one request and blocks for its response: send() then
  /// receive().  Throws vppb::Error on transport failure (including the
  /// server closing mid-response); request-level failures come back as
  /// Status::kError / kOverloaded responses, not exceptions.
  Response call(const Request& req);

  /// The two halves of call(), for a caller that waits on several
  /// connections at once (util::wait_readable on fd()) before reading.
  void send(const Request& req);
  Response receive();
  int fd() const { return sock_.fd(); }
  /// Bounds each receive: silence past `ms` throws util::SocketTimeout.
  void set_recv_timeout(int ms) { sock_.set_recv_timeout(ms); }

  /// call() plus the retry policy described in the file comment.
  /// Throws the last transport error when every attempt fails; returns
  /// the last kOverloaded response when the server stayed saturated.
  Response call_retry(const Request& req, RetryPolicy& policy);

 private:
  enum class EndpointKind { kUnix, kTcp };

  Client(util::Socket sock, EndpointKind kind, std::string path,
         std::uint16_t port)
      : sock_(std::move(sock)), kind_(kind), path_(std::move(path)),
        port_(port) {}

  void reconnect();

  util::Socket sock_;
  EndpointKind kind_ = EndpointKind::kUnix;
  std::string path_;        ///< Unix socket path (kUnix)
  std::string host_;        ///< TCP host ("" = loopback)
  std::uint16_t port_ = 0;  ///< TCP port (kTcp)
  std::string auth_key_;    ///< carried so reconnect() re-authenticates
  int connect_timeout_ms_ = 0;
};

}  // namespace vppb::server
