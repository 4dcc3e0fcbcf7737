#include "server/client.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace vppb::server {

Client Client::connect_unix(const std::string& path,
                            int connect_timeout_ms) {
  Client c(util::connect_unix(path, connect_timeout_ms),
           EndpointKind::kUnix, path, 0);
  c.connect_timeout_ms_ = connect_timeout_ms;
  return c;
}

Client Client::connect_tcp(std::uint16_t port) {
  // Ambient key: a local tool pointed at an authenticated loopback
  // daemon just exports VPPB_AUTH_KEY and keeps its call sites.
  return connect_tcp(std::string(), port, load_auth_key(std::string()), 0);
}

Client Client::connect_tcp(const std::string& host, std::uint16_t port,
                           const std::string& auth_key,
                           int connect_timeout_ms) {
  Client c(util::connect_tcp(host, port, connect_timeout_ms),
           EndpointKind::kTcp, "", port);
  c.host_ = host;
  c.auth_key_ = auth_key;
  c.connect_timeout_ms_ = connect_timeout_ms;
  AuthConfig cfg;
  cfg.key = auth_key;
  if (connect_timeout_ms > 0) cfg.handshake_timeout_ms = connect_timeout_ms;
  auth_connect(c.sock_, cfg);
  return c;
}

void Client::reconnect() {
  if (kind_ == EndpointKind::kUnix) {
    sock_ = util::connect_unix(path_, connect_timeout_ms_);
    return;
  }
  sock_ = util::connect_tcp(host_, port_, connect_timeout_ms_);
  AuthConfig cfg;
  cfg.key = auth_key_;
  if (connect_timeout_ms_ > 0) cfg.handshake_timeout_ms = connect_timeout_ms_;
  auth_connect(sock_, cfg);
}

Response Client::call(const Request& req) {
  send(req);
  return receive();
}

void Client::send(const Request& req) { write_frame(sock_, encode(req)); }

Response Client::receive() {
  std::vector<std::uint8_t> payload;
  if (!read_frame(sock_, payload))
    throw Error("server closed the connection before responding");
  return decode_response(payload);
}

Response Client::call_retry(const Request& req, RetryPolicy& policy) {
  std::uint64_t rng = policy.seed ? policy.seed : 1;
  std::int64_t prev_sleep = policy.base_ms;
  std::int64_t min_sleep = 0;  ///< retry-after hint from a quota rejection
  Response last;
  bool have_response = false;
  std::exception_ptr last_err;
  const auto t0 = std::chrono::steady_clock::now();
  const int attempts = std::max(1, policy.max_attempts);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::int64_t ms =
          jitter_backoff_ms(prev_sleep, policy.base_ms, policy.cap_ms, rng);
      prev_sleep = ms;
      ms = std::max(ms, min_sleep);
      min_sleep = 0;
      // The backoff schedule must fit inside the request's own deadline:
      // sleeping past it guarantees every further attempt comes back
      // kDeadlineExceeded, a double-spend of a budget already gone.
      if (req.deadline_ms > 0) {
        const std::int64_t elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
        const std::int64_t remaining = req.deadline_ms - elapsed;
        if (remaining <= 0) break;  // budget spent: report what we have
        ms = std::min(ms, remaining);
      }
      policy.slept_ms += ms;
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }
    try {
      if (policy.request_timeout_ms > 0)
        sock_.set_recv_timeout(policy.request_timeout_ms);
      last = call(req);
      have_response = true;
    } catch (const AuthError&) {
      // Definitive: the same key fails the same way on every retry.
      throw;
    } catch (const Error&) {
      // Transport failure (dropped connection, timeout, torn frame):
      // the connection state is unknown — a fresh one is the only safe
      // way to retry.  On the last attempt, let the error surface.
      if (attempt + 1 >= attempts) throw;
      last_err = std::current_exception();
      try {
        reconnect();
      } catch (const AuthError&) {
        throw;  // typed rejection, not an outage — retrying cannot help
      } catch (const Error&) {
        continue;  // endpoint still down; back off and try again
      }
      continue;
    }
    if (last.status != Status::kOverloaded &&
        last.status != Status::kQuotaExceeded)
      return last;
    // Overloaded / quota-exhausted: the server is alive and said
    // "later" — same connection, backoff, retry.  A quota rejection
    // carries the refill time; sleeping less than that guarantees
    // another rejection, so the hint floors the next sleep (still
    // clamped to the request's remaining deadline above).
    if (last.status == Status::kQuotaExceeded && last.retry_after_ms > 0)
      min_sleep = last.retry_after_ms;
  }
  // Out of attempts or out of deadline budget.  With a response in hand
  // (kOverloaded) return it; with nothing but transport failures,
  // surface the most recent one.
  if (!have_response && last_err) std::rethrow_exception(last_err);
  return last;
}

}  // namespace vppb::server
