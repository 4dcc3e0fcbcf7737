#include "server/listener.hpp"

#include <unistd.h>

#include <chrono>
#include <thread>

#include "obs/log.hpp"
#include "server/auth.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace vppb::server {

using obs::LogLevel;

/// Bound on each handshake read/write; a peer that connects and then
/// goes silent is dropped after this.
constexpr int kAuthTimeoutMs = 5000;

FrameListener::FrameListener(ListenerOptions opt, const char* component,
                             obs::Counter& auth_failures,
                             obs::Counter& idle_reaps, Handler handler)
    : opt_(std::move(opt)),
      component_(component),
      auth_failures_(auth_failures),
      idle_reaps_(idle_reaps),
      handler_(std::move(handler)) {}

FrameListener::~FrameListener() { stop(); }

void FrameListener::start() {
  if (!opt_.unix_path.empty()) {
    listener_ = util::listen_unix(opt_.unix_path);
    endpoint_ = opt_.unix_path;
  } else {
    port_ = opt_.tcp_port;
    listener_ = util::listen_tcp(port_);
    endpoint_ = strprintf("127.0.0.1:%u", port_);
  }
  running_.store(true);
  accept_thread_ = std::thread(&FrameListener::accept_loop, this);
}

bool FrameListener::stop() {
  if (!running_.exchange(false)) return false;
  accept_thread_.join();
  listener_.close();
  {
    // Half-close every connection's read side: its IO thread finishes
    // the frame it is on, delivers the answer, then sees EOF.
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto& c : conns_) c->sock.shutdown_read();
  }
  // The accept thread is gone, so conns_ is stable from here.
  for (auto& c : conns_) c->thread.join();
  conns_.clear();
  if (!opt_.unix_path.empty()) ::unlink(opt_.unix_path.c_str());
  obs::logf(LogLevel::kInfo, component_, "stopped (drained) on %s",
            endpoint_.c_str());
  return true;
}

void FrameListener::accept_loop() {
  bool failing = false;  // logs the first accept error of a streak only
  while (running_.load()) {
    reap_finished();
    util::Socket s;
    try {
      s = util::accept_with_timeout(listener_, 100);
      failing = false;
    } catch (const Error& e) {
      // Out of fds (or another transient accept failure): the pending
      // peer stays in the backlog, so back off instead of spinning, and
      // let the reap above free the sockets of finished connections.
      if (!failing)
        obs::logf(LogLevel::kWarn, component_, "accept failed: %s", e.what());
      failing = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      continue;
    }
    if (!s.valid()) continue;
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (!running_.load()) break;  // raced with stop(): drop the socket
    conns_.push_back(std::make_unique<Conn>());
    Conn* conn = conns_.back().get();
    conn->sock = std::move(s);
    conn->id = next_conn_id_++;
    conn->thread = std::thread([this, conn]() {
      serve(conn);
      conn->finished.store(true, std::memory_order_release);
    });
  }
}

void FrameListener::reap_finished() {
  std::lock_guard<std::mutex> lock(conn_mu_);
  std::erase_if(conns_, [](const std::unique_ptr<Conn>& c) {
    if (!c->finished.load(std::memory_order_acquire)) return false;
    c->thread.join();  // serve() has returned: the join is immediate
    return true;
  });
}

void FrameListener::serve(Conn* conn) {
  util::Socket& sock = conn->sock;
  if (opt_.unix_path.empty()) {
    try {
      auth_accept(sock, AuthConfig{opt_.auth_key, kAuthTimeoutMs});
      sock.set_keepalive(/*idle_s=*/30, /*interval_s=*/10, /*probes=*/3,
                         /*user_timeout_ms=*/45000);
    } catch (const Error& e) {
      auth_failures_.inc();
      // A wrong key is worth a warning; a peer that drops out of the
      // handshake (a port probe, a dead client) is not.
      obs::logf(dynamic_cast<const AuthError*>(&e) ? LogLevel::kWarn
                                                     : LogLevel::kDebug,
                component_, "handshake failed: %s", e.what());
      sock.shutdown_both();
      return;
    }
  }
  if (opt_.idle_timeout_ms > 0)
    sock.set_recv_timeout(static_cast<int>(opt_.idle_timeout_ms));
  FrameLimits limits;
  if (opt_.max_request_frame_bytes > 0)
    limits.max_bytes = opt_.max_request_frame_bytes;
  limits.frame_deadline_ms = static_cast<int>(opt_.frame_deadline_ms);
  try {
    std::vector<std::uint8_t> payload;
    while (read_frame(sock, payload, limits))
      write_frame(sock, handler_(payload, conn->id, sock.fd()));
  } catch (const util::SocketTimeout& e) {
    // Idle past the deadline, or a started frame trickling in too
    // slowly: the tier owes this peer nothing.
    idle_reaps_.inc();
    obs::logf(LogLevel::kInfo, component_, "idle connection reaped: %s",
              e.what());
  } catch (const Error& e) {
    // Broken framing or a lost peer: the connection is the unit of
    // failure — drop it, the tier lives on.
    obs::logf(LogLevel::kDebug, component_, "connection dropped: %s",
              e.what());
  }
  // The Conn object lives until the accept thread reaps it (or stop()
  // joins it), but the wire must not: shut the socket down now so a
  // peer blocked on recv sees EOF the moment we stop serving it.
  // shutdown (not close) — stop() may concurrently shutdown_read() this
  // fd, and closing here would race that against fd reuse.
  sock.shutdown_both();
}

Response answer_frame(const std::vector<std::uint8_t>& payload,
                      const std::function<Response(const Request&)>& execute) {
  Response resp;
  std::uint64_t trace_id = 0;
  try {
    const Request req = decode_request(payload);
    trace_id = req.trace_id;
    resp = execute(req);
  } catch (const Error& e) {
    resp.status = Status::kError;
    resp.error = e.what();
  }
  resp.trace_id = trace_id;
  return resp;
}

}  // namespace vppb::server
