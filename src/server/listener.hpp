// The accept path of every serving tier: vppbd (server::Server) and the
// cluster proxy (cluster::Proxy) each own one FrameListener and give it
// a per-frame callback.  One accept thread polls the listener; each
// connection gets an IO thread that reads one frame at a time, hands it
// to the callback and writes the answer before reading the next.  A TCP
// peer must pass the v8 handshake before its first frame is read, then
// gets keepalive probing (a half-open peer dies in ~45 s, not after the
// kernel's hours); Unix sockets skip both, the socket file's permissions
// being the local trust boundary.  The other defenses are the
// ListenerOptions below.  Rejections and reaps count into the owner's
// counters, under the owner's metric names.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "server/protocol.hpp"
#include "util/socket.hpp"

namespace vppb::server {

/// Where a tier listens and how it defends its accept path.
/// ServerOptions and cluster::ProxyOptions both inherit these fields.
struct ListenerOptions {
  /// Unix-domain socket path; preferred when non-empty (any stale
  /// socket file is replaced).
  std::string unix_path;
  /// Loopback TCP port, used when unix_path is empty.  0 = ephemeral
  /// (read the bound port from tcp_port() after start()).
  std::uint16_t tcp_port = 0;
  /// Shared key for the TCP handshake.  Empty = open listener: the
  /// challenge still flows, with proof optional.  Unix sockets never
  /// authenticate, so the loopback digest baseline stays byte-identical.
  std::string auth_key;
  /// Idle-connection reap: a connection with no new frame for this many
  /// milliseconds is closed (slowloris defense).  0 = never reap,
  /// preserving the long-lived-idle-client behaviour local tools rely
  /// on.
  std::int64_t idle_timeout_ms = 0;
  /// Total time a *started* frame may take to arrive before the
  /// connection is dropped (defeats one-byte-per-window trickling).
  /// 0 = unbounded.
  std::int64_t frame_deadline_ms = 0;
  /// Ceiling on accepted request frames, bytes (hostile peers should
  /// not get to pick allocation sizes up to the full 64 MiB protocol
  /// cap).  0 = the protocol cap.
  std::size_t max_request_frame_bytes = 0;
};

class FrameListener {
 public:
  /// Answers one request frame (which it may modify) with the response
  /// frame's bytes; `conn_id` numbers the connection in accept order
  /// from 1, and `fd` is its socket, for util::peer_hung_up while the
  /// answer is computed.  Throwing vppb::Error drops the connection.
  using Handler = std::function<std::vector<std::uint8_t>(
      std::vector<std::uint8_t>& payload, std::uint64_t conn_id, int fd)>;

  /// `component` names the owner in log lines.  Rejected handshakes
  /// count into `auth_failures`, reaped connections into `idle_reaps`;
  /// both must outlive the listener.
  FrameListener(ListenerOptions opt, const char* component,
                obs::Counter& auth_failures, obs::Counter& idle_reaps,
                Handler handler);
  ~FrameListener();  ///< calls stop()

  FrameListener(const FrameListener&) = delete;
  FrameListener& operator=(const FrameListener&) = delete;

  /// Binds the endpoint and starts the accept thread.  Throws
  /// vppb::Error when the endpoint cannot be bound.
  void start();
  /// Graceful drain: stop accepting, half-close the read side of every
  /// connection (the frame in progress is answered), join, unlink the
  /// unix socket.  Returns false, doing nothing, when not running.
  bool stop();

  bool running() const { return running_.load(); }
  /// Human-readable bound endpoint ("path.sock" or "127.0.0.1:port").
  const std::string& endpoint() const { return endpoint_; }
  /// The bound TCP port; the kernel's pick when tcp_port was 0.
  std::uint16_t tcp_port() const { return port_; }

 private:
  struct Conn {
    util::Socket sock;
    std::thread thread;
    std::uint64_t id = 0;
    std::atomic<bool> finished{false};  ///< serve() has returned
  };

  void accept_loop();
  void reap_finished();
  void serve(Conn* conn);

  const ListenerOptions opt_;
  const char* const component_;
  obs::Counter& auth_failures_;
  obs::Counter& idle_reaps_;
  const Handler handler_;

  util::Socket listener_;
  std::string endpoint_;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::uint64_t next_conn_id_ = 1;  ///< accept thread only

  std::mutex conn_mu_;
  /// Live connections: one is joined and dropped, socket closed, within
  /// one accept poll (100 ms) of its serve() returning.
  std::vector<std::unique_ptr<Conn>> conns_;
  std::thread accept_thread_;
};

/// The step both tiers take per request frame: decode it and run it
/// through `execute`.  An undecodable request, or an Error out of
/// `execute`, is answered with a typed kError: the framing is intact,
/// so the connection lives on.  The answer always carries the caller's
/// trace id, whatever id a cached or stale response was stored with.
Response answer_frame(const std::vector<std::uint8_t>& payload,
                      const std::function<Response(const Request&)>& execute);

}  // namespace vppb::server
