// vppbd — the resident prediction service.
//
// Threading model: connections come through a FrameListener
// (server/listener.hpp), one IO thread each; the server answers each
// frame through admission control.  The compute itself runs on a shared
// util::ThreadPool of `jobs` workers: the IO thread posts the handler
// and waits for the result, so CPU-bound work is bounded by the pool
// size no matter how many clients connect.  While it waits, the IO
// thread checks its socket once per watchdog interval: a client that
// hangs up has its request cancelled, so no worker computes an answer
// nobody reads.
//
// Admission is a bounded in-flight count, not a queue that grows: a
// request arriving while `admission_limit` requests are admitted (on a
// worker or waiting for one) is answered immediately with
// Status::kOverloaded.  Clients see explicit backpressure instead of
// unbounded latency, and a misbehaving client cannot pile up work.
//
// stop() drains gracefully: the listener's drain (in-flight requests
// finish and their responses are delivered), then the worker tasks and
// the watchdog.  `vppb serve` wires SIGINT/SIGTERM to exactly this.
//
// Resource governance (the hang-proofing layer): every admitted request
// carries a core::RunGuard armed with the server ceilings (max_steps /
// max_sim_ms / max_result_mb / max_wall_ms) and the request's own
// deadline.  The guard is the request's one clock: the handlers check
// it at their checkpoints, the engine polls it per step, and the
// watchdog reads it, so a pathological trace gets a typed
// kBudgetExceeded (a missed deadline, kDeadlineExceeded) instead of
// wedging a worker.  A watchdog thread walks the in-flight requests on
// an interval and escalates: first it cancels an overdue request's
// guard (cooperative), then — if the worker still has not come back
// after the escalation grace — it answers the waiting client itself,
// abandons the worker's late result, records a poison strike against
// the trace, and restores pool capacity via ThreadPool::grow, at most
// kWatchdogMaxReplacements times over the server's life.  Repeated
// strikes on one content key trip the TraceCache quarantine, after
// which the request is rejected kPoisoned before admission — it never
// reaches a worker again until the quarantine decays.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/guard.hpp"
#include "obs/slo.hpp"
#include "obs/timeline.hpp"
#include "server/listener.hpp"
#include "server/metrics.hpp"
#include "server/protocol.hpp"
#include "server/trace_cache.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"

namespace vppb::server {

/// Cap on replacement workers over a server's lifetime, so a storm of
/// wedges cannot grow the pool without bound.
constexpr int kWatchdogMaxReplacements = 4;

struct ServerOptions : ListenerOptions {
  /// Worker threads of the owned pool (0 = all hardware threads), so at
  /// most this many requests compute at once.  Ignored when `pool` is
  /// set.
  int jobs = 0;
  /// Share an existing pool instead of owning one (embedding, tests).
  util::ThreadPool* pool = nullptr;
  /// Maximum admitted (queued-or-running) requests before overload
  /// rejection.
  int admission_limit = 64;
  std::size_t cache_entries = 16;
  std::size_t cache_bytes = 512u << 20;
  /// Fault-injection plan (unowned; must outlive the server).  Null
  /// means "use FaultPlan::global()", i.e. honor $VPPB_FAULT.  Tests
  /// pass their own plan to inject without touching the environment.
  util::FaultPlan* faults = nullptr;

  // --- resource governance (0 = unlimited / disabled) ---
  /// Per-request ceiling on simulated engine steps.
  std::uint64_t max_steps = 0;
  /// Per-request ceiling on simulated time, milliseconds.
  std::int64_t max_sim_ms = 0;
  /// Per-request ceiling on result storage, megabytes.
  std::uint64_t max_result_mb = 0;
  /// Per-request wall-clock ceiling, milliseconds.  This is what the
  /// watchdog enforces for requests without a deadline; without it a
  /// deadline-less request can only be stopped by the other budgets.
  std::int64_t max_wall_ms = 0;
  /// Watchdog scan interval; 0 disables the watchdog thread.
  std::int64_t watchdog_interval_ms = 50;
  /// After cancelling an overdue request, how long the watchdog waits
  /// for the worker to come back before abandoning it (answering the
  /// client itself and replacing the worker).
  std::int64_t watchdog_escalate_ms = 1000;
  /// Poison circuit breaker: strikes (crashes or budget kills on one
  /// content key) before quarantine.  0 disables it.
  int poison_strikes = 3;
  /// Quarantine window after a trip, milliseconds.
  std::int64_t quarantine_ms = 30000;
  /// Per-client fair admission: in-flight requests allowed per client
  /// identity (Request::client_id, falling back to the connection).
  /// 0 disables the per-client check; the global admission_limit always
  /// applies.
  int per_client_limit = 0;

  /// Shard identity reported in health/stats responses (protocol v5).
  /// Assigned by the operator or the cluster launcher; 0 = standalone.
  std::uint64_t shard_id = 0;

  // --- SLO objectives (0 = objective off) ---
  /// Latency objective: p99 of compute requests under this many ms.
  double slo_p99_ms = 0.0;
  /// Availability objective as a success fraction, e.g. 0.999.
  double slo_availability = 0.0;
};

class Server {
 public:
  explicit Server(ServerOptions opt);
  ~Server();  ///< calls stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the endpoint and starts the accept thread.  Throws
  /// vppb::Error when the endpoint cannot be bound.
  void start();

  /// Graceful drain (see file comment).  Idempotent.
  void stop();

  /// Human-readable bound endpoint ("path.sock" or "127.0.0.1:port").
  const std::string& endpoint() const { return listener_.endpoint(); }
  std::uint16_t tcp_port() const { return listener_.tcp_port(); }

  /// Start-time epoch: unique per process start, so a routing tier can
  /// tell "the same shard restarted" (same id, new epoch — cold cache)
  /// from a long-lived healthy backend.  0 before start().
  std::uint64_t epoch() const { return epoch_; }

  TraceCache& cache() { return cache_; }
  Metrics& metrics() { return metrics_; }

 private:
  /// Shared state of one admitted request.  The IO thread waits on it;
  /// the worker delivers into it; the watchdog may cancel it or — when
  /// the worker is wedged — deliver a typed answer in the worker's
  /// stead.  shared_ptr-owned so an abandoned worker can still write
  /// its (discarded) result safely after the waiter has moved on.
  struct ReqState {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;  ///< a response is in resp (under mu)
    Response resp;

    /// The request's budgets and its one clock: deadline and wall
    /// ceiling both count from admission.
    core::RunGuard guard;
    ReqType type = ReqType::kPredict;
    std::string trace_path;
    /// The client closed its connection while waiting: set by the IO
    /// thread before it cancels the guard, so the worker's kCancelled
    /// unwind records no budget kill and no poison strike.
    std::atomic<bool> hung_up{false};
    /// Stage timeline for want_timeline requests.  Stamped by the IO
    /// thread before the post and by the worker during dispatch; the
    /// worker moves it into its Response, so a watchdog-answered
    /// request simply reports no timeline (no racing reader).
    std::unique_ptr<obs::Timeline> timeline;

    // Watchdog-private escalation state (only its thread touches these).
    bool cancelled = false;
    bool abandoned = false;
    std::chrono::steady_clock::time_point cancelled_at{};
  };

  /// The listener's per-frame callback; `fd` is the connection's socket.
  std::vector<std::uint8_t> serve_frame(std::vector<std::uint8_t>& payload,
                                        std::uint64_t conn_id, int fd);
  Response execute(const Request& req, std::uint64_t conn_key, int fd);
  Response dispatch(const Request& req, ReqState& st);
  /// The answer every stats, health, metricsdump and tracedump request
  /// starts from: identity, the request counters and latency, the cache,
  /// the SLO burn rates and verdict.  Also refreshes the point-in-time
  /// gauges of the Metrics registry from the same reading.
  Response stats_response(ReqType type);
  Response health_response();

  core::RunLimits request_limits(const Request& req) const;
  bool client_admit(std::uint64_t client);
  void client_release(std::uint64_t client);
  void watchdog_loop();
  void watchdog_scan(const std::shared_ptr<ReqState>& st);

  ServerOptions opt_;
  util::FaultPlan* faults_ = nullptr;
  std::unique_ptr<util::ThreadPool> owned_pool_;
  util::ThreadPool* pool_ = nullptr;
  TraceCache cache_;
  Metrics metrics_;
  obs::SloTracker slo_;

  std::uint64_t epoch_ = 0;
  std::atomic<int> in_flight_{0};

  std::mutex client_mu_;
  std::unordered_map<std::uint64_t, int> client_in_flight_;

  std::thread watchdog_thread_;
  /// Separate from the listener's running flag: the watchdog must keep
  /// rescuing draining connections after the listener stops.
  std::atomic<bool> watchdog_stop_{false};
  std::mutex watch_mu_;
  std::condition_variable watch_cv_;  ///< wakes the watchdog for stop()
  std::vector<std::shared_ptr<ReqState>> watched_;
  int replacements_made_ = 0;  ///< watchdog thread only

  // Posted-but-unfinished worker tasks; stop() waits for zero so an
  // abandoned task can never outlive the server it captures.
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  int tasks_live_ = 0;

  /// Last: its IO threads call into everything above.
  FrameListener listener_;
};

}  // namespace vppb::server
