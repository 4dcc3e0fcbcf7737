// Per-server request metrics, each kept once, in this server's own
// obs::Registry: request, error and overload counts, the latency
// histogram, and the in-flight, admission and SLO gauges.  The `stats`
// request reads them through snapshot() and `metricsdump` prints the
// registry, so both channels read the same objects.  Writers increment
// the counter they mean: one relaxed atomic add, no lock.  Percentiles
// for the wire StatsBody come from a ring of recent latency samples and
// are computed lazily at snapshot time.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"
#include "server/protocol.hpp"

namespace vppb::server {

class Metrics {
 public:
  /// Latency reservoir size; public so tests can exercise wrap-around.
  static constexpr std::size_t kMaxSamples = 1 << 16;

  Metrics();
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  /// This server's families.  Declared first: the references below
  /// point into it.
  obs::Registry registry;

  obs::Counter& requests;               ///< every received request
  obs::Counter& errors;                 ///< responses with kError
  obs::Counter& overloads;              ///< admission rejections
  obs::Counter& deadlines;              ///< responses with kDeadlineExceeded
  obs::Counter& budget_kills;           ///< responses with kBudgetExceeded
  obs::Counter& poisoned;               ///< responses with kPoisoned
  obs::Counter& watchdog_cancels;       ///< overdue runs cancelled
  obs::Counter& watchdog_replacements;  ///< wedged workers replaced
  obs::Counter& sampled;                ///< requests carrying a trace_id
  obs::Counter& auth_failures;  ///< TCP peers rejected by the v8 handshake
  obs::Counter& idle_reaps;     ///< connections closed past the idle deadline
  obs::Histogram& latency_us;   ///< admitted requests, decode to response

  // Gauges the server sets: admission_limit once at construction, the
  // rest whenever it answers a stats, health or dump request.
  obs::Gauge& in_flight;
  obs::Gauge& admission_limit;
  obs::Gauge& slo_latency_burn_5m_milli;  ///< burn x1000 (gauges are integral)
  obs::Gauge& slo_availability_burn_5m_milli;
  obs::Gauge& slo_burning;

  /// Requests by type, indexed by ReqType; the breakdown of `requests`
  /// that only the wire StatsBody carries.
  std::atomic<std::uint64_t> by_type[kReqTypeCount]{};

  /// Counts one received request: the total and its type.
  void count_request(ReqType t);

  /// Records the server-side latency of an executed (admitted) request,
  /// from frame decode to response ready.  Overload rejections are
  /// counted, not timed — their latency is the admission check.
  /// `trace_id`, when nonzero, is captured as the latency histogram
  /// bucket's exemplar.
  void record_latency_us(double us, std::uint64_t trace_id = 0);

  /// Fills the request-side counters and latency percentiles of `out`
  /// (the cache fields are the TraceCache's to fill).
  void snapshot(StatsBody& out) const;

 private:
  mutable std::mutex ring_mu_;  ///< guards the ring only
  std::size_t ring_next_ = 0;
  std::vector<double> ring_;    ///< ring buffer once at kMaxSamples
};

}  // namespace vppb::server
