// Per-server request metrics, each kept once, in this server's own
// obs::Registry: request, error and overload counts, the latency
// histogram, and the in-flight, admission and SLO gauges.  The `stats`
// request reads them through snapshot() and `metricsdump` prints the
// registry, so both channels read the same objects.  Writers increment
// the counter or observe the histogram they mean: relaxed atomics, no
// lock.  The wire StatsBody carries the latency histogram's bucket
// counts; readers take percentiles from them with obs::quantile.
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/metrics.hpp"
#include "server/protocol.hpp"

namespace vppb::server {

class Metrics {
 public:
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
  /// Admitted requests, decode to response ready; `trace_id` of a
  /// sampled request is the bucket's exemplar.  Overload rejections are
  /// counted, not timed: their latency is the admission check.
  obs::Histogram& latency_us;

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

  /// Fills the request-side counters and latency buckets of `out` (the
  /// cache fields are the TraceCache's to fill).
  void snapshot(StatsBody& out) const;
};

}  // namespace vppb::server
