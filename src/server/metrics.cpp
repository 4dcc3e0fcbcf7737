#include "server/metrics.hpp"

namespace vppb::server {

Metrics::Metrics()
    : requests(registry.counter("vppb_server_requests_total",
                                "Requests received")),
      errors(registry.counter("vppb_server_errors_total",
                              "Requests that failed with an error status")),
      overloads(registry.counter("vppb_server_overloads_total",
                                 "Requests rejected by admission control")),
      deadlines(registry.counter("vppb_server_deadlines_total",
                                 "Requests that missed their deadline")),
      budget_kills(registry.counter("vppb_server_budget_kills_total",
                                    "Requests stopped by a resource budget")),
      poisoned(registry.counter(
          "vppb_server_poisoned_total",
          "Requests rejected from the poison quarantine")),
      watchdog_cancels(registry.counter(
          "vppb_server_watchdog_cancels_total",
          "Overdue requests cancelled by the watchdog")),
      watchdog_replacements(registry.counter(
          "vppb_server_watchdog_replacements_total",
          "Wedged workers replaced by the watchdog")),
      sampled(registry.counter("vppb_server_sampled_requests_total",
                               "Requests carrying a distributed trace id")),
      auth_failures(registry.counter(
          "vppb_server_auth_failures_total",
          "TCP peers rejected by the authenticated handshake")),
      idle_reaps(registry.counter(
          "vppb_server_idle_reaps_total",
          "Connections closed for idling past the deadline")),
      latency_us(registry.histogram(
          "vppb_server_latency_us",
          "Admitted request latency, decode to response ready",
          obs::latency_us_bounds())),
      in_flight(registry.gauge("vppb_server_in_flight",
                               "Admitted requests currently running")),
      admission_limit(registry.gauge("vppb_server_admission_limit",
                                     "Admission control limit")),
      slo_latency_burn_5m_milli(registry.gauge(
          "vppb_slo_latency_burn_5m_milli",
          "Latency error-budget burn rate over 5m, x1000")),
      slo_availability_burn_5m_milli(registry.gauge(
          "vppb_slo_availability_burn_5m_milli",
          "Availability error-budget burn rate over 5m, x1000")),
      slo_burning(registry.gauge(
          "vppb_slo_burning",
          "1 when a multi-window burn-rate alert is firing")) {}

void Metrics::count_request(ReqType t) {
  requests.inc();
  by_type[static_cast<std::size_t>(t)].fetch_add(1,
                                                 std::memory_order_relaxed);
}

void Metrics::snapshot(StatsBody& out) const {
  out.requests = requests.value();
  for (std::size_t i = 0; i < kReqTypeCount; ++i)
    out.by_type[i] = by_type[i].load(std::memory_order_relaxed);
  out.errors = errors.value();
  out.overloads = overloads.value();
  out.deadlines = deadlines.value();
  out.budget_kills = budget_kills.value();
  out.poisoned = poisoned.value();
  out.watchdog_cancels = watchdog_cancels.value();
  out.watchdog_replacements = watchdog_replacements.value();
  out.sampled_requests = sampled.value();
  out.auth_failures = auth_failures.value();
  out.idle_reaps = idle_reaps.value();
  for (std::size_t i = 0; i < obs::kLatencyBuckets; ++i)
    out.latency_buckets[i] = latency_us.bucket_count(i);
}

}  // namespace vppb::server
