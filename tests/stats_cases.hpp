// A StatsBody with every field set, shared by the pinned v9 stats-bytes
// test (test_server) and the merge-rule test (test_cluster).  It names
// each field by hand on purpose: those tests check
// server::for_each_stats_field, so they must not fill their input by
// walking it.
#pragma once

#include <cstdint>

#include "server/protocol.hpp"

namespace vppb::server {

/// Every StatsBody field set to its own value: counters (latency buckets
/// included) count up from `base` in wire order; doubles are `step`
/// times their position among the doubles (1, 2, ...).
inline StatsBody every_stats_field(std::uint64_t base, double step) {
  std::uint64_t n = base;
  double k = 0.0;
  const auto count = [&n]() { return n++; };
  const auto real = [&]() { return step * ++k; };
  StatsBody s;
  s.requests = count();
  for (std::uint64_t& v : s.by_type) v = count();
  s.errors = count();
  s.overloads = count();
  s.deadlines = count();
  s.cache_hits = count();
  s.cache_misses = count();
  s.cache_evictions = count();
  s.cache_waits = count();
  s.cache_entries = count();
  s.cache_bytes = count();
  for (std::uint64_t& v : s.latency_buckets) v = count();
  s.budget_kills = count();
  s.poisoned = count();
  s.poison_strikes = count();
  s.quarantined = count();
  s.watchdog_cancels = count();
  s.watchdog_replacements = count();
  s.quota_rejections = count();
  s.brownout_sheds = count();
  s.stale_serves = count();
  s.slo_p99_ms = real();
  s.slo_availability = real();
  s.lat_burn_1m = real();
  s.lat_burn_5m = real();
  s.lat_burn_1h = real();
  s.avail_burn_1m = real();
  s.avail_burn_5m = real();
  s.avail_burn_1h = real();
  s.sampled_requests = count();
  s.trace_dropped = count();
  s.auth_failures = count();
  s.idle_reaps = count();
  return s;
}

}  // namespace vppb::server
