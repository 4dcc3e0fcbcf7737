#include "server/stats_text.hpp"

#include <algorithm>
#include <numeric>
#include <type_traits>

#include "util/strings.hpp"
#include "util/table.hpp"

namespace vppb::server {

namespace {

std::string u64str(std::uint64_t v) {
  return strprintf("%llu", static_cast<unsigned long long>(v));
}

}  // namespace

std::string render_stats_text(const StatsBody& s) {
  TextTable table;
  table.header({"counter", "value"});
  // One row per labelled counter, in the field list's order; by_type
  // expands to one indented row per request type.  The latency buckets
  // become the latency line below.
  for_each_stats_field(
      [&table](const char* label, MergeRule, const auto& f) {
        using F = std::remove_cvref_t<decltype(f)>;
        if constexpr (std::is_same_v<F, std::uint64_t[kReqTypeCount]>) {
          for (std::size_t i = 0; i < kReqTypeCount; ++i)
            table.row({strprintf("  %s", to_string(static_cast<ReqType>(i))),
                       u64str(f[i])});
        } else if constexpr (std::is_same_v<F, std::uint64_t>) {
          if (label != nullptr) table.row({label, u64str(f)});
        }
      },
      s);
  std::string out = table.render();
  const std::uint64_t lookups = s.cache_hits + s.cache_misses;
  if (lookups > 0) {
    out += strprintf("\ncache hit rate: %.1f%%\n",
                     100.0 * static_cast<double>(s.cache_hits) /
                         static_cast<double>(lookups));
  }
  const std::uint64_t executed =
      std::accumulate(std::begin(s.latency_buckets),
                      std::end(s.latency_buckets), std::uint64_t{0});
  if (executed > 0) {
    const auto q = [&s](double p) {
      return obs::quantile(s.latency_buckets, p);
    };
    out += strprintf("latency (us): p50 <= %.0f  p90 <= %.0f  p99 <= %.0f  "
                     "max <= %.0f over %s requests\n",
                     q(0.5), q(0.9), q(0.99), q(1.0),
                     u64str(executed).c_str());
  }
  out += render_slo_text(s);
  return out;
}

std::string render_slo_text(const StatsBody& s) {
  if (s.slo_p99_ms <= 0.0 && s.slo_availability <= 0.0) return "";
  std::string out = "SLO:";
  if (s.slo_p99_ms > 0.0)
    out += strprintf(" p99 < %.4g ms", s.slo_p99_ms);
  if (s.slo_availability > 0.0)
    out += strprintf("%s availability >= %.4g%%",
                     s.slo_p99_ms > 0.0 ? "," : "",
                     100.0 * s.slo_availability);
  out += '\n';
  // Burn rate 1.0 = spending error budget exactly at the sustainable
  // pace; the alert thresholds are 14.4 (fast: 1m+5m) and 6.0 (slow:
  // 5m+1h), the SRE-book multiwindow pairs.
  if (s.slo_p99_ms > 0.0)
    out += strprintf("  latency burn:      1m %.2f  5m %.2f  1h %.2f\n",
                     s.lat_burn_1m, s.lat_burn_5m, s.lat_burn_1h);
  if (s.slo_availability > 0.0)
    out += strprintf("  availability burn: 1m %.2f  5m %.2f  1h %.2f\n",
                     s.avail_burn_1m, s.avail_burn_5m, s.avail_burn_1h);
  return out;
}

std::string render_cluster_stats_text(const Response& r) {
  std::string out = render_stats_text(r.stats);
  if (r.slo_burning)
    out += "SLO BURNING: error budget is being spent faster than the "
           "multi-window alert thresholds allow\n";
  if (r.shards.empty()) return out;
  if (r.brownout) {
    out += strprintf("BROWNOUT: proxy shedding load (%s of %s shards "
                     "live)\n",
                     u64str(r.live_shards).c_str(),
                     u64str(r.total_shards).c_str());
  }
  out += "\nshards:\n";
  TextTable table;
  table.header({"shard", "epoch", "state", "endpoint", "requests", "errors",
                "cache hits", "entries", "p99 us", "burn 5m"});
  for (const ShardInfo& sh : r.shards) {
    const double burn5m =
        std::max(sh.stats.lat_burn_5m, sh.stats.avail_burn_5m);
    table.row({u64str(sh.shard_id), strprintf("%08llx",
                   static_cast<unsigned long long>(sh.epoch & 0xffffffffu)),
               sh.healthy ? "up" : "down", sh.endpoint,
               u64str(sh.stats.requests), u64str(sh.stats.errors),
               u64str(sh.stats.cache_hits), u64str(sh.stats.cache_entries),
               strprintf("%.0f", obs::quantile(sh.stats.latency_buckets,
                                               0.99)),
               strprintf("%.2f", burn5m)});
  }
  out += table.render();
  return out;
}

std::string render_health_text(const Response& r) {
  std::string out;
  out += strprintf("ready:           %s\n", r.ready ? "yes" : "no");
  if (r.total_shards > 0) {
    out += strprintf("cluster:         %s / %s shards live%s\n",
                     u64str(r.live_shards).c_str(),
                     u64str(r.total_shards).c_str(),
                     r.brownout ? " (BROWNOUT: shedding load)" : "");
  }
  out += strprintf("in flight:       %s / %s\n", u64str(r.in_flight).c_str(),
                   u64str(r.admission_limit).c_str());
  out += strprintf("requests served: %s (%s errors, %s overloads, "
                   "%s deadline misses)\n",
                   u64str(r.stats.requests).c_str(),
                   u64str(r.stats.errors).c_str(),
                   u64str(r.stats.overloads).c_str(),
                   u64str(r.stats.deadlines).c_str());
  out += strprintf("cache:           %s entries, %s bytes\n",
                   u64str(r.stats.cache_entries).c_str(),
                   u64str(r.stats.cache_bytes).c_str());
  if (r.stats.slo_p99_ms > 0.0 || r.stats.slo_availability > 0.0) {
    out += strprintf("SLO:             %s (lat burn 5m %.2f, avail burn "
                     "5m %.2f)\n",
                     r.slo_burning ? "BURNING" : "ok",
                     r.stats.lat_burn_5m, r.stats.avail_burn_5m);
  }
  return out;
}

}  // namespace vppb::server
