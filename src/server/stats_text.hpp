// Human-readable renderings of the stats/health wire bodies.
//
// Factored out of the CLI so the exact text the operator reads is unit
// testable: the stats view must always surface the failure counters
// (errors, overloads, deadline misses) and the cache hit rate, not just
// the happy-path totals.
#pragma once

#include <string>

#include "server/protocol.hpp"

namespace vppb::server {

/// The `vppb request stats` / `vppb stats` view: a counter table (one
/// row per request type), cache effectiveness including the hit rate,
/// and the latency percentiles when any request has executed.  The
/// percentiles are bucket upper edges, read from a vppbd's own latency
/// buckets or a proxy's summed ones alike.
std::string render_stats_text(const StatsBody& s);

/// Just the SLO block (objectives + multi-window burn rates); empty
/// string when no objective is configured.  Appended by
/// render_stats_text and reused by the --watch reconnect path, which
/// grays out the last-good SLO state while the endpoint is away.
std::string render_slo_text(const StatsBody& s);

/// The `vppb request health` view: readiness, in-flight occupancy, and
/// a one-line summary of the failure counters.
std::string render_health_text(const Response& r);

/// The cluster-aware stats view: the merged counter table first (so
/// `vppb stats --watch` reads unchanged against a proxy), then one row
/// per shard with its identity, epoch, health, and headline counters.
/// Falls back to render_stats_text when the response carries no shard
/// breakdown (a plain vppbd).
std::string render_cluster_stats_text(const Response& r);

}  // namespace vppb::server
