// Request execution: one function per compute request type, mapping a
// decoded Request plus the shared trace cache to a Response.  Handlers
// run on thread-pool workers; everything they touch is either local,
// immutable (the cached CompiledTrace), or internally synchronized (the
// cache).  They throw vppb::Error for request-level failures — the
// server turns that into a Status::kError response, never a dropped
// connection.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/guard.hpp"
#include "obs/timeline.hpp"
#include "server/protocol.hpp"
#include "server/trace_cache.hpp"

namespace vppb::server {

/// The simulator configuration a compute request asks for: LWP pool,
/// inter-CPU delay and CPU count (a predict sweep sets the CPU count of
/// each point itself).  The offline CLI commands build theirs here too,
/// so a flag means the same thing with or without a daemon.  Throws
/// vppb::Error when a field is out of range.
core::SimConfig sim_config(const Request& req);

/// `guard` (optional) is the request's one clock and budget.  Handlers
/// check its deadline and wall ceiling at their checkpoints (trace
/// load, simulation, each sweep point, render, report) and thread it
/// into the compile and simulate calls, where it is polled per step; a
/// trip or a watchdog cancel surfaces as core::BudgetExceeded for the
/// dispatcher to type.  `tl` (optional) receives the per-request stage
/// waterfall (cache-lookup/compile/simulate/render) for protocol v7
/// timelines.
Response handle_predict(const Request& req, TraceCache& cache,
                        const core::RunGuard* guard = nullptr,
                        obs::Timeline* tl = nullptr);
Response handle_simulate(const Request& req, TraceCache& cache,
                         const core::RunGuard* guard = nullptr,
                         obs::Timeline* tl = nullptr);
Response handle_analyze(const Request& req, TraceCache& cache,
                        const core::RunGuard* guard = nullptr,
                        obs::Timeline* tl = nullptr);

/// The tracedump body: appends this process's tracer rings to `out` as
/// wire spans stamped with `pid` (the shard id; 0 for the proxy or a
/// standalone vppbd).
void append_tracer_spans(std::uint64_t pid, std::vector<WireSpan>& out);

}  // namespace vppb::server
