// The vppbd wire protocol: length-prefixed frames carrying varint-coded
// request/response messages.
//
// Frame layout (everything after the header is the payload):
//
//   [u32 little-endian payload length | 1 .. kMaxFrame] [payload bytes]
//
// Payloads use the binary trace format's codec (util/wire.hpp): LEB128
// varints, zigzag for signed values, IEEE-754 bit patterns for doubles,
// length-prefixed strings.  Each message and entry type lists its fields
// once, in one walk that both encode() and the decoders run
// (protocol.cpp).  The first payload byte is the protocol version, the
// second the message type, so a server can reject frames from the
// future with a precise error instead of a crash.
//
// One request frame yields exactly one response frame; a client may
// send any number of requests sequentially over one connection.  All
// decoding is bounds-checked and throws vppb::Error on truncated,
// oversized, or garbage input — the connection is the unit of failure.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "util/socket.hpp"

namespace vppb::server {

constexpr std::uint8_t kProtocolVersion = 9;  ///< v9: stats carry latency histogram buckets, not percentiles
/// Upper bound on a frame payload (a full SVG render fits comfortably;
/// a corrupt or hostile length prefix does not).
constexpr std::size_t kMaxFrame = 64u << 20;

enum class ReqType : std::uint8_t {
  kPredict = 0,   ///< full CPU sweep + Amdahl fit + knee
  kSimulate = 1,  ///< one configuration, optional SVG render
  kAnalyze = 2,   ///< contention / utilization report
  kStats = 3,     ///< server counters, cache hit rate, latencies
  kHealth = 4,    ///< readiness probe; bypasses admission control
  kMetricsDump = 5,  ///< Prometheus text of the process, server and
                     ///< cache registries
  kTraceDump = 6,    ///< drain the span tracer's rings (aggregated by the
                     ///< proxy into a cluster-wide flame view)
};
constexpr std::size_t kReqTypeCount = 7;

const char* to_string(ReqType t);

/// Predict, simulate and analyze: the requests that name a trace, pass
/// admission and are routed by its content.  The rest are probes and
/// dumps.
inline bool is_compute(ReqType t) {
  return t == ReqType::kPredict || t == ReqType::kSimulate ||
         t == ReqType::kAnalyze;
}

enum class Status : std::uint8_t {
  kOk = 0,
  kError = 1,             ///< request failed (bad trace, bad config, ...)
  kOverloaded = 2,        ///< admission queue full; retry later
  kDeadlineExceeded = 3,  ///< request deadline elapsed before completion
  kBudgetExceeded = 4,    ///< a server resource budget (steps, wall time,
                          ///< simulated time, result bytes) stopped the run
  kPoisoned = 5,          ///< trace content is quarantined after repeated
                          ///< crashes/budget kills; rejected pre-dispatch
  kQuotaExceeded = 6,     ///< the client spent its cluster-wide rate quota;
                          ///< retry_after_ms says when a token refills
  kAuthFailed = 7,        ///< the peer failed (or refused) the v8 TCP key
                          ///< proof; rejected pre-dispatch, connection
                          ///< closed
};

const char* to_string(Status s);

/// Whether a compute answer with this status spends the SLO error
/// budget.  Overload, quota and poison rejections do not: they are the
/// service protecting its objective, and charging them would let one
/// flooding client burn the budget.
inline bool spends_error_budget(Status s) {
  return s == Status::kError || s == Status::kDeadlineExceeded ||
         s == Status::kBudgetExceeded;
}

struct Request {
  ReqType type = ReqType::kPredict;
  std::string trace_path;         ///< predict/simulate/analyze
  int cpus = 8;                   ///< simulate/analyze
  int lwps = 0;                   ///< 0 = one LWP per thread
  int max_cpus = 16;              ///< predict: sweep 1,2,4.. up to this
  std::int64_t comm_delay_us = 0;
  bool want_svg = false;          ///< simulate: include an SVG render
  /// Server-side deadline: if the request has not completed this many
  /// milliseconds after arrival, the server abandons the work and
  /// responds kDeadlineExceeded.  0 = no deadline.
  std::int64_t deadline_ms = 0;
  /// Caller identity for per-client fair admission (0 = anonymous).
  /// When the server runs with a per-client limit, requests beyond it
  /// for one identity are rejected kOverloaded while other clients'
  /// slots stay available.
  std::uint64_t client_id = 0;
  /// Identity stamped by the routing tier (protocol v6): the proxy
  /// resolves anonymous requests to its own per-connection key so a
  /// shard's per-client fairness still distinguishes callers that all
  /// arrive over the proxy's pooled connections.  A shard uses it only
  /// when client_id is 0; 0 = not behind a proxy.
  std::uint64_t origin_id = 0;
  // Distributed trace context (protocol v7).  The originating client
  // mints trace_id; every tier propagates it unchanged and tags its
  // spans with it, so one id stitches proxy + shard rings together.
  std::uint64_t trace_id = 0;        ///< 0 = untraced request
  std::uint64_t parent_span_id = 0;  ///< caller's span, for future nesting
  bool sampled = false;   ///< tag spans with trace_id at every tier
  bool want_timeline = false;  ///< return the per-request stage timeline
};

/// One sweep point of a predict response.
struct WirePoint {
  int cpus = 1;
  double speedup = 1.0;
  double efficiency = 1.0;
  std::int64_t total_ns = 0;
  std::uint64_t digest = 0;  ///< core::digest of this point's SimResult
};

/// The stats payload: request counters, cache effectiveness, and the
/// server-side latency histogram of executed requests.
struct StatsBody {
  std::uint64_t requests = 0;      ///< all received requests, by arrival
  std::uint64_t by_type[kReqTypeCount] = {};  ///< indexed by ReqType
  std::uint64_t errors = 0;        ///< responses with Status::kError
  std::uint64_t overloads = 0;     ///< admission rejections
  std::uint64_t deadlines = 0;     ///< responses with kDeadlineExceeded
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_waits = 0;   ///< single-flight waits on a load
  std::uint64_t cache_entries = 0;
  std::uint64_t cache_bytes = 0;
  /// Executed (admitted) requests by latency: the non-cumulative
  /// `vppb_server_latency_us` bucket counts over obs::latency_us_bounds(),
  /// the last one +Inf (protocol v9).  Every tier uses the same edges,
  /// so summed buckets give exact cluster percentiles at bucket
  /// resolution through obs::quantile.
  std::uint64_t latency_buckets[obs::kLatencyBuckets] = {};
  // Resource-governance counters (protocol v4).
  std::uint64_t budget_kills = 0;    ///< responses with kBudgetExceeded
  std::uint64_t poisoned = 0;        ///< responses with kPoisoned
  std::uint64_t poison_strikes = 0;  ///< crash/budget strikes recorded
  std::uint64_t quarantined = 0;     ///< content keys quarantined right now
  std::uint64_t watchdog_cancels = 0;       ///< overdue requests cancelled
  std::uint64_t watchdog_replacements = 0;  ///< wedged workers replaced
  // Cluster-resilience counters (protocol v6); a plain vppbd reports
  // zeros, the proxy fills them from its own admission and brownout
  // layers.
  std::uint64_t quota_rejections = 0;  ///< responses with kQuotaExceeded
  std::uint64_t brownout_sheds = 0;    ///< cold computes shed in brownout
  std::uint64_t stale_serves = 0;      ///< answers served from the proxy
                                       ///< response cache (served_stale)
  // SLO / tracing telemetry (protocol v7).  Burn rates are multi-window
  // error-budget consumption rates (1.0 = spending exactly the budget);
  // zeros when no objective is configured.
  double slo_p99_ms = 0.0;        ///< configured latency objective (0 = off)
  double slo_availability = 0.0;  ///< configured availability objective
  double lat_burn_1m = 0.0;
  double lat_burn_5m = 0.0;
  double lat_burn_1h = 0.0;
  double avail_burn_1m = 0.0;
  double avail_burn_5m = 0.0;
  double avail_burn_1h = 0.0;
  std::uint64_t sampled_requests = 0;  ///< requests carrying a trace_id
  std::uint64_t trace_dropped = 0;     ///< span ring events overwritten
  // Hostile-network counters (protocol v8).
  std::uint64_t auth_failures = 0;  ///< TCP peers rejected by the handshake
  std::uint64_t idle_reaps = 0;     ///< connections closed for idling past
                                    ///< the server's idle deadline
};

/// How the cluster proxy folds one StatsBody field across shards.
enum class MergeRule : std::uint8_t {
  kSum,         ///< counters and latency buckets: the cluster total
  kMax,         ///< burn rates (the worst shard) and the availability
                ///< objective
  kMinNonzero,  ///< the latency objective: the strictest one configured
};

/// The one list of StatsBody fields, in wire order.  Calls
/// `fn(label, rule, field...)` once per field, passing that field of
/// each body: one body to encode, decode or render it, two to merge the
/// second into the first.  `label` is the field's row in the `vppb
/// stats` table, or nullptr when the text shows it elsewhere (latency
/// line, SLO block).  The arrays are passed whole: `by_type` renders as
/// one row per request type.  encode(), the decoders, merge_stats and
/// render_stats_text all walk this list; a new field goes at the end,
/// with a protocol version bump.
template <typename Fn, typename... Bodies>
void for_each_stats_field(Fn&& fn, Bodies&... b) {
  using R = MergeRule;
  fn("requests", R::kSum, b.requests...);
  fn(nullptr, R::kSum, b.by_type...);
  fn("errors", R::kSum, b.errors...);
  fn("overloads", R::kSum, b.overloads...);
  fn("deadline misses", R::kSum, b.deadlines...);
  fn("cache hits", R::kSum, b.cache_hits...);
  fn("cache misses", R::kSum, b.cache_misses...);
  fn("cache evictions", R::kSum, b.cache_evictions...);
  fn("cache waits", R::kSum, b.cache_waits...);
  fn("cache entries", R::kSum, b.cache_entries...);
  fn("cache bytes", R::kSum, b.cache_bytes...);
  fn(nullptr, R::kSum, b.latency_buckets...);
  fn("budget kills", R::kSum, b.budget_kills...);
  fn("poisoned rejects", R::kSum, b.poisoned...);
  fn("poison strikes", R::kSum, b.poison_strikes...);
  fn("quarantined now", R::kSum, b.quarantined...);
  fn("watchdog cancels", R::kSum, b.watchdog_cancels...);
  fn("worker replacements", R::kSum, b.watchdog_replacements...);
  fn("quota rejections", R::kSum, b.quota_rejections...);
  fn("brownout sheds", R::kSum, b.brownout_sheds...);
  fn("stale serves", R::kSum, b.stale_serves...);
  fn(nullptr, R::kMinNonzero, b.slo_p99_ms...);
  fn(nullptr, R::kMax, b.slo_availability...);
  fn(nullptr, R::kMax, b.lat_burn_1m...);
  fn(nullptr, R::kMax, b.lat_burn_5m...);
  fn(nullptr, R::kMax, b.lat_burn_1h...);
  fn(nullptr, R::kMax, b.avail_burn_1m...);
  fn(nullptr, R::kMax, b.avail_burn_5m...);
  fn(nullptr, R::kMax, b.avail_burn_1h...);
  fn("sampled requests", R::kSum, b.sampled_requests...);
  fn("trace drops", R::kSum, b.trace_dropped...);
  fn("auth failures", R::kSum, b.auth_failures...);
  fn("idle reaps", R::kSum, b.idle_reaps...);
}

/// One backend's slice of an aggregated cluster response (protocol v5).
/// The proxy fills one per configured shard for stats / health /
/// metricsdump requests; a plain vppbd always answers with an empty
/// shard list.
struct ShardInfo {
  std::uint64_t shard_id = 0;  ///< operator-assigned identity (0 = unset)
  std::uint64_t epoch = 0;     ///< changes on every shard (re)start
  bool healthy = false;        ///< in the routing ring right now
  std::string endpoint;        ///< "path.sock" or "127.0.0.1:port"
  StatsBody stats;             ///< this shard's own counters
};

/// One stage (or marker) of a per-request timeline (protocol v7): the
/// obs::Timeline stage itself, so a timeline moves into a response
/// without a copy.  Offsets are microseconds since arrival at the
/// outermost tier that recorded the timeline; depth nests a shard's
/// stages under the proxy's forward stage so summing one depth never
/// double-counts.
using StageSpan = obs::Stage;

/// One span drained from a process's tracer ring by a tracedump
/// request (protocol v7).  Timestamps are absolute unix ns (each
/// process adds its tracer epoch before answering), so a collector
/// merges processes onto one clock without negotiation.
struct WireSpan {
  std::uint64_t pid = 0;  ///< shard id of the emitting process (0 = proxy
                          ///< or standalone vppbd)
  std::uint32_t tid = 0;  ///< emitting thread's stable export id
  std::string name;
  std::string cat;
  std::int64_t start_unix_ns = 0;
  std::int64_t dur_ns = -1;  ///< -1 = instant event
  std::uint64_t trace_id = 0;
  std::string arg_name;  ///< empty = no argument
  std::int64_t arg_value = 0;
};

/// Decode-side plausibility caps for the v7 repeated fields.
constexpr std::size_t kMaxTimelineStages = 4096;
constexpr std::size_t kMaxWireSpans = 1u << 21;

struct Response {
  Status status = Status::kOk;
  ReqType type = ReqType::kPredict;  ///< echoes the request type
  std::string error;                 ///< set when status != kOk

  // predict
  std::vector<WirePoint> points;
  double serial_fraction = 0.0;
  int knee = 1;

  // simulate / analyze (and predict: combined digest over all points)
  std::uint64_t digest = 0;
  std::int64_t total_ns = 0;
  double speedup = 0.0;
  int cpus = 0;
  int lwps = 0;
  std::uint64_t events = 0;
  std::string svg;     ///< simulate with want_svg
  std::string report;  ///< analyze; metricsdump (Prometheus text)

  // stats / health
  StatsBody stats;

  // health
  bool ready = false;              ///< accepting and serving requests
  std::uint64_t in_flight = 0;     ///< admitted requests currently running
  std::uint64_t admission_limit = 0;

  // cluster (protocol v5)
  std::uint64_t shard_id = 0;  ///< identity of the answering shard (0 = unset)
  std::uint64_t epoch = 0;     ///< start-time epoch of the answering process
  /// Per-shard breakdown of an aggregated proxy response; empty from a
  /// plain vppbd and for non-aggregating request types.
  std::vector<ShardInfo> shards;

  // cluster resilience (protocol v6)
  /// With kQuotaExceeded (and brownout sheds): milliseconds until the
  /// client's next token refills / the proxy expects capacity back.
  std::int64_t retry_after_ms = 0;
  bool brownout = false;          ///< the proxy is shedding load by priority
  std::uint64_t live_shards = 0;  ///< health/stats: shards in the ring now
  std::uint64_t total_shards = 0;
  /// This answer came from the proxy's response cache instead of a
  /// shard (digest-safe: responses are deterministic in the request).
  bool served_stale = false;
  std::int64_t stale_age_ms = 0;  ///< age of the cached answer served

  // Distributed tracing & SLO (protocol v7).
  bool slo_burning = false;     ///< stats/health: multi-window SLO breach
  std::uint64_t trace_id = 0;   ///< echo of the request's trace context
  /// Per-request stage waterfall; filled when the request asked
  /// want_timeline, empty otherwise.
  std::vector<StageSpan> timeline;
  /// tracedump: spans drained from the answering process(es).
  std::vector<WireSpan> spans;
};

/// An answer that carries only its status and why: a rejection or a
/// failure of a request of `type`.
inline Response status_response(ReqType type, Status status,
                                std::string error) {
  Response resp;
  resp.type = type;
  resp.status = status;
  resp.error = std::move(error);
  return resp;
}

std::vector<std::uint8_t> encode(const Request& req);
std::vector<std::uint8_t> encode(const Response& resp);
Request decode_request(const std::uint8_t* data, std::size_t size);
Response decode_response(const std::uint8_t* data, std::size_t size);
Request decode_request(const std::vector<std::uint8_t>& payload);
Response decode_response(const std::vector<std::uint8_t>& payload);

/// Writes one frame (header + payload).  Throws vppb::Error on
/// oversized payloads or a lost peer.
void write_frame(util::Socket& sock, const std::vector<std::uint8_t>& payload);

/// Reads one frame into `payload`.  Returns false on a clean
/// end-of-stream at a frame boundary; throws vppb::Error on a
/// truncated header/payload or an out-of-range length prefix.
bool read_frame(util::Socket& sock, std::vector<std::uint8_t>& payload);

/// Per-frame ceilings for reads from peers that have not earned full
/// trust (protocol v8).  `max_bytes` rejects a length prefix above the
/// cap before any allocation; `frame_deadline_ms` bounds the *total*
/// time a started frame may take to arrive, so a peer trickling one
/// byte per receive-timeout window cannot hold a 64 MiB read open for
/// days.
struct FrameLimits {
  std::size_t max_bytes = kMaxFrame;
  int frame_deadline_ms = 0;  ///< 0 = unbounded
};

bool read_frame(util::Socket& sock, std::vector<std::uint8_t>& payload,
                const FrameLimits& limits);

}  // namespace vppb::server
