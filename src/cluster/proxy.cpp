#include "cluster/proxy.hpp"

#include <algorithm>
#include <cstdlib>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "server/handlers.hpp"
#include "server/trace_cache.hpp"
#include "util/error.hpp"
#include "util/socket.hpp"
#include "util/strings.hpp"

namespace vppb::cluster {
namespace {

using obs::LogLevel;
using server::MergeRule;
using server::Request;
using server::ReqType;
using server::Response;
using server::StageSpan;
using server::StatsBody;
using server::Status;

/// Cap on the merged trace-collect response: shards dump up to 32k
/// spans per ring, and the proxy concatenates all of them plus its own;
/// the total must stay under kMaxFrame (64 MiB) at ~60 encoded bytes a
/// span.
constexpr std::size_t kMergedSpanCap = 1u << 19;

/// Response cache capacity (kOk compute responses; SVG-bearing
/// responses are never cached — they dwarf everything else).
constexpr std::size_t kResponseCacheEntries = 256;

/// Registry handles for the proxy, registered once (same pattern as
/// the cache metrics): the routing tier's own behavior — forwards,
/// failovers, hedges, dedup hits — is visible in `vppb request
/// metricsdump` against the proxy.
struct ProxyMetrics {
  obs::Counter& requests;
  obs::Counter& forwards;
  obs::Counter& failovers;
  obs::Counter& hedges;
  obs::Counter& hedge_wins;
  obs::Counter& dedup_hits;
  obs::Counter& no_shards;
  obs::Counter& quota_rejections;
  obs::Counter& brownout_sheds;
  obs::Counter& stale_serves;
  obs::Counter& auth_failures;
  obs::Counter& idle_reaps;
  obs::Gauge& shards_up;

  static ProxyMetrics& get() {
    auto& reg = obs::Registry::global();
    static ProxyMetrics m{
        reg.counter("vppb_proxy_requests_total",
                    "Requests received by the proxy"),
        reg.counter("vppb_proxy_forwards_total",
                    "Forward attempts sent to shards"),
        reg.counter("vppb_proxy_failovers_total",
                    "Forwards re-routed after a shard transport failure"),
        reg.counter("vppb_proxy_hedges_total", "Hedge attempts launched"),
        reg.counter("vppb_proxy_hedge_wins_total",
                    "Requests answered by the hedge, not the primary"),
        reg.counter("vppb_proxy_dedup_hits_total",
                    "Requests collapsed into an identical in-flight one"),
        reg.counter("vppb_proxy_no_shards_total",
                    "Requests failed because every shard was down"),
        reg.counter("vppb_proxy_quota_rejections_total",
                    "Requests rejected by the global per-client quota"),
        reg.counter("vppb_proxy_brownout_sheds_total",
                    "Cold computes shed while the proxy was in brownout"),
        reg.counter("vppb_proxy_stale_serves_total",
                    "Answers served from the proxy response cache"),
        reg.counter("vppb_proxy_auth_failures_total",
                    "TCP connections rejected by the v8 handshake"),
        reg.counter("vppb_proxy_idle_reaps_total",
                    "Client connections reaped for idling past the limit"),
        reg.gauge("vppb_proxy_shards_up", "Healthy shards in the ring"),
    };
    return m;
  }
};

/// Folds one shard's value of a StatsBody field into the cluster's.
/// The objectives and burn rates merge pessimistically: the cluster's
/// objective is the strictest configured one and its burn the worst
/// shard's, so an operator paged on the merged number is paged no later
/// than one watching every shard.
template <typename T>
void merge_field(T& into, const T& from, MergeRule rule) {
  switch (rule) {
    case MergeRule::kSum:
      into += from;
      break;
    case MergeRule::kMax:
      into = std::max(into, from);
      break;
    case MergeRule::kMinNonzero:
      if (into == 0 || (from != 0 && from < into)) into = from;
      break;
  }
}

template <typename T, std::size_t N>
void merge_field(T (&into)[N], const T (&from)[N], MergeRule rule) {
  for (std::size_t i = 0; i < N; ++i) merge_field(into[i], from[i], rule);
}

std::int64_t elapsed_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// RAII in-flight accounting for the brownout load trigger.
class InflightScope {
 public:
  explicit InflightScope(std::atomic<int>& n) : n_(n) { ++n_; }
  ~InflightScope() { --n_; }
  InflightScope(const InflightScope&) = delete;
  InflightScope& operator=(const InflightScope&) = delete;

 private:
  std::atomic<int>& n_;
};

/// One forward in flight in Proxy::forward_failover: the request has
/// been sent on `conn`, whose answer has not been read yet.
struct Attempt {
  std::size_t idx;  ///< shard index
  server::Client conn;
  std::chrono::steady_clock::time_point sent;
  std::int64_t f0;  ///< timeline time of the send, for the graft
  bool hedge;       ///< sent because a hedge window passed in silence
  bool dead = false;  ///< failed on transport or went silent: ejected
};

}  // namespace

void merge_stats(StatsBody& into, const StatsBody& from) {
  server::for_each_stats_field(
      [](const char*, MergeRule rule, auto& into_f,
         const auto& from_f) { merge_field(into_f, from_f, rule); },
      into, from);
}

std::string merge_prometheus(
    const std::vector<std::pair<std::string, std::string>>& sections) {
  // Series key -> summed value, plus first-appearance ordering and the
  // HELP/TYPE comment block captured from the first section to carry
  // each family.
  std::vector<std::string> order;                    // series keys
  std::unordered_map<std::string, double> values;
  std::unordered_map<std::string, std::string> comments;  // family -> block
  std::vector<std::string> family_order;

  for (const auto& [label, text] : sections) {
    std::string pending_comments;
    std::size_t pos = 0;
    while (pos < text.size()) {
      std::size_t eol = text.find('\n', pos);
      if (eol == std::string::npos) eol = text.size();
      std::string line = text.substr(pos, eol - pos);
      pos = eol + 1;
      if (line.empty()) continue;
      if (line[0] == '#') {
        pending_comments += line;
        pending_comments += '\n';
        continue;
      }
      // Histogram bucket lines may carry an OpenMetrics exemplar suffix
      // (` # {trace_id="..."} value`); exemplars do not merge — cut the
      // line back to the plain sample before parsing.
      const std::size_t ex = line.find(" # ");
      if (ex != std::string::npos) line.resize(ex);
      const std::size_t sp = line.rfind(' ');
      if (sp == std::string::npos || sp == 0) continue;  // not a sample
      const std::string key = line.substr(0, sp);
      const double val = std::strtod(line.c_str() + sp + 1, nullptr);
      // Family name: the series key up to '{' (or the whole key).
      const std::string family = key.substr(0, key.find('{'));
      if (!pending_comments.empty()) {
        if (comments.emplace(family, pending_comments).second)
          family_order.push_back(family);
        pending_comments.clear();
      } else if (comments.emplace(family, std::string()).second) {
        family_order.push_back(family);
      }
      auto [it, fresh] = values.emplace(key, val);
      if (fresh) {
        order.push_back(key);
      } else {
        it->second += val;
      }
    }
    (void)label;
  }

  // Emit family by family in first-appearance order, each series in
  // first-appearance order within it.
  std::string out;
  for (const std::string& family : family_order) {
    out += comments[family];
    for (const std::string& key : order) {
      if (key.substr(0, key.find('{')) != family) continue;
      const double v = values[key];
      if (v == static_cast<double>(static_cast<long long>(v))) {
        out += strprintf("%s %lld\n", key.c_str(),
                         static_cast<long long>(v));
      } else {
        out += strprintf("%s %.6g\n", key.c_str(), v);
      }
    }
  }
  return out;
}

namespace {

/// One key secures the whole path: unless the membership options name
/// their own upstream key, the proxy's listener key is also used when
/// dialing TCP shards.
ProxyOptions normalize(ProxyOptions opt) {
  if (opt.membership.auth_key.empty())
    opt.membership.auth_key = opt.auth_key;
  return opt;
}

}  // namespace

Proxy::Proxy(ProxyOptions opt)
    : opt_(normalize(std::move(opt))),
      membership_(opt_.shards, opt_.membership),
      quota_(opt_.quota),
      listener_(opt_, "proxy", ProxyMetrics::get().auth_failures,
                ProxyMetrics::get().idle_reaps,
                [this](std::vector<std::uint8_t>& payload,
                       std::uint64_t conn_key, int /*fd*/) {
                  return server::encode(server::answer_frame(
                      payload, [&](const Request& req) {
                        return execute(req, conn_key);
                      }));
                }) {
  slo_.configure(obs::SloOptions{opt_.slo_p99_ms, opt_.slo_availability});
}

Proxy::~Proxy() { stop(); }

void Proxy::start() {
  VPPB_CHECK_MSG(!listener_.running(), "proxy already started");
  membership_.start();  // one synchronous probe round populates the ring
  ProxyMetrics::get().shards_up.set(
      static_cast<std::int64_t>(membership_.up_count()));
  obs::Tracer::global().enable();
  listener_.start();
  obs::logf(LogLevel::kInfo, "proxy",
            "routing on %s across %zu shards (%zu up, hedge %lld ms)",
            endpoint().c_str(), membership_.shard_count(),
            membership_.up_count(),
            static_cast<long long>(opt_.hedge_ms));
}

void Proxy::stop() {
  if (!listener_.stop()) return;
  membership_.stop();
}

bool Proxy::brownout_active(std::size_t* live, std::size_t* total) const {
  const std::size_t up = membership_.up_count();
  const std::size_t all = membership_.shard_count();
  if (live) *live = up;
  if (total) *total = all;
  if (opt_.brownout_min_live_pct > 0 &&
      up * 100 < all * static_cast<std::size_t>(opt_.brownout_min_live_pct))
    return true;
  if (opt_.brownout_max_inflight > 0 &&
      inflight_.load() >= opt_.brownout_max_inflight)
    return true;
  return false;
}

Response Proxy::execute(const Request& req, std::uint64_t conn_key) {
  ProxyMetrics& pm = ProxyMetrics::get();
  pm.requests.inc();
  if (req.trace_id != 0) sampled_.fetch_add(1);
  // Propagated trace context: the proxy's own spans for this request
  // carry the caller's trace id, so trace-collect stitches the routing
  // tier and the shards into one distributed trace.
  obs::TraceContext tctx(req.sampled ? req.trace_id : 0);
  obs::Span span("proxy.execute", "proxy");
  const auto t0 = std::chrono::steady_clock::now();
  // Health and stats never queue behind compute and are never shed:
  // in a brownout they are exactly the requests an operator needs.
  if (!server::is_compute(req.type)) return aggregate(req);

  // Global per-client quota, enforced once for the whole cluster.
  // Anonymous callers resolve to this connection's key.
  const std::uint64_t ident =
      req.client_id != 0 ? req.client_id : conn_key;
  if (quota_.enabled()) {
    const ClientQuota::Verdict v = quota_.admit(ident, t0);
    if (!v.admitted) {
      pm.quota_rejections.inc();
      Response resp = server::status_response(
          req.type, Status::kQuotaExceeded,
          strprintf("client %llu over its cluster-wide rate quota "
                    "(%.4g rps, burst %.4g); retry in %lld ms",
                    static_cast<unsigned long long>(ident), opt_.quota.rps,
                    opt_.quota.burst,
                    static_cast<long long>(v.retry_after_ms)));
      resp.retry_after_ms = v.retry_after_ms;
      return resp;
    }
  }

  // Proxy-side stage timeline; the shard's stages come back in its
  // response and are grafted under the forward stage at depth+1.
  std::unique_ptr<obs::Timeline> tl;
  if (req.want_timeline) tl = std::make_unique<obs::Timeline>();

  // Route by the trace's content digest — the same FNV-1a the shard's
  // TraceCache will key the compiled trace by.
  std::uint64_t key = 0;
  const std::int64_t route0 = tl ? tl->now_us() : 0;
  try {
    key = server::content_key_of_file(req.trace_path);
  } catch (const Error& e) {
    return server::status_response(
        req.type, Status::kError,
        strprintf("proxy cannot read trace %s: %s", req.trace_path.c_str(),
                  e.what()));
  }
  if (tl) tl->stage("route", route0, tl->now_us() - route0);
  const std::uint64_t ckey = response_cache_key(req, key);

  // Brownout: shed by priority.  Repeats answer slightly stale from
  // the response cache (digest-safe), cold computes are turned away
  // with a hint instead of piling onto a degraded cluster.
  if (brownout_active()) {
    Response cached;
    if (cache_lookup(ckey, opt_.stale_ms, &cached)) {
      pm.stale_serves.inc();
      stale_serves_.fetch_add(1);
      cached.brownout = true;
      if (tl) {
        tl->marker("stale-serve");
        cached.timeline = std::move(tl->stages());
      }
      return cached;
    }
    pm.brownout_sheds.inc();
    brownout_sheds_.fetch_add(1);
    Response resp = server::status_response(
        req.type, Status::kOverloaded,
        "proxy brownout: shedding cold compute requests until the cluster "
        "recovers; retry later");
    resp.brownout = true;
    resp.retry_after_ms = opt_.membership.probe_cap_ms;
    return resp;
  }

  // Forward with the resolved identity stamped, so shard-side fairness
  // can still tell anonymous proxied callers apart.
  Request fwd = req;
  if (fwd.client_id == 0) fwd.origin_id = ident;
  InflightScope scope(inflight_);
  Response resp = single_flight(fwd, key, ckey, t0, tl.get());
  // Cluster-level SLO: what this client actually experienced, failover
  // and hedging included.  Rejections above (quota, brownout shed) are
  // the proxy protecting the objective, not burning it.
  slo_.record(std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - t0)
                  .count(),
              !server::spends_error_budget(resp.status));
  if (tl) {
    // Compose: proxy stages at their recorded depth, shard stages
    // (already shifted to this timeline and re-parented by the forward
    // layer) appended after.
    std::vector<StageSpan> merged = std::move(tl->stages());
    merged.insert(merged.end(), std::make_move_iterator(resp.timeline.begin()),
                  std::make_move_iterator(resp.timeline.end()));
    resp.timeline = std::move(merged);
  }
  return resp;
}

Response Proxy::single_flight(const Request& req, std::uint64_t route_key,
                              std::uint64_t cache_key,
                              std::chrono::steady_clock::time_point t0,
                              obs::Timeline* tl) {
  // De-dup key: the encoded request with the proxy's own origin stamp
  // zeroed, so requests that arrived byte-identical (same trace
  // content *and* same parameters, deadline, client id) still collapse
  // across connections; the leader's origin represents the flight.
  Request canon = req;
  canon.origin_id = 0;
  const std::vector<std::uint8_t> encoded = server::encode(canon);
  const std::uint64_t fkey =
      server::content_key(encoded.data(), encoded.size());

  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(flight_mu_);
    auto it = flights_.find(fkey);
    if (it == flights_.end()) {
      flight = std::make_shared<Flight>();
      flights_.emplace(fkey, flight);
      leader = true;
    } else {
      flight = it->second;
    }
  }
  if (!leader) {
    ProxyMetrics::get().dedup_hits.inc();
    std::unique_lock<std::mutex> lock(flight->mu);
    flight->cv.wait(lock, [&]() { return flight->done; });
    if (flight->error) std::rethrow_exception(flight->error);
    return flight->resp;
  }

  Response resp;
  std::exception_ptr error;
  try {
    resp = forward_failover(req, route_key, cache_key, t0, tl);
  } catch (...) {
    error = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(flight_mu_);
    flights_.erase(fkey);
  }
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->done = true;
    flight->resp = resp;
    flight->error = error;
  }
  flight->cv.notify_all();
  if (error) std::rethrow_exception(error);
  return resp;
}

std::uint64_t Proxy::response_cache_key(const Request& req,
                                        std::uint64_t route_key) {
  Request canon = req;
  canon.trace_path.clear();  // content, not path, identifies the trace
  canon.client_id = 0;
  canon.origin_id = 0;
  canon.deadline_ms = 0;
  const std::vector<std::uint8_t> encoded = server::encode(canon);
  std::uint64_t h = server::content_key(encoded.data(), encoded.size());
  // Splice the trace content key in (boost-style hash combine).
  h ^= route_key + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

bool Proxy::cache_lookup(std::uint64_t cache_key, std::int64_t max_age_ms,
                         Response* out) {
  if (max_age_ms <= 0) return false;
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = rcache_.find(cache_key);
  if (it == rcache_.end()) return false;
  const std::int64_t age =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - it->second.at)
          .count();
  if (age > max_age_ms) return false;
  it->second.tick = ++cache_tick_;
  *out = it->second.resp;
  out->served_stale = true;
  out->stale_age_ms = age;
  return true;
}

void Proxy::cache_store(std::uint64_t cache_key, const Response& resp) {
  if (resp.status != Status::kOk || !resp.svg.empty()) return;
  std::lock_guard<std::mutex> lock(cache_mu_);
  CachedResponse& e = rcache_[cache_key];
  const std::pair<std::uint64_t, std::uint64_t> served{resp.shard_id,
                                                       resp.epoch};
  if (std::find(e.warm.begin(), e.warm.end(), served) == e.warm.end())
    e.warm.push_back(served);
  e.resp = resp;
  // Per-request observability never replays: a stale serve gets the
  // cached *answer*, not the timeline of whoever populated the cache.
  e.resp.timeline.clear();
  e.resp.spans.clear();
  e.at = std::chrono::steady_clock::now();
  e.tick = ++cache_tick_;
  while (rcache_.size() > kResponseCacheEntries) {
    auto oldest = rcache_.begin();
    for (auto it = rcache_.begin(); it != rcache_.end(); ++it)
      if (it->second.tick < oldest->second.tick) oldest = it;
    rcache_.erase(oldest);
  }
}

bool Proxy::cache_warm(std::uint64_t cache_key, std::uint64_t shard_id,
                       std::uint64_t epoch) const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = rcache_.find(cache_key);
  if (it == rcache_.end()) return false;
  const std::pair<std::uint64_t, std::uint64_t> want{shard_id, epoch};
  return std::find(it->second.warm.begin(), it->second.warm.end(), want) !=
         it->second.warm.end();
}

Response Proxy::forward_failover(const Request& req, std::uint64_t route_key,
                                 std::uint64_t cache_key,
                                 std::chrono::steady_clock::time_point t0,
                                 obs::Timeline* tl) {
  using Clock = std::chrono::steady_clock;
  ProxyMetrics& pm = ProxyMetrics::get();
  obs::Span span("proxy.forward", "proxy");
  // A transport failure, or silence past forward_timeout_ms: the shard
  // leaves the ring (Membership re-probes it) and the walk moves on.
  const auto fail = [&](std::size_t idx, const char* why) {
    obs::logf(LogLevel::kWarn, "proxy",
              "shard %llu failed mid-forward (%s); failing over",
              static_cast<unsigned long long>(membership_.endpoint(idx).id),
              why);
    if (tl) tl->marker("failover");
    pm.failovers.inc();
    membership_.eject(idx);
    pm.shards_up.set(static_cast<std::int64_t>(membership_.up_count()));
  };
  const auto silence = std::chrono::milliseconds(opt_.forward_timeout_ms);
  const auto window = std::chrono::milliseconds(opt_.hedge_ms);
  const std::size_t shard_count = membership_.shard_count();
  const std::size_t rounds = std::max<std::size_t>(std::size_t{1},
                                                   shard_count);
  const std::size_t want = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::max(1, opt_.replicas)), std::size_t{1},
      std::max<std::size_t>(std::size_t{1}, shard_count));
  const std::uint64_t primary_id = membership_.configured_owner(route_key);
  Request fwd = req;
  for (std::size_t round = 0; round < rounds; ++round) {
    std::vector<std::size_t> candidates =
        membership_.route(route_key, want);
    if (candidates.empty()) break;
    // Replica-read preference: the primary always comes first while it
    // is on the ring (cache affinity).  When the walk starts at a
    // stand-in, a replica that has already served this exact request
    // — its cache is warm for it — beats a cold ring successor.
    if (candidates.size() > 1 &&
        membership_.endpoint(candidates[0]).id != primary_id) {
      const std::vector<ShardView> snap = membership_.snapshot();
      std::stable_partition(
          candidates.begin(), candidates.end(), [&](std::size_t i) {
            return cache_warm(cache_key, snap[i].endpoint.id,
                              snap[i].epoch);
          });
    }
    // The walk, all on this thread: the primary first, then one more
    // candidate per failed attempt and per hedge window that passes
    // with every open attempt silent.  The first answer wins; losers
    // are closed.  An exhausted round re-routes on the shrunken ring.
    std::vector<Attempt> open;
    std::size_t next = 0;
    int owed = 1;  // sends due: the primary, then one per failure or hedge
    bool hedge = false;
    // A hedge needs a candidate left and a deadline that could absorb
    // another window: a hedge the client cannot wait for is pure load.
    const auto may_hedge = [&]() {
      return opt_.hedge_ms > 0 && next < candidates.size() &&
             (req.deadline_ms == 0 ||
              req.deadline_ms - elapsed_ms(t0) > opt_.hedge_ms);
    };
    while (true) {
      for (; owed > 0 && next < candidates.size(); hedge = false) {
        const std::size_t idx = candidates[next++];
        // The shard gets what is left of the client's deadline, not a
        // fresh one: a successor reached after a stalled primary must
        // not answer after the client has stopped waiting.
        if (req.deadline_ms > 0) {
          fwd.deadline_ms = req.deadline_ms - elapsed_ms(t0);
          if (fwd.deadline_ms <= 0)
            return server::status_response(
                req.type, Status::kDeadlineExceeded,
                "deadline exceeded: spent before the forward");
        }
        pm.forwards.inc();
        if (hedge) {
          pm.hedges.inc();
          if (tl) tl->marker("hedge");
        }
        try {
          server::Client conn = membership_.take_conn(idx);
          if (opt_.forward_timeout_ms > 0)
            conn.set_recv_timeout(opt_.forward_timeout_ms);
          const std::int64_t f0 = tl ? tl->now_us() : 0;
          conn.send(fwd);
          open.push_back(Attempt{idx, std::move(conn), Clock::now(), f0,
                                 hedge});
          --owed;
        } catch (const Error& e) {
          fail(idx, e.what());
        }
      }
      owed = 0;
      if (open.empty()) break;

      // Sleep until an attempt speaks, one has been silent too long, or
      // a hedge window has passed since the last send.
      const auto now = Clock::now();
      int wait_ms = -1;
      const auto wake_at = [&](Clock::time_point due) {
        const auto left =
            std::chrono::ceil<std::chrono::milliseconds>(due - now).count();
        const int ms = static_cast<int>(std::max<std::int64_t>(0, left));
        wait_ms = wait_ms < 0 ? ms : std::min(wait_ms, ms);
      };
      std::vector<int> fds;
      for (const Attempt& a : open) {
        fds.push_back(a.conn.fd());
        if (opt_.forward_timeout_ms > 0) wake_at(a.sent + silence);
      }
      if (may_hedge()) wake_at(open.back().sent + window);
      for (const std::size_t i : util::wait_readable(fds, wait_ms)) {
        Attempt& a = open[i];
        try {
          Response resp = a.conn.receive();
          // Only the winner's connection finished a clean exchange;
          // the losers still owe an answer and close with `open`.
          membership_.give_back(a.idx, std::move(a.conn));
          if (a.hedge) pm.hedge_wins.inc();
          span.arg("shard", static_cast<std::int64_t>(
                                membership_.endpoint(a.idx).id));
          if (tl) {
            // Graft the shard's timeline under this proxy's: shift to
            // when the winning forward was sent and nest one level
            // deeper, so a depth-0 walk of the merged waterfall never
            // double-counts shard time the forward stage covers.
            for (StageSpan& s : resp.timeline) {
              s.start_us += a.f0;
              s.depth += 1;
            }
            tl->stage(strprintf("forward shard=%llu",
                                static_cast<unsigned long long>(
                                    resp.shard_id)),
                      a.f0, tl->now_us() - a.f0);
          }
          cache_store(cache_key, resp);
          return resp;
        } catch (const Error& e) {
          fail(a.idx, e.what());
          a.dead = true;
        }
      }
      const auto after = Clock::now();
      for (Attempt& a : open) {
        if (a.dead || opt_.forward_timeout_ms <= 0 || after - a.sent < silence)
          continue;
        fail(a.idx,
             strprintf("silent for %d ms", opt_.forward_timeout_ms).c_str());
        a.dead = true;
      }
      owed = static_cast<int>(
          std::erase_if(open, [](const Attempt& a) { return a.dead; }));
      if (owed == 0 && after - open.back().sent >= window && may_hedge()) {
        owed = 1;
        hedge = true;
      }
    }
  }
  // Every owner (and every re-route) is gone.  A slightly-stale cached
  // answer is digest-identical to what a live shard would compute —
  // strictly better than a typed error for a read of a deterministic
  // function.
  Response cached;
  if (cache_lookup(cache_key, opt_.stale_ms, &cached)) {
    pm.stale_serves.inc();
    stale_serves_.fetch_add(1);
    if (tl) tl->marker("stale-serve");
    return cached;
  }
  pm.no_shards.inc();
  return server::status_response(req.type, Status::kError,
                                "no healthy shards: every backend is down "
                                "or failed mid-request");
}

Response Proxy::aggregate(const Request& req) {
  Response out;
  out.type = req.type;
  out.status = Status::kOk;

  Request probe;
  probe.type = req.type;
  std::vector<std::pair<std::string, std::string>> metric_sections;
  metric_sections.emplace_back("proxy",
                               obs::Registry::global().prometheus_text());

  const std::vector<ShardView> before = membership_.snapshot();
  bool shard_burning = false;
  for (std::size_t i = 0; i < before.size(); ++i) {
    server::ShardInfo info;
    info.shard_id = before[i].endpoint.id;
    info.endpoint = before[i].endpoint.display();
    info.epoch = before[i].epoch;
    info.healthy = false;
    info.stats = before[i].last_stats;
    if (before[i].healthy) {
      try {
        ProxyMetrics::get().forwards.inc();
        server::Client conn = membership_.take_conn(i);
        if (opt_.forward_timeout_ms > 0)
          conn.set_recv_timeout(opt_.forward_timeout_ms);
        Response r = conn.call(probe);
        membership_.give_back(i, std::move(conn));
        if (r.status == Status::kOk) {
          info.healthy = true;
          info.epoch = r.epoch;
          info.stats = r.stats;
          membership_.note_stats(i, r.stats, r.epoch);
          out.ready = out.ready || r.ready;
          out.in_flight += r.in_flight;
          out.admission_limit += r.admission_limit;
          shard_burning = shard_burning || r.slo_burning;
          if (req.type == ReqType::kMetricsDump)
            metric_sections.emplace_back(info.endpoint, r.report);
          if (req.type == ReqType::kTraceDump)
            out.spans.insert(out.spans.end(),
                             std::make_move_iterator(r.spans.begin()),
                             std::make_move_iterator(r.spans.end()));
        }
      } catch (const Error&) {
        membership_.eject(i);
        ProxyMetrics::get().shards_up.set(
            static_cast<std::int64_t>(membership_.up_count()));
      }
    }
    merge_stats(out.stats, info.stats);
    out.shards.push_back(std::move(info));
  }
  if (req.type == ReqType::kTraceDump) {
    // The proxy's own rings join the merged dump as pid 0 (shard ids
    // start at 1), on the same absolute unix-ns timebase the shards
    // used, so the collector needs no clock negotiation.
    server::append_tracer_spans(0, out.spans);
    if (out.spans.size() > kMergedSpanCap) {
      obs::logf(LogLevel::kWarn, "proxy",
                "tracedump truncated: %zu spans merged, keeping newest %zu",
                out.spans.size(), kMergedSpanCap);
      out.spans.erase(out.spans.begin(),
                      out.spans.end() - static_cast<std::ptrdiff_t>(
                                            kMergedSpanCap));
      out.stats.trace_dropped += 1;  // surfaced as a truncation warning
    }
  }
  if (req.type == ReqType::kMetricsDump)
    out.report = merge_prometheus(metric_sections);
  // Health from the routing tier's own perspective: ready as long as
  // any shard can take traffic.
  if (req.type == ReqType::kHealth) {
    bool any_up = false;
    for (const auto& sh : out.shards) any_up = any_up || sh.healthy;
    out.ready = out.ready && any_up;
  }
  // The proxy's own layers are part of the cluster's story: their
  // numbers fold in as if the proxy were one more shard.  Shards report
  // zeros for its quota/brownout/stale counters, and a disabled SLO
  // tracker reports zeros, which every MergeRule ignores.
  const ProxyMetrics& pm = ProxyMetrics::get();
  const obs::BurnRates burn = slo_.burn();
  StatsBody own;
  own.quota_rejections = quota_.rejections();
  own.brownout_sheds = brownout_sheds_.load();
  own.stale_serves = stale_serves_.load();
  own.sampled_requests = sampled_.load();
  own.trace_dropped = obs::Tracer::global().dropped_count();
  own.auth_failures = pm.auth_failures.value();
  own.idle_reaps = pm.idle_reaps.value();
  own.slo_p99_ms = opt_.slo_p99_ms;
  own.slo_availability = opt_.slo_availability;
  own.lat_burn_1m = burn.lat_1m;
  own.lat_burn_5m = burn.lat_5m;
  own.lat_burn_1h = burn.lat_1h;
  own.avail_burn_1m = burn.avail_1m;
  own.avail_burn_5m = burn.avail_5m;
  own.avail_burn_1h = burn.avail_1h;
  merge_stats(out.stats, own);
  // Cluster SLO verdict: the proxy's own client-facing burn, or any
  // shard already in breach; health says when load is being shed.
  out.slo_burning = burn.burning || shard_burning;
  std::size_t live = 0, total = 0;
  out.brownout = brownout_active(&live, &total);
  out.live_shards = live;
  out.total_shards = total;
  return out;
}

}  // namespace vppb::cluster
