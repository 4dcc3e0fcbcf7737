#include "server/server.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <thread>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "server/handlers.hpp"
#include "util/error.hpp"
#include "util/socket.hpp"
#include "util/strings.hpp"

namespace vppb::server {

namespace {
using obs::LogLevel;

/// How often an IO thread waiting for its worker checks whether the
/// client hung up, when the watchdog (whose interval it uses) is off.
constexpr std::int64_t kHangupCheckMs = 50;
}  // namespace

Server::Server(ServerOptions opt)
    : opt_(opt),
      faults_(opt.faults ? opt.faults : &util::FaultPlan::global()),
      cache_(opt.cache_entries, opt.cache_bytes, faults_),
      listener_(opt_, "server", metrics_.auth_failures, metrics_.idle_reaps,
                [this](std::vector<std::uint8_t>& payload,
                       std::uint64_t conn_id, int fd) {
                  return serve_frame(payload, conn_id, fd);
                }) {
  if (opt_.pool) {
    pool_ = opt_.pool;
  } else {
    owned_pool_ = std::make_unique<util::ThreadPool>(opt_.jobs);
    pool_ = owned_pool_.get();
  }
  cache_.configure_quarantine(opt_.poison_strikes, opt_.quarantine_ms);
  slo_.configure(obs::SloOptions{opt_.slo_p99_ms, opt_.slo_availability});
  metrics_.admission_limit.set(opt_.admission_limit);
}

Server::~Server() { stop(); }

void Server::start() {
  VPPB_CHECK_MSG(!listener_.running(), "server already started");
  // Epoch: unique per process start.  Mixing the pid into the clock
  // reading keeps two shards forked in the same tick distinguishable.
  epoch_ = static_cast<std::uint64_t>(
               std::chrono::steady_clock::now().time_since_epoch().count()) ^
           (static_cast<std::uint64_t>(::getpid()) << 48);
  if (epoch_ == 0) epoch_ = 1;
  // Always-on span capture (tracedump drains these rings; bench_obs
  // gates the enabled overhead < 3%).
  obs::Tracer::global().enable();
  listener_.start();
  watchdog_stop_.store(false);
  if (opt_.watchdog_interval_ms > 0)
    watchdog_thread_ = std::thread(&Server::watchdog_loop, this);
  obs::logf(LogLevel::kInfo, "server", "listening on %s (admission limit %d)",
            endpoint().c_str(), opt_.admission_limit);
  if (faults_->armed())
    obs::logf(LogLevel::kWarn, "server", "fault injection armed: %s",
              faults_->summary().c_str());
}

void Server::stop() {
  if (!listener_.stop()) return;
  // An abandoned worker task may still be running after its waiter
  // returned; it captures `this`, so it must finish before teardown.
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    drain_cv_.wait(lock, [&]() { return tasks_live_ == 0; });
  }
  // The watchdog outlives the drain so it can rescue draining
  // connections whose worker is wedged.
  watchdog_stop_.store(true);
  watch_cv_.notify_all();
  if (watchdog_thread_.joinable()) watchdog_thread_.join();
}

std::vector<std::uint8_t> Server::serve_frame(
    std::vector<std::uint8_t>& payload, std::uint64_t conn_id, int fd) {
  // Fault injection happens where real damage would: between the wire
  // and the decoder.  A corrupted payload must come back as a typed
  // kError response; a short read must cost exactly this connection and
  // nothing else.
  if (faults_->should_fire(util::FaultSite::kShortRead))
    throw Error("injected short read: dropping connection");
  if (!payload.empty() && faults_->should_fire(util::FaultSite::kCorruptFrame))
    payload[payload.size() / 2] ^= 0x20;
  Response resp = answer_frame(
      payload, [&](const Request& req) { return execute(req, conn_id, fd); });
  if (resp.status == Status::kError) metrics_.errors.inc();
  // Every response names its origin, not just the probe types: the
  // routing tier attributes compute answers (failover, hedging) by the
  // shard identity stamped here.
  resp.shard_id = opt_.shard_id;
  resp.epoch = epoch_;
  if (resp.timeline.empty()) return encode(resp);
  // The serialize stage cannot ride inside the bytes it measures; time
  // a first encode, then re-encode with the stage appended (only
  // timeline requests pay the double encode).
  std::int64_t last_us = 0;
  for (const StageSpan& sp : resp.timeline)
    last_us =
        std::max(last_us, sp.start_us + (sp.dur_us > 0 ? sp.dur_us : 0));
  const auto s0 = std::chrono::steady_clock::now();
  (void)encode(resp);
  const std::int64_t ser_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - s0)
          .count();
  resp.timeline.push_back(StageSpan{"serialize", last_us,
                                    std::max<std::int64_t>(ser_us, 1), 0});
  return encode(resp);
}

core::RunLimits Server::request_limits(const Request& req) const {
  core::RunLimits limits;
  limits.max_steps = opt_.max_steps;
  limits.max_sim_ms = opt_.max_sim_ms;
  limits.max_result_bytes = opt_.max_result_mb << 20;
  limits.max_wall_ms = opt_.max_wall_ms;
  if (req.deadline_ms > 0) limits.deadline_ms = req.deadline_ms;
  return limits;
}

bool Server::client_admit(std::uint64_t client) {
  std::lock_guard<std::mutex> lock(client_mu_);
  int& n = client_in_flight_[client];
  if (n >= opt_.per_client_limit) return false;
  ++n;
  return true;
}

void Server::client_release(std::uint64_t client) {
  std::lock_guard<std::mutex> lock(client_mu_);
  auto it = client_in_flight_.find(client);
  if (it != client_in_flight_.end() && --it->second <= 0)
    client_in_flight_.erase(it);
}

Response Server::execute(const Request& req, std::uint64_t conn_key,
                         int fd) {
  metrics_.count_request(req.type);
  if (req.trace_id != 0) metrics_.sampled.inc();
  const auto t0 = std::chrono::steady_clock::now();

  // Health answers before admission: a readiness probe that can be
  // rejected for overload cannot tell "busy but alive" from "dead",
  // which is the one question it exists to answer.
  if (req.type == ReqType::kHealth) return health_response();

  const bool compute = is_compute(req.type);

  // Quarantine check before any slot is reserved: a poisoned trace has
  // already cost workers; it must not cost admission capacity too.
  // Anything other than "quarantined" (unreadable file, ...) falls
  // through — the handler produces the authoritative error.
  if (compute) {
    try {
      cache_.check_poisoned(req.trace_path);
    } catch (const Poisoned& e) {
      metrics_.poisoned.inc();
      obs::logf(LogLevel::kWarn, "server", "poisoned: rejecting %s of %s",
                to_string(req.type), req.trace_path.c_str());
      return status_response(req.type, Status::kPoisoned, e.what());
    } catch (const std::exception&) {
    }
  }

  // Per-client fair admission before the global gate: one flooding
  // client exhausts its own quota, not the shared slots.
  // Identity order: explicit client_id, then the origin the routing
  // tier stamped (all proxy traffic shares pooled connections, so the
  // conn key alone cannot tell proxied callers apart), then the
  // connection itself.
  const std::uint64_t client = req.client_id != 0   ? req.client_id
                               : req.origin_id != 0 ? req.origin_id
                                                    : conn_key;
  const bool client_gated = opt_.per_client_limit > 0;
  if (client_gated && !client_admit(client)) {
    metrics_.overloads.inc();
    obs::logf(LogLevel::kDebug, "server",
              "overload: client %llu over per-client limit %d",
              static_cast<unsigned long long>(client), opt_.per_client_limit);
    return status_response(
        req.type, Status::kOverloaded,
        strprintf("client quota exceeded: %d requests in flight for this "
                  "client (per-client limit %d); retry later",
                  opt_.per_client_limit, opt_.per_client_limit));
  }

  // Admission: reserve a slot or reject immediately.  The count covers
  // requests posted to the pool but not yet finished, so a saturated
  // pool surfaces as explicit overload, never as unbounded queueing.
  if (in_flight_.fetch_add(1, std::memory_order_acq_rel) >=
      opt_.admission_limit) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    if (client_gated) client_release(client);
    metrics_.overloads.inc();
    obs::logf(LogLevel::kDebug, "server", "overload: rejecting %s request",
              to_string(req.type));
    return status_response(
        req.type, Status::kOverloaded,
        strprintf("server overloaded: %d requests in flight "
                  "(admission limit %d); retry later",
                  opt_.admission_limit, opt_.admission_limit));
  }

  auto st = std::make_shared<ReqState>();
  st->guard.arm(request_limits(req));
  st->type = req.type;
  st->trace_path = compute ? req.trace_path : std::string();
  std::int64_t posted_us = 0;
  if (req.want_timeline && compute) {
    st->timeline = std::make_unique<obs::Timeline>();
    // Admission covers everything from frame decode to the pool post
    // (quarantine + quota checks); queue is stamped by the worker when
    // it actually picks the request up.
    posted_us = st->timeline->now_us();
    st->timeline->stage("admission", 0, posted_us);
  }
  {
    std::lock_guard<std::mutex> lock(watch_mu_);
    watched_.push_back(st);
  }
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    ++tasks_live_;
  }
  pool_->post([this, req, st, posted_us]() {
    if (st->timeline)
      st->timeline->stage("queue", posted_us,
                          st->timeline->now_us() - posted_us);
    Response r = dispatch(req, *st);
    {
      // The watchdog may have answered the client already; its verdict
      // stands and this (late) result is discarded.
      std::lock_guard<std::mutex> lock(st->mu);
      if (!st->done) {
        st->resp = std::move(r);
        st->done = true;
        st->cv.notify_one();
      }
    }
    std::lock_guard<std::mutex> lock(drain_mu_);
    if (--tasks_live_ == 0) drain_cv_.notify_all();
  });

  Response resp;
  {
    // Wait in slices, and cancel the request of a client that hung up:
    // its worker stops at the next guard checkpoint instead of
    // computing an answer nobody reads.  The listener's drain
    // half-closes every connection, which reads like a hang-up, so the
    // check ends when the listener stops.
    const std::chrono::milliseconds slice(opt_.watchdog_interval_ms > 0
                                              ? opt_.watchdog_interval_ms
                                              : kHangupCheckMs);
    std::unique_lock<std::mutex> lock(st->mu);
    while (!st->cv.wait_for(lock, slice, [&]() { return st->done; })) {
      if (!st->hung_up && util::peer_hung_up(fd) && listener_.running()) {
        st->hung_up = true;
        st->guard.cancel();
        obs::logf(LogLevel::kInfo, "server",
                  "client hung up: cancelled its %s request",
                  to_string(req.type));
      }
    }
    resp = std::move(st->resp);
  }
  {
    std::lock_guard<std::mutex> lock(watch_mu_);
    for (auto it = watched_.begin(); it != watched_.end(); ++it) {
      if (it->get() == st.get()) {
        watched_.erase(it);
        break;
      }
    }
  }
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  if (client_gated) client_release(client);

  // A result computed after the deadline passed is as useless to the
  // client as no result: report it as such, so deadline semantics hold
  // even when no handler checkpoint happened to notice the expiry.
  if (resp.status == Status::kOk && st->guard.deadline_passed()) {
    resp = status_response(req.type, Status::kDeadlineExceeded,
                           "deadline exceeded: result completed too late");
    metrics_.deadlines.inc();
  }

  const double latency_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - t0)
          .count();
  metrics_.latency_us.observe(latency_us, req.sampled ? req.trace_id : 0);
  if (compute && !st->hung_up) {
    // SLO accounting covers compute only: probes and dumps are not the
    // service the objectives are about, and a client that hung up saw
    // no answer, good or bad.
    slo_.record(latency_us, !spends_error_budget(resp.status));
  }
  obs::logf(LogLevel::kDebug, "server", "%s -> status %d in %.0f us",
            to_string(req.type), static_cast<int>(resp.status), latency_us);
  return resp;
}

Response Server::dispatch(const Request& req, ReqState& st) {
  // Propagated trace context: every span this worker opens while the
  // handler runs carries the caller's trace id, so a cross-process
  // trace-collect can stitch proxy and shard spans into one trace.
  obs::TraceContext tctx(req.sampled ? req.trace_id : 0);
  Response resp = [&]() -> Response {
  try {
    // A request that spent its whole budget waiting for a worker is
    // abandoned here, before any compute.
    st.guard.check_wall();
    // Worker-side stall faults.  delay-ms is cooperative: it polls the
    // guard, so a watchdog cancel cuts it short.  wedge-ms is not — it
    // models a worker stuck in a tight native loop, which only the
    // watchdog's abandon-and-replace escalation can get past.
    if (faults_->should_fire(util::FaultSite::kDelayResponse)) {
      const auto until =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(
              faults_->param(util::FaultSite::kDelayResponse));
      while (std::chrono::steady_clock::now() < until) {
        st.guard.check_cancel();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    if (faults_->should_fire(util::FaultSite::kWedge))
      std::this_thread::sleep_for(std::chrono::milliseconds(
          faults_->param(util::FaultSite::kWedge)));
    switch (req.type) {
      case ReqType::kPredict:
        return handle_predict(req, cache_, &st.guard, st.timeline.get());
      case ReqType::kSimulate:
        return handle_simulate(req, cache_, &st.guard, st.timeline.get());
      case ReqType::kAnalyze:
        return handle_analyze(req, cache_, &st.guard, st.timeline.get());
      case ReqType::kStats:
        return stats_response(req.type);
      case ReqType::kHealth:
        return health_response();  // normally answered pre-admission
      case ReqType::kMetricsDump: {
        // The process-wide layers (engine, loader, pool, guard, tracer),
        // then this server's request families, then its cache's.  The
        // text rides in `report`, the channel `analyze` uses.
        Response resp = stats_response(req.type);
        resp.report = obs::Registry::global().prometheus_text() +
                      metrics_.registry.prometheus_text() +
                      cache_.registry().prometheus_text();
        return resp;
      }
      case ReqType::kTraceDump: {
        Response resp = stats_response(req.type);
        append_tracer_spans(opt_.shard_id, resp.spans);
        return resp;
      }
    }
    throw Error("unhandled request type");
  } catch (const core::BudgetExceeded& e) {
    // The request's own deadline, or a watchdog cancel of a request
    // whose deadline has passed, is the caller's limit: a typed miss
    // and no strike.  Every other trip is a server budget, and a trace
    // that eats one is on its way to quarantine.
    if (e.trip() == core::GuardTrip::kDeadline) {
      metrics_.deadlines.inc();
      return status_response(req.type, Status::kDeadlineExceeded, e.what());
    }
    if (e.trip() == core::GuardTrip::kCancelled &&
        st.guard.deadline_passed()) {
      metrics_.deadlines.inc();
      return status_response(req.type, Status::kDeadlineExceeded,
                             "deadline exceeded: cancelled by the watchdog");
    }
    if (e.trip() == core::GuardTrip::kCancelled && st.hung_up) {
      // Nobody reads this answer, and the trace spent no budget.
      return status_response(req.type, Status::kError,
                             "cancelled: the client closed its connection");
    }
    metrics_.budget_kills.inc();
    if (!st.trace_path.empty()) cache_.record_strike(st.trace_path);
    return status_response(req.type, Status::kBudgetExceeded, e.what());
  } catch (const Poisoned& e) {
    // The quarantine tripped between the pre-admission check and the
    // cache lookup (another worker's strike landed in the window).
    metrics_.poisoned.inc();
    return status_response(req.type, Status::kPoisoned, e.what());
  } catch (const std::bad_alloc&) {
    // Allocation failure is the "crash" half of the poison ledger: a
    // trace that blows the heap will do it again on retry.
    if (!st.trace_path.empty()) cache_.record_strike(st.trace_path);
    return status_response(req.type, Status::kError,
                           "out of memory while serving request");
  } catch (const std::exception& e) {
    // std::exception, not just vppb::Error: an unexpected exception must
    // become a typed response, never a dead worker.
    return status_response(req.type, Status::kError, e.what());
  }
  }();
  // The worker — not the IO thread — moves the timeline into the
  // response, so a watchdog-answered request simply carries none and no
  // reader ever races a wedged worker still stamping stages.
  if (st.timeline != nullptr) resp.timeline = std::move(st.timeline->stages());
  return resp;
}

void Server::watchdog_loop() {
  for (;;) {
    std::vector<std::shared_ptr<ReqState>> snapshot;
    {
      std::unique_lock<std::mutex> lock(watch_mu_);
      watch_cv_.wait_for(
          lock, std::chrono::milliseconds(opt_.watchdog_interval_ms),
          [&]() { return watchdog_stop_.load(); });
      if (watchdog_stop_.load()) return;
      snapshot = watched_;
    }
    for (const auto& st : snapshot) watchdog_scan(st);
  }
}

void Server::watchdog_scan(const std::shared_ptr<ReqState>& st) {
  {
    std::lock_guard<std::mutex> lock(st->mu);
    if (st->done) return;
  }
  const auto now = std::chrono::steady_clock::now();
  if (!st->cancelled) {
    if (!st->guard.deadline_passed() && !st->guard.wall_passed()) return;
    // First rung: cooperative.  A worker at any guard checkpoint sees
    // this on its next step and unwinds with a typed error.
    st->guard.cancel();
    st->cancelled = true;
    st->cancelled_at = now;
    metrics_.watchdog_cancels.inc();
    obs::logf(LogLevel::kWarn, "server",
              "watchdog: cancelled overdue %s request",
              to_string(st->type));
    return;
  }
  if (st->abandoned) return;
  if (now - st->cancelled_at <
      std::chrono::milliseconds(opt_.watchdog_escalate_ms))
    return;
  // Second rung: the worker ignored the cancel for the whole escalation
  // grace — treat it as wedged.  Answer the client in its stead, put the
  // content on the poison ledger, and restore the pool capacity the
  // wedged worker is sitting on.
  const bool missed = st->guard.deadline_passed();
  (missed ? metrics_.deadlines : metrics_.budget_kills).inc();
  Response resp = status_response(
      st->type,
      missed ? Status::kDeadlineExceeded : Status::kBudgetExceeded,
      std::string(missed ? "deadline exceeded" : "wall-time budget exceeded") +
          ": worker unresponsive, request abandoned");
  {
    std::lock_guard<std::mutex> lock(st->mu);
    if (st->done) return;  // the worker came back at the last moment
    st->resp = std::move(resp);
    st->done = true;
    st->cv.notify_one();
  }
  st->abandoned = true;
  if (!st->trace_path.empty()) cache_.record_strike(st->trace_path);
  if (replacements_made_ < kWatchdogMaxReplacements) {
    ++replacements_made_;
    pool_->grow(1);
    metrics_.watchdog_replacements.inc();
    obs::logf(LogLevel::kWarn, "server",
              "watchdog: abandoned wedged %s request, grew pool "
              "(replacement %d of %d)",
              to_string(st->type), replacements_made_,
              kWatchdogMaxReplacements);
  } else {
    obs::logf(LogLevel::kWarn, "server",
              "watchdog: abandoned wedged %s request (replacement "
              "budget exhausted)",
              to_string(st->type));
  }
}

Response Server::stats_response(ReqType type) {
  Response resp;
  resp.type = type;
  resp.shard_id = opt_.shard_id;
  resp.epoch = epoch_;
  StatsBody& s = resp.stats;
  metrics_.snapshot(s);  // includes this request itself
  const TraceCache::Stats cs = cache_.stats();
  s.cache_hits = cs.hits;
  s.cache_misses = cs.misses;
  s.cache_evictions = cs.evictions;
  s.cache_waits = cs.waits;
  s.cache_entries = cs.entries;
  s.cache_bytes = cs.bytes;
  s.poison_strikes = cs.poison_strikes;
  s.quarantined = cs.quarantined;
  s.slo_p99_ms = opt_.slo_p99_ms;
  s.slo_availability = opt_.slo_availability;
  const obs::BurnRates burn = slo_.burn();
  s.lat_burn_1m = burn.lat_1m;
  s.lat_burn_5m = burn.lat_5m;
  s.lat_burn_1h = burn.lat_1h;
  s.avail_burn_1m = burn.avail_1m;
  s.avail_burn_5m = burn.avail_5m;
  s.avail_burn_1h = burn.avail_1h;
  s.trace_dropped = obs::Tracer::global().dropped_count();
  resp.slo_burning = burn.burning;
  // The point-in-time gauges come from the same reading, so a
  // metricsdump agrees with the body it rides with.  Burn rates export
  // in milli-units (burn x1000): 1000 = burning exactly at the
  // objective's sustainable rate.
  metrics_.in_flight.set(in_flight_.load(std::memory_order_acquire));
  metrics_.slo_latency_burn_5m_milli.set(
      static_cast<std::int64_t>(burn.lat_5m * 1000.0));
  metrics_.slo_availability_burn_5m_milli.set(
      static_cast<std::int64_t>(burn.avail_5m * 1000.0));
  metrics_.slo_burning.set(burn.burning ? 1 : 0);
  return resp;
}

Response Server::health_response() {
  Response resp = stats_response(ReqType::kHealth);
  resp.ready = listener_.running();
  resp.in_flight = static_cast<std::uint64_t>(metrics_.in_flight.value());
  resp.admission_limit = static_cast<std::uint64_t>(opt_.admission_limit);
  return resp;
}

}  // namespace vppb::server
