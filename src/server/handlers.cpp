#include "server/handlers.hpp"

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/sweep.hpp"
#include "obs/span.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "viz/analysis.hpp"
#include "viz/visualizer.hpp"

namespace vppb::server {
namespace {

/// Largest simulated machine a request may ask for: generous for any
/// real what-if question, small enough that a corrupt frame cannot
/// request a year of simulation.
constexpr int kMaxRequestCpus = 4096;

void check_range(const char* what, std::int64_t v, std::int64_t lo,
                 std::int64_t hi) {
  if (v < lo || v > hi)
    throw Error(strprintf("%s %lld out of range [%lld, %lld]", what,
                          static_cast<long long>(v),
                          static_cast<long long>(lo),
                          static_cast<long long>(hi)));
}

/// A handler checkpoint: throws once the request's deadline or wall
/// ceiling has passed.
void checkpoint(const core::RunGuard* guard) {
  if (guard != nullptr) guard->check_wall();
}

/// Fetches the cache entry, stamping the timeline stage as
/// "cache-lookup" (hit) or "compile" (this request paid parse+compile).
std::shared_ptr<const TraceCache::Entry> timed_get(
    TraceCache& cache, const Request& req, const core::RunGuard* guard,
    obs::Timeline* tl) {
  if (tl == nullptr) return cache.get(req.trace_path, guard);
  const std::int64_t t0 = tl->now_us();
  bool loaded = false;
  auto entry = cache.get(req.trace_path, guard, &loaded);
  tl->stage(loaded ? "compile" : "cache-lookup", t0, tl->now_us() - t0);
  return entry;
}

/// Returns fn(), stamping the time it took as the timeline stage `name`.
template <typename Fn>
auto timed(obs::Timeline* tl, const char* name, Fn&& fn) {
  const std::int64_t t0 = tl != nullptr ? tl->now_us() : 0;
  auto out = fn();
  if (tl != nullptr) tl->stage(name, t0, tl->now_us() - t0);
  return out;
}

/// The common front of simulate and analyze: one run at req.cpus.  The
/// response (of `type`) carries the run's result fields; the run and
/// its cache entry stay for the caller's render or report stage.
struct OneRun {
  Response resp;
  std::shared_ptr<const TraceCache::Entry> entry;
  core::SimResult result;
};

OneRun run_once(ReqType type, const Request& req, TraceCache& cache,
                const core::RunGuard* guard, obs::Timeline* tl) {
  check_range("cpus", req.cpus, 1, kMaxRequestCpus);
  OneRun run;
  run.resp.type = type;
  checkpoint(guard);
  run.entry = timed_get(cache, req, guard, tl);
  const core::SimConfig cfg = sim_config(req);

  checkpoint(guard);
  run.result = timed(tl, "simulate", [&] {
    return core::SweepRunner::shared().run(run.entry->compiled, cfg, guard);
  });
  const core::SimResult& r = run.result;
  run.resp.total_ns = r.total.ns();
  run.resp.speedup = r.speedup;
  run.resp.cpus = r.cpus;
  run.resp.lwps = r.lwps;
  run.resp.events = r.events.size();
  run.resp.digest = core::digest(r);
  return run;
}

}  // namespace

core::SimConfig sim_config(const Request& req) {
  check_range("lwps", req.lwps, 0, 1 << 20);
  check_range("comm-delay-us", req.comm_delay_us, 0, 86400000000LL);
  core::SimConfig cfg;
  cfg.hw.cpus = req.cpus;
  cfg.sched.lwps = req.lwps;
  cfg.hw.comm_delay = SimTime::micros(req.comm_delay_us);
  return cfg;
}

Response handle_predict(const Request& req, TraceCache& cache,
                        const core::RunGuard* guard, obs::Timeline* tl) {
  check_range("max-cpus", req.max_cpus, 1, kMaxRequestCpus);
  Response resp;
  resp.type = ReqType::kPredict;
  checkpoint(guard);
  const std::shared_ptr<const TraceCache::Entry> entry =
      timed_get(cache, req, guard, tl);
  const core::SimConfig base = sim_config(req);

  std::vector<int> cpu_counts;
  for (int cpus = 1; cpus <= req.max_cpus; cpus *= 2)
    cpu_counts.push_back(cpus);

  // The sweep runs serially inside this handler (jobs = 1, so it starts
  // no sweep workers): the service gets its parallelism from concurrent
  // requests sharing the server's pool, and the timeline stamps below
  // come from one thread.  Responses stay bit-identical to the offline
  // `vppb predict` (which the combined digest proves).  Each
  // point first checks the guard's clock, so a sweep cannot overstay.  The
  // parent "simulate" stage is stamped before its per-point children, so
  // it lists first; each finished point stretches it to cover that point.
  std::size_t sim_stage = 0;
  if (tl != nullptr) {
    sim_stage = tl->stages().size();
    tl->stage("simulate", tl->now_us(), 0);
  }
  std::vector<core::SimResult> results;
  core::SweepOptions opt;
  opt.jobs = 1;
  opt.results = &results;
  opt.guard = guard;
  opt.each_point = [&](int cpus, const std::function<void()>& run) {
    checkpoint(guard);
    if (tl == nullptr) return run();
    const std::int64_t pt0 = tl->now_us();
    run();
    const std::int64_t end = tl->now_us();
    tl->stage(strprintf("cpus=%d", cpus), pt0, end - pt0, 1);
    obs::Stage& sim = tl->stages()[sim_stage];
    sim.dur_us = end - sim.start_us;
  };
  const core::SpeedupCurve curve = core::SweepRunner::shared().sweep(
      entry->compiled, cpu_counts, base, opt);

  for (std::size_t i = 0; i < curve.points().size(); ++i) {
    const core::SweepPoint& p = curve.points()[i];
    resp.points.push_back(WirePoint{p.cpus, p.speedup, p.efficiency,
                                    p.total.ns(),
                                    core::digest(results[i])});
  }
  resp.serial_fraction = curve.amdahl_serial_fraction();
  resp.knee = curve.knee(0.5);
  resp.digest = core::digest(results);
  return resp;
}

Response handle_simulate(const Request& req, TraceCache& cache,
                         const core::RunGuard* guard, obs::Timeline* tl) {
  OneRun run = run_once(ReqType::kSimulate, req, cache, guard, tl);
  if (req.want_svg) {
    checkpoint(guard);
    run.resp.svg = timed(tl, "render-svg", [&run] {
      viz::Visualizer v(run.result, run.entry->trace);
      v.compress_threads();
      return viz::render_svg(v, viz::RenderOptions{});
    });
  }
  return std::move(run.resp);
}

Response handle_analyze(const Request& req, TraceCache& cache,
                        const core::RunGuard* guard, obs::Timeline* tl) {
  OneRun run = run_once(ReqType::kAnalyze, req, cache, guard, tl);
  checkpoint(guard);
  run.resp.report = timed(tl, "analyze-report", [&run] {
    return viz::analyze(run.result, run.entry->trace).to_string();
  });
  return std::move(run.resp);
}

void append_tracer_spans(std::uint64_t pid, std::vector<WireSpan>& out) {
  const obs::Tracer& tracer = obs::Tracer::global();
  // Absolute unix-ns timestamps: each process stamps events against its
  // own captured system-clock epoch, so the collector merges dumps from
  // proxy + shards without any clock negotiation.
  const std::int64_t epoch_unix = tracer.epoch_unix_ns();
  // Per-ring cap keeps the dump (64 threads x cap) under kMaxFrame even
  // with every ring full.
  for (const obs::Tracer::SnapshotEvent& se : tracer.snapshot(1u << 15)) {
    WireSpan w;
    w.pid = pid;
    w.tid = se.tid;
    w.name = se.ev.name != nullptr ? se.ev.name : "?";
    w.cat = se.ev.cat != nullptr ? se.ev.cat : "vppb";
    w.start_unix_ns = epoch_unix + se.ev.start_ns;
    w.dur_ns = se.ev.dur_ns;
    w.trace_id = se.ev.trace_id;
    if (se.ev.arg_name != nullptr) {
      w.arg_name = se.ev.arg_name;
      w.arg_value = se.ev.arg_value;
    }
    out.push_back(std::move(w));
  }
}

}  // namespace vppb::server
