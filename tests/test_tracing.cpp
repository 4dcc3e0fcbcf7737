// Tests for distributed tracing & SLO burn rates (protocol v7): wire
// round-trips of the trace context / timeline / span fields with
// every-prefix truncation, the SLO burn-rate engine under a
// deterministic clock, histogram exemplars, tracer-ring drop
// accounting, the tracing-on digest parity over every pinned golden,
// and end-to-end timeline/tracedump/SLO behaviour through an embedded
// server and a two-shard proxy rig.
//
// Run with `ctest -L obs` (the in-process suites) — the proxy rig also
// carries the cluster label.  Built under -DVPPB_SANITIZE=thread in
// the sanitizer lane.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "cluster/membership.hpp"
#include "cluster/proxy.hpp"
#include "core/engine.hpp"
#include "golden_cases.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "obs/timeline.hpp"
#include "recorder/recorder.hpp"
#include "server/client.hpp"
#include "server/handlers.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/trace_cache.hpp"
#include "solaris/program.hpp"
#include "trace/io.hpp"
#include "util/error.hpp"
#include "workloads/synthetic.hpp"

namespace vppb {
namespace {

using server::Client;
using server::ReqType;
using server::Request;
using server::Response;
using server::Status;

/// A fresh path under the system temp dir; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& tag) {
    static std::atomic<int> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("vppb_tracing_" + tag + "_" + std::to_string(::getpid()) +
              "_" + std::to_string(counter.fetch_add(1))))
                .string();
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void write_trace(const std::string& path, int threads, std::int64_t work_us) {
  sol::Program program;
  const trace::Trace t = rec::record_program(program, [&]() {
    workloads::fork_join(threads, SimTime::micros(work_us));
  });
  trace::save_file(t, path);
}

Request predict_request(const std::string& path) {
  Request req;
  req.type = ReqType::kPredict;
  req.trace_path = path;
  req.max_cpus = 4;
  return req;
}

// ---- protocol v7 wire ------------------------------------------------------

TEST(ProtocolV7Test, TraceContextRoundTripsOnRequests) {
  Request req;
  req.type = ReqType::kPredict;
  req.trace_path = "some/trace.vppb";
  req.max_cpus = 8;
  req.trace_id = 0xdeadbeefcafef00dULL;
  req.parent_span_id = 0x1234;
  req.sampled = true;
  req.want_timeline = true;
  const std::vector<std::uint8_t> full = server::encode(req);
  const Request back = server::decode_request(full);
  EXPECT_EQ(back.trace_id, req.trace_id);
  EXPECT_EQ(back.parent_span_id, req.parent_span_id);
  EXPECT_TRUE(back.sampled);
  EXPECT_TRUE(back.want_timeline);
  // Every strict prefix must be rejected with the typed error, never
  // decoded as a shorter-but-valid older request.
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(full.begin(), full.begin() + cut);
    EXPECT_THROW((void)server::decode_request(prefix), Error)
        << "prefix of " << cut << " bytes decoded";
  }
}

TEST(ProtocolV7Test, TimelineAndSpansRoundTripOnResponses) {
  Response resp;
  resp.status = Status::kOk;
  resp.type = ReqType::kTraceDump;
  resp.shard_id = 3;
  resp.slo_burning = true;
  resp.trace_id = 0xabcdef;
  resp.stats.slo_p99_ms = 25.0;
  resp.stats.slo_availability = 0.999;
  resp.stats.lat_burn_5m = 7.25;
  resp.stats.avail_burn_1h = 0.5;
  resp.stats.sampled_requests = 17;
  resp.stats.trace_dropped = 4;
  resp.timeline.push_back({"queue", 0, 120, 0});
  resp.timeline.push_back({"simulate", 120, 4500, 1});
  resp.timeline.push_back({"stale-serve", 300, -1, 0});  // instant marker
  server::WireSpan full_span;
  full_span.pid = 2;
  full_span.tid = 7;
  full_span.name = "server.dispatch";
  full_span.cat = "server";
  full_span.start_unix_ns = 1700000000123456789LL;
  full_span.dur_ns = 88000;
  full_span.trace_id = 0xabcdef;
  full_span.arg_name = "cpus";
  full_span.arg_value = 4;
  resp.spans.push_back(full_span);
  server::WireSpan instant;
  instant.pid = 0;
  instant.name = "hedge";
  instant.start_unix_ns = 1700000000123000000LL;
  instant.dur_ns = -1;
  resp.spans.push_back(instant);

  const std::vector<std::uint8_t> full = server::encode(resp);
  const Response back = server::decode_response(full);
  EXPECT_TRUE(back.slo_burning);
  EXPECT_EQ(back.trace_id, resp.trace_id);
  EXPECT_DOUBLE_EQ(back.stats.slo_p99_ms, 25.0);
  EXPECT_DOUBLE_EQ(back.stats.slo_availability, 0.999);
  EXPECT_DOUBLE_EQ(back.stats.lat_burn_5m, 7.25);
  EXPECT_DOUBLE_EQ(back.stats.avail_burn_1h, 0.5);
  EXPECT_EQ(back.stats.sampled_requests, 17u);
  EXPECT_EQ(back.stats.trace_dropped, 4u);
  ASSERT_EQ(back.timeline.size(), 3u);
  EXPECT_EQ(back.timeline[0].name, "queue");
  EXPECT_EQ(back.timeline[1].dur_us, 4500);
  EXPECT_EQ(back.timeline[1].depth, 1u);
  EXPECT_EQ(back.timeline[2].dur_us, -1);
  ASSERT_EQ(back.spans.size(), 2u);
  EXPECT_EQ(back.spans[0].pid, 2u);
  EXPECT_EQ(back.spans[0].tid, 7u);
  EXPECT_EQ(back.spans[0].name, "server.dispatch");
  EXPECT_EQ(back.spans[0].start_unix_ns, full_span.start_unix_ns);
  EXPECT_EQ(back.spans[0].dur_ns, 88000);
  EXPECT_EQ(back.spans[0].trace_id, 0xabcdefu);
  EXPECT_EQ(back.spans[0].arg_name, "cpus");
  EXPECT_EQ(back.spans[0].arg_value, 4);
  EXPECT_EQ(back.spans[1].dur_ns, -1);
  EXPECT_TRUE(back.spans[1].arg_name.empty());

  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(full.begin(), full.begin() + cut);
    EXPECT_THROW((void)server::decode_response(prefix), Error)
        << "prefix of " << cut << " bytes decoded";
  }
}

// ---- SLO burn-rate engine --------------------------------------------------

TEST(SloTrackerTest, HealthyTrafficBurnsAtMostOne) {
  obs::SloTracker slo(obs::SloOptions{10.0, 0.99});
  // 1 slow / 1 failed out of 100 is exactly the allowed 1%: burn 1.0,
  // never a breach.
  for (int i = 0; i < 99; ++i) slo.record(1000.0, true, 1000);
  slo.record(50000.0, false, 1000);
  const obs::BurnRates b = slo.burn(1000);
  EXPECT_NEAR(b.lat_1m, 1.0, 1e-9);
  EXPECT_NEAR(b.avail_5m, 1.0, 1e-9);
  EXPECT_FALSE(b.burning);
}

TEST(SloTrackerTest, SustainedViolationsBreachBothWindowPairs) {
  obs::SloTracker slo(obs::SloOptions{10.0, 0.0});
  // Every request over the target: burn = 1 / 0.01 = 100 in every
  // window — far past both the fast (14.4) and slow (6.0) thresholds.
  for (int i = 0; i < 50; ++i) slo.record(50000.0, true, 2000);
  const obs::BurnRates b = slo.burn(2000);
  EXPECT_NEAR(b.lat_1m, 100.0, 1e-9);
  EXPECT_NEAR(b.lat_5m, 100.0, 1e-9);
  EXPECT_NEAR(b.lat_1h, 100.0, 1e-9);
  EXPECT_TRUE(b.burning);
}

TEST(SloTrackerTest, FastBurnNeedsTheShortWindowToo) {
  obs::SloTracker slo(obs::SloOptions{10.0, 0.0});
  // A burst of slow requests 2 minutes ago, against a long healthy
  // baseline: the 5m window burns past the slow threshold, but the 1m
  // window is clean (kills the fast pair) and the 1h window is diluted
  // below the slow threshold (kills the slow pair) — a finished burst
  // must not page.
  for (int s = 0; s <= 2800; ++s)
    for (int i = 0; i < 50; ++i) slo.record(1000.0, true, s);
  for (int i = 0; i < 600; ++i) slo.record(50000.0, true, 3000);
  for (int s = 3001; s <= 3120; ++s)
    for (int i = 0; i < 50; ++i) slo.record(1000.0, true, s);
  const obs::BurnRates b = slo.burn(3120);
  EXPECT_NEAR(b.lat_1m, 0.0, 1e-9);
  EXPECT_GT(b.lat_5m, obs::SloTracker::kSlowBurn);   // 600/6600 -> ~9.1
  EXPECT_LT(b.lat_1h, obs::SloTracker::kSlowBurn);   // diluted -> ~0.4
  EXPECT_FALSE(b.burning);
}

TEST(SloTrackerTest, HistoryAgesOutOfTheRing) {
  obs::SloTracker slo(obs::SloOptions{10.0, 0.99});
  for (int i = 0; i < 50; ++i) slo.record(50000.0, false, 5000);
  EXPECT_TRUE(slo.burn(5000).burning);
  // One hour later every window has slid past the incident.
  const obs::BurnRates later = slo.burn(5000 + 3601);
  EXPECT_DOUBLE_EQ(later.lat_1h, 0.0);
  EXPECT_DOUBLE_EQ(later.avail_1h, 0.0);
  EXPECT_FALSE(later.burning);
}

TEST(SloTrackerTest, DisabledObjectivesNeverBurn) {
  obs::SloTracker slo;
  EXPECT_FALSE(slo.enabled());
  for (int i = 0; i < 50; ++i) slo.record(50000.0, false, 1000);
  const obs::BurnRates b = slo.burn(1000);
  EXPECT_DOUBLE_EQ(b.lat_5m, 0.0);
  EXPECT_DOUBLE_EQ(b.avail_5m, 0.0);
  EXPECT_FALSE(b.burning);
}

// ---- exemplars -------------------------------------------------------------

TEST(ExemplarTest, HistogramBucketLinksToTheLastObservedTrace) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("t_ex_lat_us", "Latency", {10.0, 100.0});
  h.observe(5.0);                       // no exemplar
  h.observe(50.0, 0x00ff00ff00ff00ffULL);
  const std::string text = reg.prometheus_text();
  // The traced observation's bucket carries the OpenMetrics exemplar
  // suffix; the untraced bucket stays plain.
  EXPECT_NE(text.find("t_ex_lat_us_bucket{le=\"100\"} 2 "
                      "# {trace_id=\"00ff00ff00ff00ff\"} 50"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("t_ex_lat_us_bucket{le=\"10\"} 1\n"),
            std::string::npos)
      << text;
}

// ---- tracer: drops, context, clock ----------------------------------------

TEST(TracerTest, RingOverflowIsCountedAndExposed) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.enable();
  const std::size_t before = tracer.dropped_count();
  ASSERT_EQ(before, 0u);  // clear() resets the per-ring overflow
  for (std::size_t i = 0; i < obs::Tracer::kRingCapacity + 100; ++i)
    obs::instant("overfill", "test");
  tracer.disable();
  EXPECT_GE(tracer.dropped_count(), 100u);
  const std::string text = obs::Registry::global().prometheus_text();
  EXPECT_NE(text.find("vppb_trace_dropped_total"), std::string::npos);
  tracer.clear();
}

TEST(TracerTest, TraceContextTagsSpansAndNests) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.enable();
  {
    obs::TraceContext outer(0x1111);
    { obs::Span s("outer-span", "test"); }
    {
      obs::TraceContext inner(0x2222);
      { obs::Span s("inner-span", "test"); }
    }
    // The inner context restored the outer id on destruction.
    EXPECT_EQ(obs::TraceContext::current(), 0x1111u);
    { obs::Span s("outer-again", "test"); }
  }
  EXPECT_EQ(obs::TraceContext::current(), 0u);
  tracer.disable();
  std::uint64_t outer_tagged = 0, inner_tagged = 0;
  for (const obs::Tracer::SnapshotEvent& ev : tracer.snapshot()) {
    if (ev.ev.trace_id == 0x1111) ++outer_tagged;
    if (ev.ev.trace_id == 0x2222) ++inner_tagged;
  }
  EXPECT_EQ(outer_tagged, 2u);
  EXPECT_EQ(inner_tagged, 1u);
  tracer.clear();
}

TEST(TracerTest, SnapshotTimestampsAlignToTheUnixClock) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.enable();
  const std::int64_t wall_before =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  { obs::Span s("clock-span", "test"); }
  tracer.disable();
  const std::vector<obs::Tracer::SnapshotEvent> events = tracer.snapshot();
  ASSERT_FALSE(events.empty());
  // epoch + offset is how tracedump exports absolute time; it must land
  // within a few seconds of the wall clock read around the span.
  const std::int64_t abs_ns =
      tracer.epoch_unix_ns() + events.back().ev.start_ns;
  EXPECT_GT(abs_ns, wall_before - 5'000'000'000LL);
  EXPECT_LT(abs_ns, wall_before + 5'000'000'000LL);
  tracer.clear();
}

// ---- tracing must not change simulation results ---------------------------

TEST(GoldenDigestTest, AllGoldensBitIdenticalWithTracingAndContextOn) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.enable();
  obs::TraceContext ctx(0x60d60d);  // tag everything, as a served request is
  for (const core::GoldenCase& gc : core::kGoldenCases) {
    const core::CompiledTrace compiled = core::record_compiled(gc.workload);
    core::SimConfig cfg;
    gc.configure(cfg);
    const core::SimResult result = core::simulate(compiled, cfg);
    EXPECT_EQ(core::digest(result), gc.golden)
        << gc.name << " digest changed with tracing enabled";
  }
  tracer.disable();
  tracer.clear();
}

// ---- handler timelines -----------------------------------------------------

TEST(TimelineTest, PredictStampsCompileThenPerPointStages) {
  TempFile trace("tl");
  write_trace(trace.path(), 3, 300);
  server::TraceCache cache(4, 256u << 20);
  obs::Timeline tl;
  const Response r = server::handle_predict(predict_request(trace.path()),
                                            cache, nullptr, &tl);
  ASSERT_EQ(r.status, Status::kOk) << r.error;
  bool saw_compile = false, saw_point = false;
  const obs::Stage* simulate = nullptr;
  for (const obs::Stage& s : tl.stages()) {
    if (s.name == "compile") {
      saw_compile = true;
      EXPECT_EQ(s.depth, 0u);
      EXPECT_GE(s.dur_us, 0);
    }
    if (s.name == "simulate") simulate = &s;
    if (s.name.rfind("cpus=", 0) == 0) {
      saw_point = true;
      EXPECT_EQ(s.depth, 1u);  // nested under the sweep
      // The parent is stamped when it opens: it lists (and so prints,
      // after a stable sort on start time) before each of its points,
      // and its span contains theirs.
      ASSERT_NE(simulate, nullptr) << s.name << " listed before simulate";
      EXPECT_LE(simulate->start_us, s.start_us) << s.name;
      EXPECT_GE(simulate->start_us + simulate->dur_us, s.start_us + s.dur_us)
          << s.name;
    }
  }
  EXPECT_TRUE(saw_compile);
  EXPECT_TRUE(saw_point);

  // Second run hits the cache: the lookup is stamped as such.
  obs::Timeline tl2;
  (void)server::handle_predict(predict_request(trace.path()), cache,
                               nullptr, &tl2);
  bool saw_lookup = false;
  for (const obs::Stage& s : tl2.stages())
    if (s.name == "cache-lookup") saw_lookup = true;
  EXPECT_TRUE(saw_lookup);
}

// ---- end-to-end: embedded server -------------------------------------------

TEST(ServerTracingTest, TimelineTracedumpAndSloEndToEnd) {
  obs::Tracer::global().clear();
  TempFile sock("srv"), trace("srv_trace");
  write_trace(trace.path(), 3, 400);
  server::ServerOptions so;
  so.unix_path = sock.path();
  so.jobs = 2;
  so.shard_id = 5;
  // An unmeetable latency objective: every request burns, so the
  // breach must surface in stats and health within this test's run.
  so.slo_p99_ms = 0.0001;
  server::Server srv(so);
  srv.start();

  Client client = Client::connect_unix(sock.path());
  Request req = predict_request(trace.path());
  req.trace_id = 0x7777;
  req.sampled = true;
  req.want_timeline = true;
  const auto t0 = std::chrono::steady_clock::now();
  const Response r = client.call(req);
  const std::int64_t elapsed_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_EQ(r.status, Status::kOk) << r.error;
  EXPECT_EQ(r.trace_id, 0x7777u);  // context echoed back
  ASSERT_FALSE(r.timeline.empty());
  std::set<std::string> names;
  std::int64_t depth0_sum = 0;
  for (const server::StageSpan& s : r.timeline) {
    names.insert(s.name);
    if (s.depth == 0 && s.dur_us > 0) depth0_sum += s.dur_us;
  }
  EXPECT_TRUE(names.count("admission"));
  EXPECT_TRUE(names.count("queue"));
  EXPECT_TRUE(names.count("compile"));
  EXPECT_TRUE(names.count("serialize"));
  // The waterfall accounts real time: depth-0 stages sum to within the
  // latency the client measured around the call.
  EXPECT_GT(depth0_sum, 0);
  EXPECT_LE(depth0_sum, elapsed_us);

  // An untraced request must not grow a timeline.
  const Response plain = client.call(predict_request(trace.path()));
  ASSERT_EQ(plain.status, Status::kOk);
  EXPECT_TRUE(plain.timeline.empty());
  EXPECT_EQ(plain.trace_id, 0u);

  Request stats;
  stats.type = ReqType::kStats;
  const Response s = client.call(stats);
  ASSERT_EQ(s.status, Status::kOk);
  EXPECT_GE(s.stats.sampled_requests, 1u);
  EXPECT_DOUBLE_EQ(s.stats.slo_p99_ms, 0.0001);
  EXPECT_GT(s.stats.lat_burn_5m, obs::SloTracker::kFastBurn);
  EXPECT_TRUE(s.slo_burning);

  Request health;
  health.type = ReqType::kHealth;
  const Response h = client.call(health);
  ASSERT_EQ(h.status, Status::kOk);
  EXPECT_TRUE(h.slo_burning);

  Request dump;
  dump.type = ReqType::kTraceDump;
  const Response d = client.call(dump);
  ASSERT_EQ(d.status, Status::kOk);
  ASSERT_FALSE(d.spans.empty());
  const std::int64_t wall_now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  bool tagged = false;
  for (const server::WireSpan& w : d.spans) {
    EXPECT_EQ(w.pid, 5u);  // the shard's own lane
    EXPECT_GT(w.start_unix_ns, wall_now - 3600LL * 1'000'000'000LL);
    EXPECT_LT(w.start_unix_ns, wall_now + 1'000'000'000LL);
    if (w.trace_id == 0x7777) tagged = true;
  }
  EXPECT_TRUE(tagged) << "no ring span carried the propagated trace id";

  srv.stop();
  obs::Tracer::global().clear();
}

// ---- end-to-end: proxy over two shards -------------------------------------

TEST(ProxyTracingTest, ClusterTimelineNestsAndTraceCollectMergesProcesses) {
  obs::Tracer::global().clear();
  TempFile sock_a("shard_a"), sock_b("shard_b"), sock_p("proxy");
  server::ServerOptions sa;
  sa.unix_path = sock_a.path();
  sa.jobs = 2;
  sa.shard_id = 1;
  server::ServerOptions sb = sa;
  sb.unix_path = sock_b.path();
  sb.shard_id = 2;
  server::Server shard_a(sa), shard_b(sb);
  shard_a.start();
  shard_b.start();
  cluster::ProxyOptions popt;
  popt.unix_path = sock_p.path();
  popt.shards.push_back(cluster::ShardEndpoint::parse(1, sock_a.path()));
  popt.shards.push_back(cluster::ShardEndpoint::parse(2, sock_b.path()));
  cluster::Proxy proxy(popt);
  proxy.start();

  // NOTE on process identity: both "shards" share this test process, so
  // they share one global tracer whose tracedump stamps the serving
  // shard's id.  Distinct pid lanes per shard are still exercised —
  // each shard answers its own tracedump fan-out with its own id — but
  // the per-process ring separation itself is only real in the forked
  // cluster (covered by the CLI smoke path).
  Client client = Client::connect_unix(sock_p.path());
  std::set<std::uint64_t> shards_seen;
  for (int i = 0; i < 8 && shards_seen.size() < 2; ++i) {
    TempFile trace("route");
    write_trace(trace.path(), 2 + i % 3, 200 + 40 * i);
    Request req = predict_request(trace.path());
    req.trace_id = 0xbeef;  // one distributed trace spanning both shards
    req.sampled = true;
    req.want_timeline = true;
    const Response r = client.call(req);
    ASSERT_EQ(r.status, Status::kOk) << r.error;
    EXPECT_EQ(r.trace_id, 0xbeefu);
    shards_seen.insert(r.shard_id);

    // The proxy's waterfall: its own depth-0 route/forward stages with
    // the shard's stages nested one deeper, so depth-0 never
    // double-counts the forwarded time.
    ASSERT_FALSE(r.timeline.empty());
    bool saw_route = false, saw_forward = false, saw_nested = false;
    for (const server::StageSpan& s : r.timeline) {
      if (s.name == "route") saw_route = true;
      if (s.name.rfind("forward shard=", 0) == 0) {
        saw_forward = true;
        EXPECT_EQ(s.depth, 0u);
      }
      if (s.depth >= 1) saw_nested = true;
    }
    EXPECT_TRUE(saw_route);
    EXPECT_TRUE(saw_forward);
    EXPECT_TRUE(saw_nested);
  }
  ASSERT_EQ(shards_seen.size(), 2u)
      << "8 distinct traces never split across 2 shards";

  Request dump;
  dump.type = ReqType::kTraceDump;
  const Response d = client.call(dump);
  ASSERT_EQ(d.status, Status::kOk);
  std::set<std::uint64_t> pids_all, pids_traced;
  for (const server::WireSpan& w : d.spans) {
    pids_all.insert(w.pid);
    if (w.trace_id == 0xbeef) pids_traced.insert(w.pid);
  }
  // The merged dump covers the proxy's lane (0) plus both shards, and
  // the one trace id stitches the proxy and at least two distinct
  // shard lanes together.
  EXPECT_TRUE(pids_all.count(0)) << "proxy spans missing from the merge";
  EXPECT_TRUE(pids_all.count(1));
  EXPECT_TRUE(pids_all.count(2));
  EXPECT_TRUE(pids_traced.count(0));
  std::size_t traced_shards = 0;
  for (const std::uint64_t pid : pids_traced)
    if (pid != 0) ++traced_shards;
  EXPECT_GE(traced_shards, 2u);

  Request stats;
  stats.type = ReqType::kStats;
  const Response s = client.call(stats);
  ASSERT_EQ(s.status, Status::kOk);
  EXPECT_GE(s.stats.sampled_requests, 2u);

  proxy.stop();
  shard_a.stop();
  shard_b.stop();
  obs::Tracer::global().clear();
}

TEST(ProxyTracingTest, ProxySloMergesTheStrictestObjective) {
  server::StatsBody a, b;
  a.slo_p99_ms = 50.0;
  a.slo_availability = 0.99;
  a.lat_burn_5m = 2.0;
  b.slo_p99_ms = 20.0;  // stricter latency bound
  b.slo_availability = 0.999;
  b.lat_burn_5m = 9.0;
  b.sampled_requests = 3;
  b.trace_dropped = 1;
  server::StatsBody merged;
  cluster::merge_stats(merged, a);
  cluster::merge_stats(merged, b);
  EXPECT_DOUBLE_EQ(merged.slo_p99_ms, 20.0);       // min nonzero
  EXPECT_DOUBLE_EQ(merged.slo_availability, 0.999);  // max
  EXPECT_DOUBLE_EQ(merged.lat_burn_5m, 9.0);       // worst burn wins
  EXPECT_EQ(merged.sampled_requests, 3u);
  EXPECT_EQ(merged.trace_dropped, 1u);
}

}  // namespace
}  // namespace vppb
