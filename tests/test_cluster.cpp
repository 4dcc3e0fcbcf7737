// Tests for the cluster tier: the consistent-hash ring (distribution +
// minimal remapping), protocol v5 framing edges (shard identity/epoch,
// aggregated stats bodies, hostile shard counts), proxy routing with
// digest parity against the offline path, cross-tier single-flight
// de-duplication, hedged retries and the one forward walk they share
// with failover (no threads of its own, no wait on a losing attempt),
// aggregation, and the shard-kill
// failover test: a SIGKILLed backend must cost clients nothing but
// latency — no transport errors, no typed errors, identical digests.
//
// Run with `ctest -L cluster`; the suite is also built under
// -DVPPB_SANITIZE=thread in the sanitizer CI lane.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/launcher.hpp"
#include "cluster/membership.hpp"
#include "cluster/proxy.hpp"
#include "cluster/ring.hpp"
#include "obs/metrics.hpp"
#include "recorder/recorder.hpp"
#include "server/client.hpp"
#include "server/handlers.hpp"
#include "server/metrics.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/stats_text.hpp"
#include "server/trace_cache.hpp"
#include "solaris/program.hpp"
#include "stats_cases.hpp"
#include "trace/io.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "workloads/splash.hpp"
#include "workloads/synthetic.hpp"

#ifndef VPPB_EXE
#define VPPB_EXE ""
#endif

namespace vppb::cluster {
namespace {

using server::Client;
using server::ReqType;
using server::Request;
using server::Response;
using server::Status;

// ---- helpers ---------------------------------------------------------------

/// A fresh path under the system temp dir; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& tag) {
    static std::atomic<int> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("vppb_cluster_" + tag + "_" + std::to_string(::getpid()) +
              "_" + std::to_string(counter.fetch_add(1))))
                .string();
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Records a fork-join trace whose content (and therefore content key
/// and routing shard) varies with `threads` and `work`.
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

/// The offline answer the cluster must agree with bit-for-bit: the
/// same handler the shards run, against a private cache.
Response offline_predict(const std::string& path) {
  server::TraceCache cache(4, 256u << 20);
  return server::handle_predict(predict_request(path), cache);
}

// ---- offline CLI parity ----------------------------------------------------

/// The stdout of `vppb <args>`.
std::string run_vppb(const std::string& args) {
  const std::string cmd = std::string(VPPB_EXE) + " " + args + " 2>/dev/null";
  std::FILE* p = ::popen(cmd.c_str(), "r");
  if (p == nullptr) return {};
  std::string out;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, p) != nullptr) out += buf;
  ::pclose(p);
  return out;
}

/// The 16-hex-digit digest printed right after `label`; 0 when absent.
std::uint64_t printed_digest(const std::string& out, const std::string& label) {
  const std::size_t at = out.find(label);
  if (at == std::string::npos) return 0;
  return std::stoull(out.substr(at + label.size(), 16), nullptr, 16);
}

TEST(OfflineCliTest, SimulateAnalyzeAndPredictHonourTheFlagsTheHandlersHonour) {
  ASSERT_STRNE(VPPB_EXE, "") << "VPPB_EXE not compiled in";
  TempFile trace("offline");
  sol::Program program;
  trace::save_file(rec::record_program(program,
                                       [] {
                                         workloads::fft(
                                             workloads::SplashParams{16, 0.2});
                                       }),
                   trace.path());
  Request req;
  req.trace_path = trace.path();
  req.cpus = 4;
  req.lwps = 2;
  req.max_cpus = 8;
  req.comm_delay_us = 50;
  const std::string flags =
      " --cpus 4 --lwps 2 --max-cpus 8 --comm-delay-us 50 --jobs 1";
  server::TraceCache cache(4, 256u << 20);

  req.type = ReqType::kSimulate;
  EXPECT_EQ(printed_digest(run_vppb("simulate " + trace.path() + flags),
                           "digest "),
            server::handle_simulate(req, cache).digest);
  req.type = ReqType::kAnalyze;
  EXPECT_EQ(printed_digest(run_vppb("analyze " + trace.path() + flags),
                           "digest "),
            server::handle_analyze(req, cache).digest);
  req.type = ReqType::kPredict;
  EXPECT_EQ(printed_digest(run_vppb("predict " + trace.path() + flags),
                           "sweep digest: "),
            server::handle_predict(req, cache).digest);
}

// ---- ring ------------------------------------------------------------------

TEST(RingTest, SpreadsKeysAcrossShards) {
  Ring ring(64);
  for (std::uint64_t id = 1; id <= 4; ++id) ring.add(id);
  std::map<std::uint64_t, int> per_shard;
  for (std::uint64_t k = 0; k < 4000; ++k) ++per_shard[ring.owner(k * 7919)];
  ASSERT_EQ(per_shard.size(), 4u);
  for (const auto& [id, n] : per_shard) {
    // With 64 vnodes the split concentrates near 1/4; accept a wide
    // band so the test pins "no starved shard", not a distribution.
    EXPECT_GT(n, 4000 / 10) << "shard " << id << " starved";
  }
}

TEST(RingTest, RemovalOnlyMovesTheRemovedShardsKeys) {
  Ring ring(64);
  for (std::uint64_t id = 1; id <= 4; ++id) ring.add(id);
  std::map<std::uint64_t, std::uint64_t> before;
  for (std::uint64_t k = 0; k < 2000; ++k) before[k] = ring.owner(k * 7919);
  ring.remove(2);
  for (std::uint64_t k = 0; k < 2000; ++k) {
    const std::uint64_t now = ring.owner(k * 7919);
    if (before[k] != 2) {
      EXPECT_EQ(now, before[k]) << "key " << k
                                << " moved although its owner survived";
    } else {
      EXPECT_NE(now, 2u);
    }
  }
}

TEST(RingTest, OwnersAreDistinctAndStartAtOwner) {
  Ring ring(32);
  for (std::uint64_t id = 1; id <= 3; ++id) ring.add(id);
  for (std::uint64_t k = 0; k < 50; ++k) {
    const auto owners = ring.owners(k * 104729, 3);
    ASSERT_EQ(owners.size(), 3u);
    EXPECT_EQ(owners[0], ring.owner(k * 104729));
    EXPECT_EQ(std::set<std::uint64_t>(owners.begin(), owners.end()).size(),
              3u);
  }
}

TEST(RingTest, EmptyRingThrowsTyped) {
  Ring ring(8);
  EXPECT_THROW(ring.owner(1), Error);
  ring.add(9);
  ring.remove(9);
  EXPECT_THROW(ring.owner(1), Error);
}

// ---- endpoints -------------------------------------------------------------

TEST(EndpointTest, ParseVariants) {
  EXPECT_EQ(ShardEndpoint::parse(1, "a/b.sock").unix_path, "a/b.sock");
  EXPECT_EQ(ShardEndpoint::parse(1, "7070").tcp_port, 7070);
  EXPECT_EQ(ShardEndpoint::parse(1, ":7070").tcp_port, 7070);
  EXPECT_EQ(ShardEndpoint::parse(1, "127.0.0.1:7071").tcp_port, 7071);
  EXPECT_EQ(ShardEndpoint::parse(1, "localhost:7072").tcp_port, 7072);
  // Remote shards (protocol v8): numeric IPv4 parses, host is kept,
  // but a named host would need DNS and is refused.
  const ShardEndpoint remote = ShardEndpoint::parse(1, "10.0.0.1:7070");
  EXPECT_EQ(remote.host, "10.0.0.1");
  EXPECT_EQ(remote.tcp_port, 7070);
  EXPECT_FALSE(remote.loopback());
  EXPECT_THROW(ShardEndpoint::parse(1, "shard-a.internal:7070"), Error);
  EXPECT_THROW(ShardEndpoint::parse(1, "127.0.0.1:0"), Error);
  EXPECT_THROW(ShardEndpoint::parse(1, "127.0.0.1:99999"), Error);
  EXPECT_THROW(ShardEndpoint::parse(1, ""), Error);
}

TEST(EndpointTest, RemoteShardRequiresAuthKey) {
  MembershipOptions mopt;
  EXPECT_THROW(
      Membership({ShardEndpoint::parse(1, "10.0.0.1:7070")}, mopt), Error);
  mopt.auth_key = "cluster-secret";
  Membership ok({ShardEndpoint::parse(1, "10.0.0.1:7070")}, mopt);
  EXPECT_EQ(ok.shard_count(), 1u);
}

// ---- protocol v5 framing ---------------------------------------------------

TEST(ProtocolV5Test, ClusterResponseRoundTrip) {
  Response resp;
  resp.status = Status::kOk;
  resp.type = ReqType::kStats;
  resp.shard_id = 7;
  resp.epoch = 0x1122334455667788ULL;
  resp.stats.requests = 11;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    server::ShardInfo sh;
    sh.shard_id = id;
    sh.epoch = 0xabc0 + id;
    sh.healthy = id != 2;
    sh.endpoint = id == 1 ? "cdir/shard0.sock" : "127.0.0.1:9000";
    sh.stats.requests = id * 5;
    sh.stats.cache_hits = id;
    sh.stats.latency_buckets[id] = id * 7;
    sh.stats.latency_buckets[obs::kLatencyBuckets - 1] = id;
    sh.stats.watchdog_cancels = id;
    resp.shards.push_back(sh);
  }
  const Response back = server::decode_response(server::encode(resp));
  EXPECT_EQ(back.shard_id, resp.shard_id);
  EXPECT_EQ(back.epoch, resp.epoch);
  ASSERT_EQ(back.shards.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(back.shards[i].shard_id, resp.shards[i].shard_id);
    EXPECT_EQ(back.shards[i].epoch, resp.shards[i].epoch);
    EXPECT_EQ(back.shards[i].healthy, resp.shards[i].healthy);
    EXPECT_EQ(back.shards[i].endpoint, resp.shards[i].endpoint);
    EXPECT_EQ(back.shards[i].stats.requests, resp.shards[i].stats.requests);
    for (std::size_t b = 0; b < obs::kLatencyBuckets; ++b)
      EXPECT_EQ(back.shards[i].stats.latency_buckets[b],
                resp.shards[i].stats.latency_buckets[b]);
    EXPECT_EQ(back.shards[i].stats.watchdog_cancels,
              resp.shards[i].stats.watchdog_cancels);
  }
}

TEST(ProtocolV5Test, EveryTruncationRejectedCleanly) {
  Response resp;
  resp.type = ReqType::kStats;
  resp.shard_id = 1;
  server::ShardInfo sh;
  sh.shard_id = 2;
  sh.endpoint = "cdir/shard1.sock";
  sh.stats.requests = 9;
  resp.shards.push_back(sh);
  const std::vector<std::uint8_t> full = server::encode(resp);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(full.begin(),
                                           full.begin() + cut);
    EXPECT_THROW((void)server::decode_response(prefix), Error)
        << "prefix of " << cut << " bytes decoded";
  }
  EXPECT_NO_THROW((void)server::decode_response(full));
}

TEST(ProtocolV5Test, ImplausibleShardCountRejected) {
  Response resp;
  resp.type = ReqType::kStats;
  // With no shards and default resilience/tracing fields, the payload
  // ends in the count varint followed by ten zero bytes
  // (retry_after_ms, brownout, live/total shards, served_stale,
  // stale_age_ms, slo_burning, trace_id, timeline count, span count);
  // patch the count to a hostile value and the decoder must refuse to
  // allocate.
  std::vector<std::uint8_t> bytes = server::encode(resp);
  constexpr std::size_t kTrailing = 10;
  ASSERT_GE(bytes.size(), kTrailing + 1);
  for (std::size_t i = bytes.size() - kTrailing - 1; i < bytes.size(); ++i)
    ASSERT_EQ(bytes[i], 0u) << "byte " << i;
  bytes.resize(bytes.size() - kTrailing - 1);
  bytes.push_back(0x88);  // LEB128(5000)
  bytes.push_back(0x27);
  bytes.insert(bytes.end(), kTrailing, 0u);
  try {
    (void)server::decode_response(bytes);
    FAIL() << "hostile shard count decoded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("shard count"), std::string::npos);
  }
}

TEST(StatsTextTest, ClusterRenderAddsShardTable) {
  Response resp;
  resp.type = ReqType::kStats;
  resp.stats.requests = 10;
  server::ShardInfo up;
  up.shard_id = 1;
  up.healthy = true;
  up.endpoint = "cdir/shard0.sock";
  up.stats.requests = 6;
  server::ShardInfo down;
  down.shard_id = 2;
  down.endpoint = "cdir/shard1.sock";
  resp.shards = {up, down};
  const std::string text = server::render_cluster_stats_text(resp);
  EXPECT_NE(text.find("shards:"), std::string::npos);
  EXPECT_NE(text.find("up"), std::string::npos);
  EXPECT_NE(text.find("down"), std::string::npos);
  EXPECT_NE(text.find("cdir/shard1.sock"), std::string::npos);
  // A plain vppbd response renders exactly as before.
  resp.shards.clear();
  EXPECT_EQ(server::render_cluster_stats_text(resp),
            server::render_stats_text(resp.stats));
}

// ---- merge helpers ---------------------------------------------------------

TEST(MergeTest, StatsCountersSumAndPercentilesUpperBound) {
  // `a` has the larger doubles and is merged first, so a maximum cannot
  // pass by keeping whichever side came last.
  const server::StatsBody a = server::every_stats_field(100, 10.0);
  const server::StatsBody b = server::every_stats_field(1000, 1.0);
  server::StatsBody m;
  merge_stats(m, a);
  merge_stats(m, b);
  // Counters sum.
  EXPECT_EQ(m.requests, a.requests + b.requests);
  for (std::size_t i = 0; i < server::kReqTypeCount; ++i)
    EXPECT_EQ(m.by_type[i], a.by_type[i] + b.by_type[i]) << i;
  EXPECT_EQ(m.errors, a.errors + b.errors);
  EXPECT_EQ(m.overloads, a.overloads + b.overloads);
  EXPECT_EQ(m.deadlines, a.deadlines + b.deadlines);
  EXPECT_EQ(m.cache_hits, a.cache_hits + b.cache_hits);
  EXPECT_EQ(m.cache_misses, a.cache_misses + b.cache_misses);
  EXPECT_EQ(m.cache_evictions, a.cache_evictions + b.cache_evictions);
  EXPECT_EQ(m.cache_waits, a.cache_waits + b.cache_waits);
  EXPECT_EQ(m.cache_entries, a.cache_entries + b.cache_entries);
  EXPECT_EQ(m.cache_bytes, a.cache_bytes + b.cache_bytes);
  for (std::size_t i = 0; i < obs::kLatencyBuckets; ++i)
    EXPECT_EQ(m.latency_buckets[i],
              a.latency_buckets[i] + b.latency_buckets[i]) << i;
  EXPECT_EQ(m.budget_kills, a.budget_kills + b.budget_kills);
  EXPECT_EQ(m.poisoned, a.poisoned + b.poisoned);
  EXPECT_EQ(m.poison_strikes, a.poison_strikes + b.poison_strikes);
  EXPECT_EQ(m.quarantined, a.quarantined + b.quarantined);
  EXPECT_EQ(m.watchdog_cancels, a.watchdog_cancels + b.watchdog_cancels);
  EXPECT_EQ(m.watchdog_replacements,
            a.watchdog_replacements + b.watchdog_replacements);
  EXPECT_EQ(m.quota_rejections, a.quota_rejections + b.quota_rejections);
  EXPECT_EQ(m.brownout_sheds, a.brownout_sheds + b.brownout_sheds);
  EXPECT_EQ(m.stale_serves, a.stale_serves + b.stale_serves);
  EXPECT_EQ(m.sampled_requests, a.sampled_requests + b.sampled_requests);
  EXPECT_EQ(m.trace_dropped, a.trace_dropped + b.trace_dropped);
  EXPECT_EQ(m.auth_failures, a.auth_failures + b.auth_failures);
  EXPECT_EQ(m.idle_reaps, a.idle_reaps + b.idle_reaps);
  // Burn rates take the maximum: the worst shard's burn.
  EXPECT_DOUBLE_EQ(m.lat_burn_1m, a.lat_burn_1m);
  EXPECT_DOUBLE_EQ(m.lat_burn_5m, a.lat_burn_5m);
  EXPECT_DOUBLE_EQ(m.lat_burn_1h, a.lat_burn_1h);
  EXPECT_DOUBLE_EQ(m.avail_burn_1m, a.avail_burn_1m);
  EXPECT_DOUBLE_EQ(m.avail_burn_5m, a.avail_burn_5m);
  EXPECT_DOUBLE_EQ(m.avail_burn_1h, a.avail_burn_1h);
  // Objectives: the strictest latency bound, the highest availability.
  EXPECT_DOUBLE_EQ(m.slo_p99_ms, b.slo_p99_ms);
  EXPECT_DOUBLE_EQ(m.slo_availability, a.slo_availability);
  // A shard with no latency objective does not loosen the cluster's.
  server::StatsBody off = a;
  off.slo_p99_ms = 0.0;
  server::StatsBody one;
  merge_stats(one, off);
  merge_stats(one, b);
  EXPECT_DOUBLE_EQ(one.slo_p99_ms, b.slo_p99_ms);
}

TEST(MergeTest, NineToOneFastSlowSplitMergesExactly) {
  // Shard 0 serves 900 fast requests (0.8-1.2 ms); shard 1 serves 100
  // slow ones (90 at 20-24 ms, 10 at 400-480 ms).  One more Metrics sees
  // every sample, as a single server taking all the traffic would.
  server::Metrics fast, slow, all;
  const auto observe = [&all](server::Metrics& shard, double us) {
    shard.latency_us.observe(us);
    all.latency_us.observe(us);
  };
  for (int i = 0; i < 900; ++i) observe(fast, 800.0 + (i * 37) % 400);
  for (int i = 0; i < 90; ++i) observe(slow, 20000.0 + (i * 53) % 4000);
  for (int i = 0; i < 10; ++i) observe(slow, 400000.0 + i * 8000.0);
  server::StatsBody a, b, u, merged;
  fast.snapshot(a);
  slow.snapshot(b);
  all.snapshot(u);
  merge_stats(merged, a);
  merge_stats(merged, b);
  for (std::size_t i = 0; i < obs::kLatencyBuckets; ++i)
    EXPECT_EQ(merged.latency_buckets[i], u.latency_buckets[i]) << i;
  const auto q = [](const server::StatsBody& s, double p) {
    return obs::quantile(s.latency_buckets, p);
  };
  for (double p : {0.5, 0.9, 0.99}) EXPECT_EQ(q(merged, p), q(u, p)) << p;
  EXPECT_LE(q(merged, 0.5), 1.125 * 1200.0);
  EXPECT_LE(q(merged, 0.99), 1.125 * 24000.0);
  // The maximum of the per-shard quantiles, the slow shard's, is more
  // than 10x off at p50 and p99.
  for (double p : {0.5, 0.99})
    EXPECT_GT(std::max(q(a, p), q(b, p)), 10.0 * q(u, p)) << p;
}

TEST(MergeTest, PrometheusSamplesSumAcrossSections) {
  const std::string a =
      "# HELP vppb_cache_hits_total Trace-cache lookups\n"
      "# TYPE vppb_cache_hits_total counter\n"
      "vppb_cache_hits_total 3\n"
      "vppb_reqs{type=\"predict\"} 2\n";
  const std::string b =
      "# HELP vppb_cache_hits_total Trace-cache lookups\n"
      "# TYPE vppb_cache_hits_total counter\n"
      "vppb_cache_hits_total 4\n"
      "vppb_reqs{type=\"predict\"} 5\n"
      "vppb_reqs{type=\"stats\"} 1\n";
  const std::string merged = merge_prometheus({{"s0", a}, {"s1", b}});
  EXPECT_NE(merged.find("vppb_cache_hits_total 7"), std::string::npos);
  EXPECT_NE(merged.find("vppb_reqs{type=\"predict\"} 7"), std::string::npos);
  EXPECT_NE(merged.find("vppb_reqs{type=\"stats\"} 1"), std::string::npos);
  // HELP appears once, not once per section.
  const std::size_t first = merged.find("# HELP vppb_cache_hits_total");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(merged.find("# HELP vppb_cache_hits_total", first + 1),
            std::string::npos);
}

// ---- proxy over in-process shards ------------------------------------------

/// Two in-process vppbd shards plus a proxy, all on temp unix sockets.
struct TwoShardRig {
  TempFile sock_a{"shard_a"}, sock_b{"shard_b"}, sock_p{"proxy"};
  std::unique_ptr<server::Server> shard_a, shard_b;
  std::unique_ptr<Proxy> proxy;

  explicit TwoShardRig(std::int64_t hedge_ms = 0,
                       util::FaultPlan* faults_a = nullptr) {
    server::ServerOptions sa;
    sa.unix_path = sock_a.path();
    sa.jobs = 2;
    sa.shard_id = 1;
    static util::FaultPlan inert;
    sa.faults = faults_a ? faults_a : &inert;
    server::ServerOptions sb = sa;
    sb.unix_path = sock_b.path();
    sb.shard_id = 2;
    sb.faults = &inert;
    shard_a = std::make_unique<server::Server>(sa);
    shard_b = std::make_unique<server::Server>(sb);
    shard_a->start();
    shard_b->start();

    ProxyOptions popt;
    popt.unix_path = sock_p.path();
    popt.hedge_ms = hedge_ms;
    popt.shards.push_back(ShardEndpoint::parse(1, sock_a.path()));
    popt.shards.push_back(ShardEndpoint::parse(2, sock_b.path()));
    proxy = std::make_unique<Proxy>(popt);
    proxy->start();
  }

  ~TwoShardRig() {
    proxy->stop();
    shard_a->stop();
    shard_b->stop();
  }

  Client connect() { return Client::connect_unix(sock_p.path()); }
};

TEST(ProxyTest, RoutesByContentAndMatchesOfflineDigests) {
  TwoShardRig rig;
  Client client = rig.connect();
  std::set<std::uint64_t> shards_seen;
  for (int i = 0; i < 8; ++i) {
    TempFile trace("route");
    write_trace(trace.path(), 2 + i % 3, 200 + 40 * i);
    const Response via_proxy = client.call(predict_request(trace.path()));
    ASSERT_EQ(via_proxy.status, Status::kOk) << via_proxy.error;
    shards_seen.insert(via_proxy.shard_id);
    const Response offline = offline_predict(trace.path());
    EXPECT_EQ(via_proxy.digest, offline.digest)
        << "proxy answer differs from the offline CLI for trace " << i;
    ASSERT_EQ(via_proxy.points.size(), offline.points.size());
    for (std::size_t p = 0; p < offline.points.size(); ++p)
      EXPECT_EQ(via_proxy.points[p].digest, offline.points[p].digest);
    // Routing agreement: the shard that answered is the ring owner of
    // the trace's content key.
    const std::uint64_t key = server::content_key_of_file(trace.path());
    const auto route = rig.proxy->membership().route(key, 1);
    ASSERT_EQ(route.size(), 1u);
    EXPECT_EQ(rig.proxy->membership().endpoint(route[0]).id,
              via_proxy.shard_id);
  }
  // 8 distinct contents virtually never all land on one of two shards;
  // if they did, the routing tier would not be spreading load at all.
  EXPECT_EQ(shards_seen.size(), 2u);
}

TEST(ProxyTest, AggregatesStatsAcrossShards) {
  TwoShardRig rig;
  Client client = rig.connect();
  TempFile trace("agg");
  write_trace(trace.path(), 3, 300);
  ASSERT_EQ(client.call(predict_request(trace.path())).status, Status::kOk);

  Request stats;
  stats.type = ReqType::kStats;
  const Response r = client.call(stats);
  ASSERT_EQ(r.status, Status::kOk);
  ASSERT_EQ(r.shards.size(), 2u);
  EXPECT_TRUE(r.shards[0].healthy);
  EXPECT_TRUE(r.shards[1].healthy);
  EXPECT_NE(r.shards[0].epoch, r.shards[1].epoch);
  EXPECT_EQ(r.stats.requests,
            r.shards[0].stats.requests + r.shards[1].stats.requests);
  EXPECT_GE(r.stats.by_type[static_cast<int>(ReqType::kPredict)], 1u);

  Request health;
  health.type = ReqType::kHealth;
  const Response h = client.call(health);
  ASSERT_EQ(h.status, Status::kOk);
  EXPECT_TRUE(h.ready);
  EXPECT_GT(h.admission_limit, 0u);

  Request dump;
  dump.type = ReqType::kMetricsDump;
  const Response d = client.call(dump);
  ASSERT_EQ(d.status, Status::kOk);
  EXPECT_NE(d.report.find("vppb_proxy_requests_total"), std::string::npos);
  EXPECT_NE(d.report.find("vppb_cache_hits_total"), std::string::npos);
}

TEST(ProxyTest, SingleFlightCollapsesIdenticalRequests) {
  // One deliberately slow shard (cooperative 400 ms stall per request)
  // behind the proxy: a leader plus three identical followers must
  // reach the shard as ONE request.
  util::FaultPlan slow = util::FaultPlan::parse("delay-ms:1:0:400");
  TempFile sock_s{"sf_shard"}, sock_p{"sf_proxy"};
  server::ServerOptions so;
  so.unix_path = sock_s.path();
  so.jobs = 2;
  so.shard_id = 1;
  so.faults = &slow;
  server::Server shard(so);
  shard.start();
  ProxyOptions popt;
  popt.unix_path = sock_p.path();
  popt.shards.push_back(ShardEndpoint::parse(1, sock_s.path()));
  Proxy proxy(popt);
  proxy.start();

  TempFile trace("sf");
  write_trace(trace.path(), 3, 250);
  const Request req = predict_request(trace.path());

  std::vector<std::thread> callers;
  std::vector<Response> responses(4);
  for (int i = 0; i < 4; ++i) {
    callers.emplace_back([&, i]() {
      Client c = Client::connect_unix(sock_p.path());
      responses[static_cast<std::size_t>(i)] = c.call(req);
    });
    // The leader must be in flight before the followers arrive for
    // them to dedup against it; the shard stalls 400 ms, so 80 ms of
    // stagger leaves a wide margin.
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
  }
  for (auto& t : callers) t.join();
  for (const Response& r : responses) {
    ASSERT_EQ(r.status, Status::kOk) << r.error;
    EXPECT_EQ(r.digest, responses[0].digest);
  }

  Client c = Client::connect_unix(sock_p.path());
  Request stats;
  stats.type = ReqType::kStats;
  const Response r = c.call(stats);
  ASSERT_EQ(r.shards.size(), 1u);
  EXPECT_EQ(r.shards[0].stats.by_type[static_cast<int>(ReqType::kPredict)],
            1u)
      << "identical concurrent requests were not collapsed";
  proxy.stop();
  shard.stop();
}

TEST(ProxyTest, HedgeAnswersFromSuccessorWhenPrimaryStalls) {
  // Shard 1 stalls every compute request 1500 ms; the proxy hedges
  // after 50 ms.  A request routed to shard 1 must come back from
  // shard 2 well before the primary would have answered.
  util::FaultPlan slow = util::FaultPlan::parse("delay-ms:1:0:1500");
  TwoShardRig rig(/*hedge_ms=*/50, &slow);
  Client client = rig.connect();

  // Find a trace whose ring owner is the slow shard.
  std::unique_ptr<TempFile> trace;
  for (int i = 0; i < 24; ++i) {
    auto t = std::make_unique<TempFile>("hedge");
    write_trace(t->path(), 2 + i % 4, 150 + 37 * i);
    const std::uint64_t key = server::content_key_of_file(t->path());
    const auto route = rig.proxy->membership().route(key, 1);
    ASSERT_FALSE(route.empty());
    if (rig.proxy->membership().endpoint(route[0]).id == 1) {
      trace = std::move(t);
      break;
    }
  }
  ASSERT_TRUE(trace) << "no trace routed to shard 1 in 24 tries";

  const auto t0 = std::chrono::steady_clock::now();
  const Response r = client.call(predict_request(trace->path()));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  ASSERT_EQ(r.status, Status::kOk) << r.error;
  EXPECT_EQ(r.shard_id, 2u) << "answer did not come from the hedge";
  EXPECT_LT(elapsed, 1500) << "hedge did not beat the stalled primary";
  EXPECT_EQ(r.digest, offline_predict(trace->path()).digest);
}

TEST(ProxyTest, FailoverForwardsOnlyTheDeadlineLeft) {
  // Shard 1 stalls every compute request a second, shard 2 for 200 ms
  // (both cooperatively), and the proxy writes off a shard silent for
  // 300 ms.  A 450 ms request owned by shard 1 fails over at ~300 ms;
  // handed a fresh 450 ms, shard 2 would answer kOk at ~500 ms, after
  // the client stopped waiting.  Handed the 150 ms left, it misses.
  util::FaultPlan slow_a = util::FaultPlan::parse("delay-ms:1:0:1000");
  util::FaultPlan slow_b = util::FaultPlan::parse("delay-ms:1:0:200");
  TempFile sock_a{"dl_shard_a"}, sock_b{"dl_shard_b"}, sock_p{"dl_proxy"};
  server::ServerOptions sa;
  sa.unix_path = sock_a.path();
  sa.jobs = 2;
  sa.shard_id = 1;
  sa.faults = &slow_a;
  server::ServerOptions sb = sa;
  sb.unix_path = sock_b.path();
  sb.shard_id = 2;
  sb.faults = &slow_b;
  server::Server shard_a(sa), shard_b(sb);
  shard_a.start();
  shard_b.start();
  ProxyOptions popt;
  popt.unix_path = sock_p.path();
  popt.forward_timeout_ms = 300;
  popt.shards.push_back(ShardEndpoint::parse(1, sock_a.path()));
  popt.shards.push_back(ShardEndpoint::parse(2, sock_b.path()));
  Proxy proxy(popt);
  proxy.start();

  // A trace whose ring owner is the slower shard.
  std::unique_ptr<TempFile> trace;
  for (int i = 0; i < 24 && !trace; ++i) {
    auto t = std::make_unique<TempFile>("dl");
    write_trace(t->path(), 2 + i % 4, 150 + 37 * i);
    const auto route = proxy.membership().route(
        server::content_key_of_file(t->path()), 1);
    ASSERT_FALSE(route.empty());
    if (proxy.membership().endpoint(route[0]).id == 1) trace = std::move(t);
  }
  ASSERT_TRUE(trace) << "no trace routed to shard 1 in 24 tries";

  Request req = predict_request(trace->path());
  req.deadline_ms = 450;
  Client client = Client::connect_unix(sock_p.path());
  const auto t0 = std::chrono::steady_clock::now();
  const Response r = client.call(req);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  if (elapsed >= req.deadline_ms)
    EXPECT_NE(r.status, Status::kOk)
        << "a kOk answer reached the client " << elapsed
        << " ms into its 450 ms deadline";
  EXPECT_EQ(r.status, Status::kDeadlineExceeded) << r.error;
  EXPECT_EQ(r.shard_id, 2u) << "the answer did not come from the successor";
  proxy.stop();
  shard_a.stop();
  shard_b.stop();
}

/// A trace whose ring owner in `m` is shard `id` right now; null when
/// none of 24 contents lands there.
std::unique_ptr<TempFile> trace_owned_by(Membership& m, std::uint64_t id,
                                         const std::string& tag) {
  for (int i = 0; i < 24; ++i) {
    auto t = std::make_unique<TempFile>(tag);
    write_trace(t->path(), 2 + i % 4, 150 + 37 * i);
    const auto route = m.route(server::content_key_of_file(t->path()), 1);
    if (!route.empty() && m.endpoint(route[0]).id == id) return t;
  }
  return nullptr;
}

/// This process's threads, as /proc/self/task lists them.
std::size_t thread_count() {
  return static_cast<std::size_t>(
      std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                    std::filesystem::directory_iterator()));
}

std::int64_t ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(ProxyTest, HedgingAddsNoThreadsBeyondAcceptAndProber) {
  // No shard is running, so the proxy starts with both down (the prober
  // keeps trying) and no shard-side connection thread blurs the count.
  TempFile sock_a{"thr_shard_a"}, sock_b{"thr_shard_b"}, sock_p{"thr_proxy"};
  ProxyOptions popt;
  popt.unix_path = sock_p.path();
  popt.hedge_ms = 50;
  popt.shards.push_back(ShardEndpoint::parse(1, sock_a.path()));
  popt.shards.push_back(ShardEndpoint::parse(2, sock_b.path()));
  // A sanitizer runtime starts its helper thread with the process's
  // first thread; start one first so the baseline already counts it.
  std::thread([]() {}).join();
  const std::size_t before = thread_count();
  Proxy proxy(popt);
  proxy.start();
  EXPECT_EQ(thread_count(), before + 2)
      << "a hedging proxy runs more than its accept and prober threads";
  proxy.stop();
  EXPECT_EQ(thread_count(), before);
}

TEST(ProxyTest, StopDoesNotWaitOutALosingAttempt) {
  // The hedge answers within ~50 ms while the primary stalls 1500 ms;
  // the primary's attempt is closed, so stop() has nothing to drain.
  util::FaultPlan slow = util::FaultPlan::parse("delay-ms:1:0:1500");
  TwoShardRig rig(/*hedge_ms=*/50, &slow);
  const auto trace = trace_owned_by(rig.proxy->membership(), 1, "stop");
  ASSERT_TRUE(trace) << "no trace routed to shard 1 in 24 tries";
  {
    Client client = rig.connect();
    const Response r = client.call(predict_request(trace->path()));
    ASSERT_EQ(r.status, Status::kOk) << r.error;
    ASSERT_EQ(r.shard_id, 2u) << "the hedge did not win";
  }
  const auto t0 = std::chrono::steady_clock::now();
  rig.proxy->stop();
  EXPECT_LT(ms_since(t0), 500) << "stop() waited for the stalled primary";
}

TEST(ProxyTest, DeadPrimaryFailsOverAtOnceWithoutAHedge) {
  // The primary is gone but still on the ring (nothing has told the
  // proxy).  Its failed dial is a failover: the successor is sent the
  // request at once, not after a 1000 ms hedge window, and no hedge is
  // counted.
  TwoShardRig rig(/*hedge_ms=*/1000);
  const auto trace = trace_owned_by(rig.proxy->membership(), 1, "dead");
  ASSERT_TRUE(trace) << "no trace routed to shard 1 in 24 tries";
  rig.shard_a->stop();
  ASSERT_EQ(rig.proxy->membership().up_count(), 2u);
  obs::Registry& reg = obs::Registry::global();
  const obs::Counter& failovers =
      reg.counter("vppb_proxy_failovers_total", "");
  const obs::Counter& hedges = reg.counter("vppb_proxy_hedges_total", "");
  const std::uint64_t failovers0 = failovers.value();
  const std::uint64_t hedges0 = hedges.value();

  Client client = rig.connect();
  const auto t0 = std::chrono::steady_clock::now();
  const Response r = client.call(predict_request(trace->path()));
  const std::int64_t elapsed = ms_since(t0);
  ASSERT_EQ(r.status, Status::kOk) << r.error;
  EXPECT_EQ(r.shard_id, 2u);
  EXPECT_LT(elapsed, 1000) << "the successor waited out the hedge window";
  EXPECT_EQ(failovers.value() - failovers0, 1u);
  EXPECT_EQ(hedges.value() - hedges0, 0u)
      << "a transport failure was counted as a hedge";
  EXPECT_EQ(rig.proxy->membership().up_count(), 1u);
}

// ---- shard-kill failover against real processes ----------------------------

TEST(ClusterFailoverTest, ShardKillIsInvisibleToClients) {
  ASSERT_STRNE(VPPB_EXE, "") << "VPPB_EXE not compiled in";
  TempFile dir_guard("cluster_dir");
  ClusterOptions copt;
  copt.exe = VPPB_EXE;
  copt.dir = dir_guard.path();
  copt.shards = 2;
  copt.jobs = 1;
  LocalCluster shards(copt);
  shards.start();

  TempFile sock_p{"failover_proxy"};
  ProxyOptions popt;
  popt.unix_path = sock_p.path();
  popt.shards = shards.shards();
  Proxy proxy(popt);
  proxy.start();
  ASSERT_EQ(proxy.membership().up_count(), 2u);

  // Traces for both shards, with their expected digests, so the kill
  // provably re-routes *some* of them.
  struct Case {
    std::unique_ptr<TempFile> file;
    std::uint64_t digest = 0;
    std::uint64_t shard = 0;
  };
  std::vector<Case> cases;
  Client client = Client::connect_unix(sock_p.path());
  std::set<std::uint64_t> shards_seen;
  for (int i = 0; i < 8; ++i) {
    Case c;
    c.file = std::make_unique<TempFile>("failover");
    write_trace(c.file->path(), 2 + i % 3, 180 + 29 * i);
    const Response r = client.call(predict_request(c.file->path()));
    ASSERT_EQ(r.status, Status::kOk) << r.error;
    c.digest = r.digest;
    c.shard = r.shard_id;
    shards_seen.insert(r.shard_id);
    cases.push_back(std::move(c));
  }
  ASSERT_EQ(shards_seen.size(), 2u);
  const std::uint64_t old_epoch_1 = proxy.membership().snapshot()[0].epoch;

  // SIGKILL shard 1: no drain, no goodbye — in-flight state is gone.
  shards.kill_shard(0);

  // Every request — including those routed to the corpse — must come
  // back kOk with the same digest, through the surviving shard.  The
  // first request to the dead shard pays the ejection; none may see a
  // transport or typed error.
  for (const Case& c : cases) {
    Response r;
    ASSERT_NO_THROW(r = client.call(predict_request(c.file->path())))
        << "transport error leaked to a client during failover";
    ASSERT_EQ(r.status, Status::kOk) << r.error;
    EXPECT_EQ(r.digest, c.digest);
    EXPECT_EQ(r.shard_id, 2u) << "answer from a dead shard?";
  }
  EXPECT_EQ(proxy.membership().up_count(), 1u);

  // Aggregated health keeps answering, with the corpse marked down.
  Request health;
  health.type = ReqType::kHealth;
  const Response h = client.call(health);
  ASSERT_EQ(h.status, Status::kOk);
  EXPECT_TRUE(h.ready);
  ASSERT_EQ(h.shards.size(), 2u);
  EXPECT_FALSE(h.shards[0].healthy);
  EXPECT_TRUE(h.shards[1].healthy);

  // Restart: the prober must fold the shard back in (with a new epoch)
  // without anyone telling the proxy.
  shards.restart_shard(0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (proxy.membership().up_count() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_EQ(proxy.membership().up_count(), 2u) << "re-probe never recovered";
  EXPECT_NE(proxy.membership().snapshot()[0].epoch, old_epoch_1)
      << "a restarted shard must present a fresh epoch";

  // And the revived shard serves its arc again, digest-identical.
  for (const Case& c : cases) {
    const Response r = client.call(predict_request(c.file->path()));
    ASSERT_EQ(r.status, Status::kOk) << r.error;
    EXPECT_EQ(r.digest, c.digest);
    EXPECT_EQ(r.shard_id, c.shard);
  }

  proxy.stop();
  shards.stop();
}

// ---- protocol v6: identity, quota, brownout fields -------------------------

TEST(ProtocolV6Test, ResilienceFieldsRoundTrip) {
  Request req;
  req.type = ReqType::kPredict;
  req.trace_path = "t.trace";
  req.client_id = 0x1111222233334444ULL;
  req.origin_id = 0x5555666677778888ULL;
  const Request rback = server::decode_request(server::encode(req));
  EXPECT_EQ(rback.client_id, req.client_id);
  EXPECT_EQ(rback.origin_id, req.origin_id);

  Response resp;
  resp.type = ReqType::kPredict;
  resp.status = Status::kQuotaExceeded;
  resp.error = "over quota";
  resp.retry_after_ms = 750;
  resp.brownout = true;
  resp.live_shards = 1;
  resp.total_shards = 4;
  resp.served_stale = true;
  resp.stale_age_ms = 2500;
  resp.stats.quota_rejections = 3;
  resp.stats.brownout_sheds = 2;
  resp.stats.stale_serves = 1;
  const Response back = server::decode_response(server::encode(resp));
  EXPECT_EQ(back.status, Status::kQuotaExceeded);
  EXPECT_EQ(back.retry_after_ms, 750);
  EXPECT_TRUE(back.brownout);
  EXPECT_EQ(back.live_shards, 1u);
  EXPECT_EQ(back.total_shards, 4u);
  EXPECT_TRUE(back.served_stale);
  EXPECT_EQ(back.stale_age_ms, 2500);
  EXPECT_EQ(back.stats.quota_rejections, 3u);
  EXPECT_EQ(back.stats.brownout_sheds, 2u);
  EXPECT_EQ(back.stats.stale_serves, 1u);
  EXPECT_STREQ(server::to_string(Status::kQuotaExceeded), "quota-exceeded");
}

// ---- client quota ----------------------------------------------------------

TEST(QuotaTest, BurstThenExactRefill) {
  QuotaOptions qopt;
  qopt.rps = 1.0;
  qopt.burst = 3.0;
  ClientQuota quota(qopt);
  ASSERT_TRUE(quota.enabled());
  const auto t0 = std::chrono::steady_clock::time_point{} +
                  std::chrono::hours(1);
  for (int i = 0; i < 3; ++i)
    EXPECT_TRUE(quota.admit(7, t0).admitted) << "burst request " << i;
  const auto rejected = quota.admit(7, t0);
  EXPECT_FALSE(rejected.admitted);
  // Empty bucket at 1 rps: the next token is exactly one second out.
  EXPECT_EQ(rejected.retry_after_ms, 1000);
  EXPECT_EQ(quota.rejections(), 1u);

  // 1.5 s later the bucket holds 1.5 tokens: one admission, then a
  // rejection whose hint is the 500 ms to the next full token.
  const auto t1 = t0 + std::chrono::milliseconds(1500);
  EXPECT_TRUE(quota.admit(7, t1).admitted);
  const auto again = quota.admit(7, t1);
  EXPECT_FALSE(again.admitted);
  EXPECT_EQ(again.retry_after_ms, 500);
}

TEST(QuotaTest, ClientsAreIndependent) {
  QuotaOptions qopt;
  qopt.rps = 1.0;
  qopt.burst = 1.0;
  ClientQuota quota(qopt);
  const auto t0 = std::chrono::steady_clock::time_point{} +
                  std::chrono::hours(1);
  EXPECT_TRUE(quota.admit(1, t0).admitted);
  EXPECT_FALSE(quota.admit(1, t0).admitted);
  // A different identity still has its full burst.
  EXPECT_TRUE(quota.admit(2, t0).admitted);
}

TEST(QuotaTest, DisabledAdmitsEverything) {
  ClientQuota quota(QuotaOptions{});
  EXPECT_FALSE(quota.enabled());
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(quota.admit(1, t0).admitted);
}

// ---- global quota through the proxy ----------------------------------------

TEST(ProxyQuotaTest, FloodAcrossFourShardsHeldToOneQuota) {
  // Four shards behind one proxy with a 3-request burst and a
  // negligible refill rate.  A flooding client gets exactly ONE
  // cluster-wide budget — 3 admissions — no matter how many shards its
  // traces hash to; before this lived in the proxy, K shards would
  // each have granted their own budget (K times the quota).
  std::vector<TempFile> socks;
  for (int i = 0; i < 5; ++i)
    socks.emplace_back("quota" + std::to_string(i));
  std::vector<std::unique_ptr<server::Server>> shards;
  ProxyOptions popt;
  for (int i = 0; i < 4; ++i) {
    server::ServerOptions so;
    so.unix_path = socks[static_cast<std::size_t>(i)].path();
    so.jobs = 1;
    so.shard_id = static_cast<std::uint64_t>(i) + 1;
    shards.push_back(std::make_unique<server::Server>(so));
    shards.back()->start();
    popt.shards.push_back(ShardEndpoint::parse(
        static_cast<std::uint64_t>(i) + 1,
        socks[static_cast<std::size_t>(i)].path()));
  }
  popt.unix_path = socks[4].path();
  popt.quota.rps = 0.0001;
  popt.quota.burst = 3.0;
  Proxy proxy(popt);
  proxy.start();
  ASSERT_EQ(proxy.membership().up_count(), 4u);

  // Distinct traces so the flood provably spans multiple shards.
  std::vector<std::unique_ptr<TempFile>> traces;
  std::set<std::uint64_t> owners;
  for (int i = 0; i < 8; ++i) {
    traces.push_back(std::make_unique<TempFile>("qt"));
    write_trace(traces.back()->path(), 2 + i % 3, 170 + 23 * i);
    const std::uint64_t key =
        server::content_key_of_file(traces.back()->path());
    const auto route = proxy.membership().route(key, 1);
    ASSERT_EQ(route.size(), 1u);
    owners.insert(proxy.membership().endpoint(route[0]).id);
  }
  ASSERT_GE(owners.size(), 3u) << "traces did not spread across shards";

  Client flooder = Client::connect_unix(socks[4].path());
  int admitted = 0, quota_rejected = 0;
  for (int i = 0; i < 16; ++i) {
    Request req = predict_request(
        traces[static_cast<std::size_t>(i) % traces.size()]->path());
    req.client_id = 77;
    const Response r = flooder.call(req);
    if (r.status == Status::kOk) {
      ++admitted;
    } else {
      ASSERT_EQ(r.status, Status::kQuotaExceeded) << r.error;
      EXPECT_GT(r.retry_after_ms, 0);
      EXPECT_NE(r.error.find("quota"), std::string::npos);
      ++quota_rejected;
    }
  }
  EXPECT_EQ(admitted, 3) << "flood was not held to exactly one burst";
  EXPECT_EQ(quota_rejected, 13);

  // The well-behaved client is untouched by the flooder's rejection
  // storm, and its answer matches the offline digest.
  Client polite = Client::connect_unix(socks[4].path());
  Request req = predict_request(traces[0]->path());
  req.client_id = 88;
  const Response r = polite.call(req);
  ASSERT_EQ(r.status, Status::kOk) << r.error;
  EXPECT_EQ(r.digest, offline_predict(traces[0]->path()).digest);

  // The proxy's aggregated stats surface the rejections.
  Request stats;
  stats.type = ReqType::kStats;
  const Response s = polite.call(stats);
  ASSERT_EQ(s.status, Status::kOk);
  EXPECT_EQ(s.stats.quota_rejections, 13u);

  proxy.stop();
  for (auto& sh : shards) sh->stop();
}

// ---- brownout --------------------------------------------------------------

TEST(ProxyBrownoutTest, ShedsColdServesCachedStale) {
  TempFile sock_a{"bo_a"}, sock_b{"bo_b"}, sock_p{"bo_p"};
  server::ServerOptions sa;
  sa.unix_path = sock_a.path();
  sa.jobs = 1;
  sa.shard_id = 1;
  server::ServerOptions sb = sa;
  sb.unix_path = sock_b.path();
  sb.shard_id = 2;
  auto shard_a = std::make_unique<server::Server>(sa);
  auto shard_b = std::make_unique<server::Server>(sb);
  shard_a->start();
  shard_b->start();

  ProxyOptions popt;
  popt.unix_path = sock_p.path();
  popt.shards.push_back(ShardEndpoint::parse(1, sock_a.path()));
  popt.shards.push_back(ShardEndpoint::parse(2, sock_b.path()));
  // 1 of 2 live (50%) is below the 60% floor -> brownout.
  popt.brownout_min_live_pct = 60;
  popt.stale_ms = 60000;
  // Slow re-probe so the downed shard stays ejected for the test body.
  popt.membership.probe_base_ms = 2000;
  popt.membership.probe_cap_ms = 4000;
  Proxy proxy(popt);
  proxy.start();
  ASSERT_EQ(proxy.membership().up_count(), 2u);
  EXPECT_FALSE(proxy.brownout_active());

  // Warm the proxy response cache while the cluster is whole.
  TempFile warm("bo_warm");
  write_trace(warm.path(), 3, 240);
  Client client = Client::connect_unix(sock_p.path());
  const Response first = client.call(predict_request(warm.path()));
  ASSERT_EQ(first.status, Status::kOk) << first.error;
  EXPECT_FALSE(first.served_stale);

  // Take shard 2 down hard; eject it so the ring shrinks immediately.
  shard_b->stop();
  proxy.membership().eject(1);
  std::size_t live = 0, total = 0;
  ASSERT_TRUE(proxy.brownout_active(&live, &total));
  EXPECT_EQ(live, 1u);
  EXPECT_EQ(total, 2u);

  // Repeat request: served from the proxy cache, marked stale+brownout,
  // digest-identical to the fresh answer.
  const Response cached = client.call(predict_request(warm.path()));
  ASSERT_EQ(cached.status, Status::kOk) << cached.error;
  EXPECT_TRUE(cached.served_stale);
  EXPECT_TRUE(cached.brownout);
  EXPECT_GE(cached.stale_age_ms, 0);
  EXPECT_EQ(cached.digest, first.digest);

  // Cold compute: shed with a typed overload carrying the brownout
  // marker and a retry hint — never forwarded to the surviving shard.
  TempFile cold("bo_cold");
  write_trace(cold.path(), 4, 300);
  const Response shed = client.call(predict_request(cold.path()));
  EXPECT_EQ(shed.status, Status::kOverloaded);
  EXPECT_TRUE(shed.brownout);
  EXPECT_GT(shed.retry_after_ms, 0);
  EXPECT_NE(shed.error.find("brownout"), std::string::npos);

  // Health still answers, surfacing the degraded state.
  Request health;
  health.type = ReqType::kHealth;
  const Response h = client.call(health);
  ASSERT_EQ(h.status, Status::kOk);
  EXPECT_TRUE(h.brownout);
  EXPECT_EQ(h.live_shards, 1u);
  EXPECT_EQ(h.total_shards, 2u);
  EXPECT_NE(server::render_health_text(h).find("BROWNOUT"),
            std::string::npos);

  proxy.stop();
  shard_a->stop();
}

// ---- membership epoch transitions ------------------------------------------

TEST(MembershipEpochTest, TransientBlipKeepsEpochRestartChangesIt) {
  TempFile sock{"epoch_shard"};
  server::ServerOptions so;
  so.unix_path = sock.path();
  so.jobs = 1;
  so.shard_id = 1;
  auto shard = std::make_unique<server::Server>(so);
  shard->start();

  MembershipOptions mopt;
  mopt.probe_base_ms = 10;
  mopt.probe_cap_ms = 50;
  Membership m({ShardEndpoint::parse(1, sock.path())}, mopt);
  m.start();
  ASSERT_EQ(m.up_count(), 1u);
  const std::uint64_t epoch_orig = m.snapshot()[0].epoch;
  ASSERT_NE(epoch_orig, 0u);

  // Transient blip: ejected while the process lives on.  The prober
  // re-admits it, and the SAME epoch proves nothing restarted (the
  // shard's cache is still warm).
  m.eject(0);
  EXPECT_EQ(m.up_count(), 0u);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (m.up_count() < 1 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_EQ(m.up_count(), 1u) << "blip never recovered";
  EXPECT_EQ(m.snapshot()[0].epoch, epoch_orig)
      << "a blip must not look like a restart";
  EXPECT_EQ(m.snapshot()[0].ejections, 1u);

  // Real restart on the same endpoint: a new process binds the same
  // socket.  After the down/up cycle the epoch MUST differ — that is
  // how the proxy knows the cache went cold.
  shard->stop();
  shard.reset();
  m.eject(0);
  shard = std::make_unique<server::Server>(so);
  shard->start();
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (m.up_count() < 1 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_EQ(m.up_count(), 1u) << "restart never recovered";
  EXPECT_NE(m.snapshot()[0].epoch, epoch_orig)
      << "restart-with-same-endpoint must present a fresh epoch";
  EXPECT_EQ(m.snapshot()[0].ejections, 2u);

  m.stop();
  shard->stop();
}

TEST(MembershipEpochTest, DownShardIsReprobedWithBackoffUntilItReturns) {
  TempFile sock{"backoff_shard"};
  server::ServerOptions so;
  so.unix_path = sock.path();
  so.jobs = 1;
  so.shard_id = 1;
  auto shard = std::make_unique<server::Server>(so);
  shard->start();

  MembershipOptions mopt;
  mopt.probe_base_ms = 20;
  mopt.probe_cap_ms = 200;
  Membership m({ShardEndpoint::parse(1, sock.path())}, mopt);
  m.start();
  ASSERT_EQ(m.up_count(), 1u);

  // Kill the shard for real, eject, and hold it down long enough that
  // the prober must fail several times (walking up its backoff).
  shard->stop();
  shard.reset();
  m.eject(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_EQ(m.up_count(), 0u) << "prober resurrected a dead shard";

  // Bring it back: recovery must happen on its own, bounded by the
  // backoff cap (plus generous scheduling slack).
  shard = std::make_unique<server::Server>(so);
  shard->start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (m.up_count() < 1 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(m.up_count(), 1u) << "backed-off prober never recovered";

  m.stop();
  shard->stop();
}

// ---- launcher: zombies, pause/resume, crash-loop governance ----------------

TEST(LauncherTest, ReapExitedCollectsSelfCrashedShard) {
  ASSERT_STRNE(VPPB_EXE, "") << "VPPB_EXE not compiled in";
  TempFile dir_guard("reap_dir");
  ClusterOptions copt;
  copt.exe = VPPB_EXE;
  copt.dir = dir_guard.path();
  copt.shards = 1;
  copt.jobs = 1;
  LocalCluster shards(copt);
  shards.start();
  ASSERT_TRUE(shards.alive(0));
  EXPECT_TRUE(shards.reap_exited().empty());

  // The shard dies on its own — no kill_shard, so nobody waitpid()s it
  // and it sits as a zombie until reap_exited collects it.
  ::kill(shards.pid(0), SIGKILL);
  std::vector<std::size_t> exited;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (exited.empty() && std::chrono::steady_clock::now() < deadline) {
    exited = shards.reap_exited();
    if (exited.empty())
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(exited.size(), 1u);
  EXPECT_EQ(exited[0], 0u);
  EXPECT_FALSE(shards.alive(0));

  // And the slot restarts cleanly afterwards.
  shards.restart_shard(0);
  EXPECT_TRUE(shards.alive(0));
  shards.stop();
}

TEST(LauncherTest, PausedShardStopsAnsweringAndResumes) {
  ASSERT_STRNE(VPPB_EXE, "") << "VPPB_EXE not compiled in";
  TempFile dir_guard("pause_dir");
  ClusterOptions copt;
  copt.exe = VPPB_EXE;
  copt.dir = dir_guard.path();
  copt.shards = 1;
  copt.jobs = 1;
  LocalCluster shards(copt);
  shards.start();

  auto probe_ok = [&]() {
    try {
      Client c = Client::connect_unix(shards.shards()[0].unix_path);
      Request req;
      req.type = ReqType::kHealth;
      server::RetryPolicy once;
      once.max_attempts = 1;
      once.request_timeout_ms = 300;
      return c.call_retry(req, once).status == Status::kOk;
    } catch (const Error&) {
      return false;
    }
  };
  ASSERT_TRUE(probe_ok());

  // SIGSTOPped: connects may still land in the kernel backlog, but no
  // response arrives inside the timeout — the gray-failure signature.
  shards.pause_shard(0);
  EXPECT_FALSE(probe_ok());
  shards.resume_shard(0);
  EXPECT_TRUE(probe_ok());

  // stop() must also cope with a paused shard (SIGCONT before SIGTERM,
  // else the blocking waitpid would hang this test forever).
  shards.pause_shard(0);
  shards.stop();
  EXPECT_FALSE(shards.alive(0));
}

TEST(LauncherTest, CrashLoopBacksOffThenRefuses) {
  ASSERT_STRNE(VPPB_EXE, "") << "VPPB_EXE not compiled in";
  TempFile dir_guard("loop_dir");
  ClusterOptions copt;
  copt.exe = VPPB_EXE;
  copt.dir = dir_guard.path();
  copt.shards = 1;
  copt.jobs = 1;
  copt.max_crash_restarts = 3;
  copt.restart_backoff_base_ms = 10;
  copt.restart_backoff_cap_ms = 30;
  LocalCluster shards(copt);
  shards.start();

  // Three rapid crash->restart cycles are tolerated (with backoff)...
  for (int i = 0; i < 3; ++i) {
    shards.kill_shard(0);
    shards.restart_shard(0);
    EXPECT_EQ(shards.restarts(0), i + 1);
  }
  // ...the fourth inside the cool-off window is refused: a shard that
  // cannot stay up should stay down until an operator looks at it.
  shards.kill_shard(0);
  EXPECT_THROW(shards.restart_shard(0), Error);
  EXPECT_FALSE(shards.alive(0));
  shards.stop();
}

}  // namespace
}  // namespace vppb::cluster
