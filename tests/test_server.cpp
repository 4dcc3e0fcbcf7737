// Tests for the vppbd prediction service: protocol framing (including
// truncated/oversized/garbage frames), the content-addressed LRU trace
// cache, the ThreadPool task API, and a multi-client integration test
// proving server responses bit-identical to the offline path.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <string>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/sweep.hpp"
#include "obs/metrics.hpp"
#include "recorder/recorder.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/stats_text.hpp"
#include "server/trace_cache.hpp"
#include "solaris/program.hpp"
#include "solaris/solaris.hpp"
#include "stats_cases.hpp"
#include "trace/io.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/socket.hpp"
#include "util/thread_pool.hpp"
#include "workloads/synthetic.hpp"

namespace vppb::server {
namespace {

// ---- helpers ---------------------------------------------------------------

trace::Trace record_fork_join(int threads, SimTime work) {
  sol::Program program;
  return rec::record_program(program, [threads, work]() {
    workloads::fork_join(threads, work);
  });
}

/// A fresh path under the system temp dir; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& tag) {
    static std::atomic<int> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("vppb_" + tag + "_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter.fetch_add(1))))
                .string();
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Request full_request() {
  Request req;
  req.type = ReqType::kSimulate;
  req.trace_path = "some/trace file.bin";
  req.cpus = 12;
  req.lwps = 3;
  req.max_cpus = 64;
  req.comm_delay_us = 7;
  req.want_svg = true;
  req.deadline_ms = 250;
  return req;
}

// ---- protocol framing ------------------------------------------------------

TEST(ProtocolTest, RequestRoundTrip) {
  const Request req = full_request();
  const Request back = decode_request(encode(req));
  EXPECT_EQ(back.type, req.type);
  EXPECT_EQ(back.trace_path, req.trace_path);
  EXPECT_EQ(back.cpus, req.cpus);
  EXPECT_EQ(back.lwps, req.lwps);
  EXPECT_EQ(back.max_cpus, req.max_cpus);
  EXPECT_EQ(back.comm_delay_us, req.comm_delay_us);
  EXPECT_EQ(back.want_svg, req.want_svg);
  EXPECT_EQ(back.deadline_ms, req.deadline_ms);
}

TEST(ProtocolTest, HealthAndDeadlineFieldsRoundTrip) {
  Response resp;
  resp.status = Status::kOk;
  resp.type = ReqType::kHealth;
  resp.ready = true;
  resp.in_flight = 3;
  resp.admission_limit = 64;
  resp.stats.deadlines = 7;
  resp.stats.by_type[static_cast<std::size_t>(ReqType::kHealth)] = 2;
  const Response back = decode_response(encode(resp));
  EXPECT_EQ(back.type, ReqType::kHealth);
  EXPECT_TRUE(back.ready);
  EXPECT_EQ(back.in_flight, 3u);
  EXPECT_EQ(back.admission_limit, 64u);
  EXPECT_EQ(back.stats.deadlines, 7u);
  EXPECT_EQ(back.stats.by_type[static_cast<std::size_t>(ReqType::kHealth)],
            2u);

  Response dl;
  dl.status = Status::kDeadlineExceeded;
  dl.type = ReqType::kPredict;
  dl.error = "deadline exceeded during CPU sweep";
  const Response dlback = decode_response(encode(dl));
  EXPECT_EQ(dlback.status, Status::kDeadlineExceeded);
  EXPECT_EQ(dlback.error, dl.error);
}

TEST(ProtocolTest, ResponseRoundTrip) {
  Response resp;
  resp.status = Status::kOk;
  resp.type = ReqType::kPredict;
  resp.points = {WirePoint{1, 1.0, 1.0, 1000, 11},
                 WirePoint{4, 3.5, 0.875, 286, 22}};
  resp.serial_fraction = 0.0625;
  resp.knee = 4;
  resp.digest = 0xdeadbeefcafef00dULL;
  resp.total_ns = 286;
  resp.speedup = 3.5;
  resp.cpus = 4;
  resp.lwps = 9;
  resp.events = 123;
  resp.svg = "<svg>...</svg>";
  resp.report = "all quiet";
  resp.stats.requests = 42;
  resp.stats.by_type[0] = 40;
  resp.stats.cache_hits = 39;
  resp.stats.latency_buckets[40] = 1234;

  const Response back = decode_response(encode(resp));
  EXPECT_EQ(back.status, resp.status);
  EXPECT_EQ(back.type, resp.type);
  ASSERT_EQ(back.points.size(), 2u);
  EXPECT_EQ(back.points[1].cpus, 4);
  EXPECT_DOUBLE_EQ(back.points[1].speedup, 3.5);
  EXPECT_EQ(back.points[1].digest, 22u);
  EXPECT_DOUBLE_EQ(back.serial_fraction, 0.0625);
  EXPECT_EQ(back.knee, 4);
  EXPECT_EQ(back.digest, resp.digest);
  EXPECT_EQ(back.total_ns, 286);
  EXPECT_EQ(back.lwps, 9);
  EXPECT_EQ(back.events, 123u);
  EXPECT_EQ(back.svg, resp.svg);
  EXPECT_EQ(back.report, resp.report);
  EXPECT_EQ(back.stats.requests, 42u);
  EXPECT_EQ(back.stats.by_type[0], 40u);
  EXPECT_EQ(back.stats.cache_hits, 39u);
  EXPECT_EQ(back.stats.latency_buckets[40], 1234u);
}

TEST(ProtocolTest, StatsBytesArePinnedAtV9) {
  // Every StatsBody field distinct, at the top level and in one shard
  // entry: a field dropped, duplicated or moved changes the bytes.
  Response resp;
  resp.type = ReqType::kStats;
  resp.stats = every_stats_field(1, 0.5);
  ShardInfo shard;
  shard.shard_id = 3;
  shard.epoch = 0x5eed;
  shard.healthy = true;
  shard.endpoint = "cdir/shard3.sock";
  shard.stats = every_stats_field(200, 0.25);
  resp.shards.push_back(shard);

  const std::vector<std::uint8_t> bytes = encode(resp);
  EXPECT_EQ(kProtocolVersion, 9);
  EXPECT_EQ(bytes.size(), 742u);
  EXPECT_EQ(content_key(bytes.data(), bytes.size()), 0xa6f63c4ae18554caULL);
  EXPECT_EQ(encode(decode_response(bytes)), bytes);
}

TEST(ProtocolTest, RequestAndResponseBytesArePinnedAtV9) {
  // Every Request and Response field set to its own value, and every
  // list non-empty: a field dropped, duplicated, moved or re-typed
  // changes the bytes.
  Request req;
  req.type = ReqType::kTraceDump;
  req.trace_path = "pin/trace file.vpb";
  req.cpus = 12;
  req.lwps = -3;
  req.max_cpus = 64;
  req.comm_delay_us = 7;
  req.want_svg = true;
  req.deadline_ms = 250;
  req.client_id = 0x1122334455667788ULL;
  req.origin_id = 0x99;
  req.trace_id = 0xfeedfacecafebeefULL;
  req.parent_span_id = 0x2222;
  req.sampled = true;
  req.want_timeline = true;

  Response resp;
  resp.status = Status::kQuotaExceeded;
  resp.type = ReqType::kMetricsDump;
  resp.error = "over quota";
  resp.points = {WirePoint{1, 1.0, 0.5, 9000, 11},
                 WirePoint{2, 1.75, 0.875, 5143, 22}};
  resp.serial_fraction = 0.0625;
  resp.knee = 5;
  resp.digest = 0xdeadbeefcafef00dULL;
  resp.total_ns = -286;
  resp.speedup = 3.5;
  resp.cpus = 6;
  resp.lwps = 9;
  resp.events = 123;
  resp.svg = "<svg/>";
  resp.report = "all quiet";
  resp.stats = every_stats_field(1000, 0.125);
  resp.ready = true;
  resp.in_flight = 13;
  resp.admission_limit = 64;
  resp.shard_id = 3;
  resp.epoch = 0x5eed;
  ShardInfo shard;
  shard.shard_id = 4;
  shard.epoch = 0x5eee;
  shard.healthy = true;
  shard.endpoint = "127.0.0.1:7071";
  shard.stats = every_stats_field(2000, 0.25);
  resp.shards.push_back(shard);
  resp.retry_after_ms = 750;
  resp.brownout = true;
  resp.live_shards = 17;
  resp.total_shards = 18;
  resp.served_stale = true;
  resp.stale_age_ms = 2500;
  resp.slo_burning = true;
  resp.trace_id = 0xabcdef0123456789ULL;
  resp.timeline.push_back({"forward shard=4", 150, 9000, 2});
  resp.timeline.push_back({"hedge", 700, -1, 1});
  WireSpan span;
  span.pid = 4;
  span.tid = 8;
  span.name = "server.dispatch";
  span.cat = "server";
  span.start_unix_ns = 1700000000123456789LL;
  span.dur_ns = 420000;
  span.trace_id = 0x7777;
  span.arg_name = "cpus";
  span.arg_value = -19;
  resp.spans.push_back(span);

  const std::vector<std::uint8_t> req_bytes = encode(req);
  const std::vector<std::uint8_t> resp_bytes = encode(resp);
  EXPECT_EQ(kProtocolVersion, 9);
  EXPECT_EQ(req_bytes.size(), 54u);
  EXPECT_EQ(content_key(req_bytes.data(), req_bytes.size()),
            0xf27b03a118d3c80aULL);
  EXPECT_EQ(resp_bytes.size(), 1054u);
  EXPECT_EQ(content_key(resp_bytes.data(), resp_bytes.size()),
            0x5757630690b73ae3ULL);
  EXPECT_EQ(encode(decode_request(req_bytes)), req_bytes);
  EXPECT_EQ(encode(decode_response(resp_bytes)), resp_bytes);
}

TEST(ProtocolTest, HugeStringLengthIsATypedError) {
  // A string length of 2^64 - 2 (the varint fe ff .. ff 01).  A bounds
  // check written as `pos + n <= size` wraps and passes it, and the
  // string constructor then throws std::length_error, which no tier
  // catches: the decoders must reject it as a vppb::Error instead.
  const std::vector<std::uint8_t> request = {
      kProtocolVersion, 0x00, 0xfe, 0xff, 0xff, 0xff,
      0xff, 0xff, 0xff, 0xff, 0xff, 0x01};
  EXPECT_THROW(decode_request(request), Error);
  // The same length in a response's error string.
  const std::vector<std::uint8_t> response = {
      kProtocolVersion, 0x01, 0x00, 0xfe, 0xff, 0xff, 0xff,
      0xff, 0xff, 0xff, 0xff, 0xff, 0x01};
  EXPECT_THROW(decode_response(response), Error);
}

TEST(ProtocolTest, ErrorResponseRoundTrip) {
  Response resp;
  resp.status = Status::kOverloaded;
  resp.type = ReqType::kAnalyze;
  resp.error = "server overloaded";
  const Response back = decode_response(encode(resp));
  EXPECT_EQ(back.status, Status::kOverloaded);
  EXPECT_EQ(back.error, "server overloaded");
}

TEST(ProtocolTest, FrameRoundTripOverSocketPair) {
  auto [a, b] = util::socket_pair();
  const std::vector<std::uint8_t> payload = encode(full_request());
  write_frame(a, payload);
  write_frame(a, payload);  // two frames back to back
  std::vector<std::uint8_t> got;
  ASSERT_TRUE(read_frame(b, got));
  EXPECT_EQ(got, payload);
  ASSERT_TRUE(read_frame(b, got));
  EXPECT_EQ(got, payload);
}

TEST(ProtocolTest, CleanEofReturnsFalse) {
  auto [a, b] = util::socket_pair();
  a.close();
  std::vector<std::uint8_t> got;
  EXPECT_FALSE(read_frame(b, got));
}

TEST(ProtocolTest, TruncatedHeaderThrows) {
  auto [a, b] = util::socket_pair();
  const std::uint8_t half[2] = {0x10, 0x00};
  a.send_all(half, sizeof half);
  a.close();
  std::vector<std::uint8_t> got;
  EXPECT_THROW(read_frame(b, got), Error);
}

TEST(ProtocolTest, TruncatedPayloadThrows) {
  auto [a, b] = util::socket_pair();
  const std::uint8_t header[4] = {100, 0, 0, 0};  // promises 100 bytes
  a.send_all(header, sizeof header);
  const std::uint8_t some[10] = {};
  a.send_all(some, sizeof some);
  a.close();
  std::vector<std::uint8_t> got;
  EXPECT_THROW(read_frame(b, got), Error);
}

TEST(ProtocolTest, OversizedFrameThrows) {
  auto [a, b] = util::socket_pair();
  const std::uint8_t header[4] = {0xff, 0xff, 0xff, 0xff};
  a.send_all(header, sizeof header);
  std::vector<std::uint8_t> got;
  EXPECT_THROW(read_frame(b, got), Error);
}

TEST(ProtocolTest, ZeroLengthFrameThrows) {
  auto [a, b] = util::socket_pair();
  const std::uint8_t header[4] = {0, 0, 0, 0};
  a.send_all(header, sizeof header);
  std::vector<std::uint8_t> got;
  EXPECT_THROW(read_frame(b, got), Error);
}

TEST(ProtocolTest, GarbagePayloadThrows) {
  // A correctly framed payload of junk must fail decoding, not crash.
  const std::vector<std::uint8_t> junk = {0x01, 0xff, 0xee, 0xdd, 0x9c,
                                          0x80, 0x80, 0x80, 0x42};
  EXPECT_THROW(decode_request(junk), Error);
  EXPECT_THROW(decode_response(junk), Error);
}

TEST(ProtocolTest, WrongVersionThrows) {
  std::vector<std::uint8_t> payload = encode(full_request());
  payload[0] = kProtocolVersion + 1;
  EXPECT_THROW(decode_request(payload), Error);
}

TEST(ProtocolTest, TrailingBytesThrow) {
  std::vector<std::uint8_t> payload = encode(full_request());
  payload.push_back(0x00);
  EXPECT_THROW(decode_request(payload), Error);
}

// ---- combined digests ------------------------------------------------------

TEST(DigestTest, CombinedDigestIsOrderSensitive) {
  const trace::Trace t = record_fork_join(4, SimTime::millis(2));
  const core::CompiledTrace compiled = core::compile(t);
  core::SimConfig cfg;
  cfg.hw.cpus = 1;
  const core::SimResult one = core::simulate(compiled, cfg);
  cfg.hw.cpus = 4;
  const core::SimResult four = core::simulate(compiled, cfg);
  ASSERT_NE(core::digest(one), core::digest(four));
  EXPECT_NE(core::digest(std::vector<core::SimResult>{one, four}),
            core::digest(std::vector<core::SimResult>{four, one}));
  EXPECT_NE(core::digest(std::vector<core::SimResult>{one}),
            core::digest(std::vector<core::SimResult>{}));
}

// ---- ThreadPool::post ------------------------------------------------------

TEST(ThreadPoolPostTest, RunsAllTasksAndDrainsOnDestruction) {
  std::atomic<int> ran{0};
  {
    util::ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) pool.post([&ran]() { ++ran; });
  }  // destructor must drain, not drop
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolPostTest, CoexistsWithParallelFor) {
  util::ThreadPool pool(3);
  std::atomic<int> posted{0};
  for (int i = 0; i < 32; ++i) pool.post([&posted]() { ++posted; });
  std::atomic<int> looped{0};
  pool.parallel_for(64, [&looped](std::size_t) { ++looped; });
  EXPECT_EQ(looped.load(), 64);
  // parallel_for returning does not imply the queue is empty; the
  // destructor drains what remains.
}

// ---- trace cache -----------------------------------------------------------

TEST(TraceCacheTest, HitsMissesContentAddressingAndLru) {
  const trace::Trace t1 = record_fork_join(2, SimTime::millis(1));
  const trace::Trace t2 = record_fork_join(3, SimTime::millis(1));
  const trace::Trace t3 = record_fork_join(4, SimTime::millis(1));
  TempFile f1("t1"), f1copy("t1copy"), f2("t2"), f3("t3");
  trace::save_file(t1, f1.path());
  trace::save_file(t1, f1copy.path());  // same bytes, different path
  trace::save_file(t2, f2.path());
  trace::save_file(t3, f3.path());

  TraceCache cache(2, 1u << 30);
  const auto e1 = cache.get(f1.path());
  EXPECT_EQ(cache.stats().misses, 1u);

  // Content addressing: a byte-identical file elsewhere is a hit.
  const auto e1b = cache.get(f1copy.path());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(e1.get(), e1b.get());

  cache.get(f2.path());
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Third distinct trace in a 2-entry cache evicts the LRU one (t1).
  cache.get(f3.path());
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  cache.get(f1.path());  // must re-load
  EXPECT_EQ(cache.stats().misses, 4u);

  // The evicted entry stayed alive through its shared_ptr.
  EXPECT_EQ(e1->trace.records.size(), t1.records.size());
}

TEST(TraceCacheTest, ByteBudgetEvicts) {
  const trace::Trace t1 = record_fork_join(2, SimTime::millis(1));
  const trace::Trace t2 = record_fork_join(5, SimTime::millis(1));
  TempFile f1("b1"), f2("b2");
  trace::save_file(t1, f1.path());
  trace::save_file(t2, f2.path());

  // Entries are charged their full parsed+compiled footprint, not just
  // file bytes, so measure the charge with an unbounded cache first.
  std::size_t size1 = 0;
  std::size_t size2 = 0;
  {
    TraceCache probe(16, 1u << 30);
    size1 = probe.get(f1.path())->bytes;
    size2 = probe.get(f2.path())->bytes;
  }

  // Budget fits either trace alone but not both.
  TraceCache cache(16, size1 + size2 - 1);
  cache.get(f1.path());
  EXPECT_EQ(cache.stats().entries, 1u);
  cache.get(f2.path());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_LE(cache.stats().bytes, size1 + size2 - 1);
}

TEST(TraceCacheTest, MissingAndMalformedFilesThrow) {
  TraceCache cache(4, 1u << 20);
  EXPECT_THROW(cache.get("/nonexistent/vppb.trace"), Error);
  TempFile junk("junk");
  std::ofstream(junk.path()) << "this is not a trace\n";
  EXPECT_THROW(cache.get(junk.path()), Error);
  // A failed load must not wedge the slot for later attempts.
  EXPECT_THROW(cache.get(junk.path()), Error);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(TraceCacheTest, ConcurrentColdGetsCompileOnce) {
  const trace::Trace t = record_fork_join(4, SimTime::millis(2));
  TempFile f("cold");
  trace::save_file(t, f.path());
  TraceCache cache(4, 1u << 30);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const TraceCache::Entry>> entries(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&cache, &entries, &f, i]() {
      entries[static_cast<std::size_t>(i)] = cache.get(f.path());
    });
  }
  for (auto& th : threads) th.join();
  const TraceCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 1u) << "single-flight must compile exactly once";
  EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kThreads - 1));
  for (const auto& e : entries) EXPECT_EQ(e.get(), entries[0].get());
}

// ---- server integration ----------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  static Request predict_request(const std::string& path, int max_cpus = 8) {
    Request req;
    req.type = ReqType::kPredict;
    req.trace_path = path;
    req.max_cpus = max_cpus;
    return req;
  }
};

TEST_F(ServerTest, EightClientsBitIdenticalToOfflineAndOneCompile) {
  const trace::Trace t = record_fork_join(6, SimTime::millis(3));
  TempFile trace_file("srv");
  trace::save_file(t, trace_file.path());

  // The offline path: same sweep, same digests.
  const core::CompiledTrace compiled = core::compile(t);
  std::vector<core::SimResult> offline_results;
  core::SweepOptions opt;
  opt.jobs = 1;
  opt.results = &offline_results;
  const std::vector<int> counts = {1, 2, 4, 8};
  core::sweep_cpus(compiled, counts, core::SimConfig{}, opt);
  const std::uint64_t offline_digest = core::digest(offline_results);

  TempFile sock("sock");
  ServerOptions so;
  so.unix_path = sock.path();
  so.jobs = 4;
  Server server(so);
  server.start();

  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::vector<Response> responses(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i]() {
      Client c = Client::connect_unix(sock.path());
      responses[static_cast<std::size_t>(i)] =
          c.call(predict_request(trace_file.path()));
    });
  }
  for (auto& th : clients) th.join();

  for (const Response& r : responses) {
    ASSERT_EQ(r.status, Status::kOk) << r.error;
    EXPECT_EQ(r.digest, offline_digest)
        << "server response must be bit-identical to offline predict";
    ASSERT_EQ(r.points.size(), offline_results.size());
    for (std::size_t i = 0; i < r.points.size(); ++i) {
      EXPECT_EQ(r.points[i].digest, core::digest(offline_results[i]));
      EXPECT_EQ(r.points[i].total_ns, offline_results[i].total.ns());
    }
  }

  Client c = Client::connect_unix(sock.path());
  Request stats_req;
  stats_req.type = ReqType::kStats;
  const Response stats = c.call(stats_req);
  ASSERT_EQ(stats.status, Status::kOk);
  EXPECT_EQ(stats.stats.by_type[0], static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.stats.cache_misses, 1u)
      << "the trace must be parsed/compiled exactly once";
  EXPECT_EQ(stats.stats.cache_hits, static_cast<std::uint64_t>(kClients - 1));
  EXPECT_EQ(stats.stats.overloads, 0u);
  // The stats request's own latency is recorded after its snapshot.
  EXPECT_EQ(std::accumulate(std::begin(stats.stats.latency_buckets),
                            std::end(stats.stats.latency_buckets),
                            std::uint64_t{0}),
            static_cast<std::uint64_t>(kClients));
  server.stop();
}

TEST_F(ServerTest, MetricsDumpServesPrometheusTextAndStructuredStats) {
  const trace::Trace t = record_fork_join(4, SimTime::millis(2));
  TempFile trace_file("md");
  trace::save_file(t, trace_file.path());

  TempFile sock("mdsock");
  ServerOptions so;
  so.unix_path = sock.path();
  so.jobs = 2;
  Server server(so);
  server.start();

  Client c = Client::connect_unix(sock.path());
  // Two predicts so the cache records one miss and one hit.
  ASSERT_EQ(c.call(predict_request(trace_file.path(), 4)).status, Status::kOk);
  ASSERT_EQ(c.call(predict_request(trace_file.path(), 4)).status, Status::kOk);

  Request req;
  req.type = ReqType::kMetricsDump;
  const Response r = c.call(req);
  ASSERT_EQ(r.status, Status::kOk) << r.error;
  EXPECT_EQ(r.type, ReqType::kMetricsDump);

  // The Prometheus exposition covers every layer: server counters and
  // latency histogram, cache counters and occupancy gauges, pool usage.
  for (const char* needle :
       {"# TYPE vppb_server_requests_total counter",
        "# TYPE vppb_server_latency_us histogram", "vppb_cache_hits_total",
        "vppb_cache_misses_total", "vppb_cache_entries", "vppb_cache_bytes",
        "vppb_pool_tasks_total", "vppb_pool_queue_depth",
        "vppb_server_in_flight", "vppb_server_admission_limit"}) {
    EXPECT_NE(r.report.find(needle), std::string::npos)
        << "metricsdump missing " << needle;
  }

  // The structured body rides along, and its human rendering surfaces
  // the failure counters and the hit rate.
  EXPECT_GE(r.stats.requests, 3u);
  EXPECT_EQ(r.stats.cache_misses, 1u);
  EXPECT_EQ(r.stats.cache_hits, 1u);
  const std::string text = render_stats_text(r.stats);
  EXPECT_NE(text.find("deadline misses"), std::string::npos);
  EXPECT_NE(text.find("overloads"), std::string::npos);
  EXPECT_NE(text.find("cache hit rate: 50.0%"), std::string::npos);
  server.stop();
}

/// The value of the unlabeled sample `name` in Prometheus text.  Fails
/// the test unless the sample is printed exactly once.
std::uint64_t prometheus_value(const std::string& text,
                               const std::string& name) {
  std::uint64_t value = 0;
  int seen = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.compare(0, name.size() + 1, name + " ") != 0) continue;
    value = std::stoull(line.substr(name.size() + 1));
    ++seen;
  }
  EXPECT_EQ(seen, 1) << name << " printed " << seen << " times";
  return value;
}

TEST_F(ServerTest, EachServersMetricsDumpAgreesWithItsOwnStats) {
  // Two servers in one process with different traffic: each one's
  // metricsdump must count its own requests and cache lookups, exactly
  // as its stats does, not the sum over the process.
  const trace::Trace t = record_fork_join(4, SimTime::millis(2));
  TempFile trace_file("two");
  trace::save_file(t, trace_file.path());
  TempFile sock_a("twoa");
  TempFile sock_b("twob");
  ServerOptions so;
  so.jobs = 2;
  so.unix_path = sock_a.path();
  Server a(so);
  so.unix_path = sock_b.path();
  Server b(so);
  a.start();
  b.start();
  Client ca = Client::connect_unix(sock_a.path());
  Client cb = Client::connect_unix(sock_b.path());
  for (int i = 0; i < 2; ++i)
    ASSERT_EQ(ca.call(predict_request(trace_file.path(), 4)).status,
              Status::kOk);
  for (int i = 0; i < 5; ++i)
    ASSERT_EQ(cb.call(predict_request(trace_file.path(), 2)).status,
              Status::kOk);

  std::uint64_t requests[2] = {};
  Client* clients[2] = {&ca, &cb};
  for (int i = 0; i < 2; ++i) {
    Request dump;
    dump.type = ReqType::kMetricsDump;
    const Response d = clients[i]->call(dump);
    ASSERT_EQ(d.status, Status::kOk) << d.error;
    Request stats;
    stats.type = ReqType::kStats;
    const Response s = clients[i]->call(stats);
    ASSERT_EQ(s.status, Status::kOk) << s.error;
    // The stats request counts itself, one request after the dump.
    EXPECT_EQ(prometheus_value(d.report, "vppb_server_requests_total") + 1,
              s.stats.requests)
        << "server " << i;
    EXPECT_EQ(prometheus_value(d.report, "vppb_cache_hits_total"),
              s.stats.cache_hits)
        << "server " << i;
    EXPECT_EQ(prometheus_value(d.report, "vppb_cache_misses_total"),
              s.stats.cache_misses)
        << "server " << i;
    requests[i] = s.stats.requests;
  }
  EXPECT_EQ(requests[0], 4u);
  EXPECT_EQ(requests[1], 7u);

  // Server and cache families live in each server's own registries,
  // never in the process-wide one.
  const std::string global = obs::Registry::global().prometheus_text();
  for (const char* prefix : {"vppb_server_", "vppb_cache_", "vppb_slo_"})
    EXPECT_EQ(global.find(prefix), std::string::npos) << prefix;
  a.stop();
  b.stop();
}

TEST_F(ServerTest, SimulateDigestMatchesOfflineAndSvgRenders) {
  const trace::Trace t = record_fork_join(4, SimTime::millis(2));
  TempFile trace_file("sim");
  trace::save_file(t, trace_file.path());
  core::SimConfig cfg;
  cfg.hw.cpus = 2;
  const std::uint64_t offline = core::digest(core::simulate(t, cfg));

  TempFile sock("simsock");
  ServerOptions so;
  so.unix_path = sock.path();
  so.jobs = 2;
  Server server(so);
  server.start();

  Client c = Client::connect_unix(sock.path());
  Request req;
  req.type = ReqType::kSimulate;
  req.trace_path = trace_file.path();
  req.cpus = 2;
  req.want_svg = true;
  const Response r = c.call(req);
  ASSERT_EQ(r.status, Status::kOk) << r.error;
  EXPECT_EQ(r.digest, offline);
  EXPECT_NE(r.svg.find("<svg"), std::string::npos);

  // One connection, several request types back to back.
  req.type = ReqType::kAnalyze;
  req.want_svg = false;
  const Response a = c.call(req);
  ASSERT_EQ(a.status, Status::kOk) << a.error;
  EXPECT_FALSE(a.report.empty());
  server.stop();
}

TEST_F(ServerTest, BadRequestsGetErrorResponsesNotDrops) {
  TempFile sock("errsock");
  ServerOptions so;
  so.unix_path = sock.path();
  so.jobs = 2;
  Server server(so);
  server.start();

  Client c = Client::connect_unix(sock.path());
  Request req = predict_request("/does/not/exist.trace");
  const Response r = c.call(req);
  EXPECT_EQ(r.status, Status::kError);
  EXPECT_NE(r.error.find("cannot open trace file"), std::string::npos);
  EXPECT_NE(r.error.find("No such file"), std::string::npos)
      << "the error must carry strerror(errno) context: " << r.error;

  // Out-of-range config on the same connection still answers.
  req.max_cpus = -3;
  const Response r2 = c.call(req);
  EXPECT_EQ(r2.status, Status::kError);
  EXPECT_NE(r2.error.find("out of range"), std::string::npos);
  server.stop();
}

TEST_F(ServerTest, OverloadIsExplicitAndBounded) {
  // One pool worker, blocked: admitted requests queue, and anything
  // beyond the admission limit must be rejected immediately — not
  // queued forever.
  util::ThreadPool pool(1);
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  pool.post([&]() {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&]() { return gate_open; });
  });

  TempFile sock("oversock");
  ServerOptions so;
  so.unix_path = sock.path();
  so.pool = &pool;
  so.admission_limit = 2;
  Server server(so);
  server.start();

  constexpr int kClients = 6;
  std::atomic<int> ok{0}, overloaded{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&]() {
      Client c = Client::connect_unix(sock.path());
      Request req;
      req.type = ReqType::kStats;
      const Response r = c.call(req);
      if (r.status == Status::kOk) ++ok;
      if (r.status == Status::kOverloaded) ++overloaded;
    });
  }

  // With the worker blocked nothing can finish, so exactly
  // admission_limit requests are admitted and the rest must come back
  // overloaded while we wait.
  for (int spins = 0; overloaded.load() < kClients - so.admission_limit &&
                      spins < 500; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(overloaded.load(), kClients - so.admission_limit);
  EXPECT_EQ(ok.load(), 0);

  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  for (auto& th : clients) th.join();
  EXPECT_EQ(ok.load(), so.admission_limit);
  EXPECT_EQ(overloaded.load(), kClients - so.admission_limit);

  Client c = Client::connect_unix(sock.path());
  Request req;
  req.type = ReqType::kStats;
  const Response stats = c.call(req);
  EXPECT_EQ(stats.stats.overloads,
            static_cast<std::uint64_t>(kClients - so.admission_limit));
  server.stop();
}

TEST_F(ServerTest, TcpEndpointWorksToo) {
  const trace::Trace t = record_fork_join(3, SimTime::millis(1));
  TempFile trace_file("tcp");
  trace::save_file(t, trace_file.path());

  ServerOptions so;
  so.tcp_port = 0;  // ephemeral
  so.jobs = 2;
  Server server(so);
  server.start();
  ASSERT_GT(server.tcp_port(), 0);

  Client c = Client::connect_tcp(server.tcp_port());
  const Response r = c.call(predict_request(trace_file.path(), 4));
  ASSERT_EQ(r.status, Status::kOk) << r.error;
  EXPECT_EQ(r.points.size(), 3u);  // 1, 2, 4
  server.stop();
}

/// Open file descriptors of this process.
std::size_t open_fds() {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST_F(ServerTest, FinishedConnectionsGiveTheirSocketsBack) {
  TempFile sock("fdsock");
  ServerOptions so;
  so.unix_path = sock.path();
  so.jobs = 2;
  Server server(so);
  server.start();
  Request health;
  health.type = ReqType::kHealth;
  const auto one_connection = [&] {
    Client c = Client::connect_unix(sock.path());
    EXPECT_EQ(c.call(health).status, Status::kOk);
  };
  // The listener reaps a finished connection within one 100 ms accept
  // poll; give it a generous multiple of that.
  const auto settled_fds = [](std::size_t target) {
    for (int i = 0; i < 150 && open_fds() > target; ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return open_fds();
  };
  one_connection();  // anything opened once per process opens here
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::size_t baseline = open_fds();
  for (int i = 0; i < 40; ++i) one_connection();
  EXPECT_LE(settled_fds(baseline), baseline)
      << "40 finished connections still hold sockets";
  server.stop();
}

TEST_F(ServerTest, StopDrainsInFlightRequests) {
  const trace::Trace t = record_fork_join(4, SimTime::millis(2));
  TempFile trace_file("drain");
  trace::save_file(t, trace_file.path());
  TempFile sock("drainsock");
  ServerOptions so;
  so.unix_path = sock.path();
  so.jobs = 2;
  auto server = std::make_unique<Server>(so);
  server->start();

  // Fire a request and stop the server while it is being executed; the
  // response must still arrive (drain, not abort).  The caller runs in
  // its own thread, and stop() is issued only once the request counter
  // ticks — i.e. the connection thread is inside execute() and will
  // write its response before noticing the read-side shutdown.  Calling
  // stop() earlier would race the *accept* of the connection, which the
  // drain contract deliberately does not cover.
  Client c = Client::connect_unix(sock.path());
  Response r;
  std::string call_error;
  std::thread caller([&]() {
    try {
      r = c.call(predict_request(trace_file.path(), 4));
    } catch (const Error& e) {
      call_error = e.what();
    }
  });
  StatsBody stats;
  do {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    server->metrics().snapshot(stats);
  } while (stats.requests == 0);
  server->stop();
  caller.join();
  ASSERT_TRUE(call_error.empty()) << call_error;
  EXPECT_EQ(r.status, Status::kOk) << r.error;
}

TEST_F(ServerTest, TwoJobsComputeTwoRequestsAtOnce) {
  // jobs is the number of workers: two requests, each stalled 300 ms,
  // run side by side, so neither waits for the other's stall.
  const trace::Trace t = record_fork_join(2, SimTime::millis(1));
  TempFile trace_file("twojobs");
  trace::save_file(t, trace_file.path());
  util::FaultPlan plan = util::FaultPlan::parse("delay-ms:1:2:300");
  TempFile sock("twojobssock");
  ServerOptions so;
  so.unix_path = sock.path();
  so.jobs = 2;
  so.faults = &plan;
  Server server(so);
  server.start();

  Status status[2] = {Status::kError, Status::kError};
  std::chrono::steady_clock::duration took[2]{};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int i = 0; i < 2; ++i) {
    clients.emplace_back([&, i]() {
      Client c = Client::connect_unix(sock.path());
      status[i] = c.call(predict_request(trace_file.path(), 2)).status;
      took[i] = std::chrono::steady_clock::now() - t0;
    });
  }
  for (auto& th : clients) th.join();
  server.stop();
  EXPECT_EQ(plan.fired_total(), 2u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(status[i], Status::kOk) << "client " << i;
    EXPECT_LT(took[i], std::chrono::milliseconds(500)) << "client " << i;
  }
}

TEST_F(ServerTest, APredictPostsOnlyItsOwnRequestTask) {
  // The handler sweeps serially: a predict's four points add no helper
  // slices to any pool, so the only task it posts is its own.
  const trace::Trace t = record_fork_join(4, SimTime::millis(2));
  TempFile trace_file("onetask");
  trace::save_file(t, trace_file.path());
  TempFile sock("onetasksock");
  ServerOptions so;
  so.unix_path = sock.path();
  so.jobs = 2;
  Server server(so);
  server.start();
  const obs::Counter& posted =
      obs::Registry::global().counter("vppb_pool_tasks_total", "");
  Client client = Client::connect_unix(sock.path());
  const std::uint64_t before = posted.value();
  const Response r = client.call(predict_request(trace_file.path(), 8));
  const std::uint64_t after = posted.value();
  server.stop();
  ASSERT_EQ(r.status, Status::kOk) << r.error;
  ASSERT_EQ(r.points.size(), 4u);
  EXPECT_EQ(after - before, 1u);
}

TEST_F(ServerTest, AClientThatHangsUpFreesItsWorker) {
  // A request stalled 1.5 s whose client closes the connection: the IO
  // thread sees the hang-up, cancels the request, and the worker comes
  // back at its next guard checkpoint instead of computing an answer
  // nobody reads.  That is no budget kill: the trace did nothing wrong.
  const trace::Trace t = record_fork_join(2, SimTime::millis(1));
  TempFile trace_file("hangup");
  trace::save_file(t, trace_file.path());
  util::FaultPlan plan = util::FaultPlan::parse("delay-ms:1:1:1500");
  TempFile sock("hangupsock");
  ServerOptions so;
  so.unix_path = sock.path();
  so.jobs = 1;
  so.faults = &plan;
  Server server(so);
  server.start();

  Client probe = Client::connect_unix(sock.path());
  Request health;
  health.type = ReqType::kHealth;
  const auto in_flight = [&]() { return probe.call(health).in_flight; };
  {
    Client a = Client::connect_unix(sock.path());
    a.send(predict_request(trace_file.path(), 2));
    for (int spins = 0; in_flight() == 0 && spins < 500; ++spins)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }  // client A hangs up with its request in flight
  const auto hung_up = std::chrono::steady_clock::now();
  while (in_flight() != 0 &&
         std::chrono::steady_clock::now() - hung_up <
             std::chrono::milliseconds(1000)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server.stop();
  const auto elapsed = std::chrono::steady_clock::now() - hung_up;
  EXPECT_EQ(plan.fired_total(), 1u);
  EXPECT_LT(elapsed, std::chrono::milliseconds(500))
      << "hang-up to drained: "
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count()
      << " ms";
  EXPECT_EQ(server.metrics().budget_kills.value(), 0u);
}

// ---- resilience: deadlines, health, retries, fault injection ---------------

TEST_F(ServerTest, DeadlineExceededIsTypedCountedAndNeverRetried) {
  const trace::Trace t = record_fork_join(3, SimTime::millis(1));
  TempFile trace_file("dl");
  trace::save_file(t, trace_file.path());

  // One blocked pool worker: the request sits in the queue well past its
  // tiny deadline, so the queue-wait checkpoint must fire.
  util::ThreadPool pool(1);
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  pool.post([&]() {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&]() { return gate_open; });
  });

  TempFile sock("dlsock");
  ServerOptions so;
  so.unix_path = sock.path();
  so.pool = &pool;
  Server server(so);
  server.start();

  std::thread opener([&]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    {
      std::lock_guard<std::mutex> lock(gate_mu);
      gate_open = true;
    }
    gate_cv.notify_all();
  });

  Client c = Client::connect_unix(sock.path());
  Request req = predict_request(trace_file.path(), 4);
  req.deadline_ms = 5;
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.base_ms = 1;
  const Response r = c.call_retry(req, policy);
  opener.join();
  EXPECT_EQ(r.status, Status::kDeadlineExceeded);
  EXPECT_NE(r.error.find("deadline"), std::string::npos) << r.error;
  // The budget is spent: a missed deadline is definitive, never retried.
  EXPECT_EQ(policy.slept_ms, 0);

  Request stats_req;
  stats_req.type = ReqType::kStats;
  const Response stats = c.call(stats_req);
  ASSERT_EQ(stats.status, Status::kOk);
  EXPECT_GE(stats.stats.deadlines, 1u);
  server.stop();
}

TEST_F(ServerTest, HealthBypassesAdmissionDuringOverload) {
  // Saturate a 1-slot server with a blocked worker, then prove a
  // readiness probe still answers — "busy but alive" must be
  // distinguishable from "dead" without consuming an admission slot.
  util::ThreadPool pool(1);
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  pool.post([&]() {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&]() { return gate_open; });
  });

  TempFile sock("healthsock");
  ServerOptions so;
  so.unix_path = sock.path();
  so.pool = &pool;
  so.admission_limit = 1;
  Server server(so);
  server.start();

  std::thread blocked_client([&]() {
    Client c = Client::connect_unix(sock.path());
    Request req;
    req.type = ReqType::kStats;
    const Response r = c.call(req);
    EXPECT_EQ(r.status, Status::kOk) << r.error;
  });

  // Wait (via health itself) until the stats request occupies the slot.
  Client c = Client::connect_unix(sock.path());
  Request health;
  health.type = ReqType::kHealth;
  Response h;
  for (int spins = 0; spins < 500; ++spins) {
    h = c.call(health);
    ASSERT_EQ(h.status, Status::kOk) << h.error;
    if (h.in_flight >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(h.ready);
  EXPECT_EQ(h.in_flight, 1u);
  EXPECT_EQ(h.admission_limit, 1u);

  // Admission is genuinely full: a second stats request is rejected
  // while health keeps answering on the same connection.
  Request stats_req;
  stats_req.type = ReqType::kStats;
  EXPECT_EQ(c.call(stats_req).status, Status::kOverloaded);
  EXPECT_EQ(c.call(health).status, Status::kOk);

  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  blocked_client.join();
  server.stop();
}

TEST_F(ServerTest, ClientRetryRidesOutTransientOverload) {
  util::ThreadPool pool(1);
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  pool.post([&]() {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&]() { return gate_open; });
  });

  TempFile sock("retrysock");
  ServerOptions so;
  so.unix_path = sock.path();
  so.pool = &pool;
  so.admission_limit = 1;
  Server server(so);
  server.start();

  std::thread occupant([&]() {
    Client c = Client::connect_unix(sock.path());
    Request req;
    req.type = ReqType::kStats;
    c.call(req);
  });

  Client probe = Client::connect_unix(sock.path());
  Request health;
  health.type = ReqType::kHealth;
  for (int spins = 0; spins < 500; ++spins) {
    if (probe.call(health).in_flight >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // The overload is transient: the gate opens while the retrying client
  // is backing off, so call_retry must land a kOk without the caller
  // ever seeing kOverloaded.
  std::thread opener([&]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    {
      std::lock_guard<std::mutex> lock(gate_mu);
      gate_open = true;
    }
    gate_cv.notify_all();
  });

  Client c = Client::connect_unix(sock.path());
  Request req;
  req.type = ReqType::kStats;
  RetryPolicy policy;
  policy.max_attempts = 50;
  policy.base_ms = 10;
  policy.cap_ms = 40;
  policy.seed = 7;
  const Response r = c.call_retry(req, policy);
  opener.join();
  occupant.join();
  EXPECT_EQ(r.status, Status::kOk) << r.error;
  EXPECT_GT(policy.slept_ms, 0) << "the first attempts must have backed off";
  server.stop();
}

TEST_F(ServerTest, FaultInjectedClientsGetTypedErrorsAndCleanDigests) {
  const trace::Trace t = record_fork_join(4, SimTime::millis(2));
  TempFile trace_file("faultstorm_with_a_long_name_so_flips_hit_the_path");
  trace::save_file(t, trace_file.path());

  // The offline truth the surviving responses must match bit for bit.
  const core::CompiledTrace compiled = core::compile(t);
  std::vector<core::SimResult> offline_results;
  core::SweepOptions sweep_opt;
  sweep_opt.jobs = 1;
  sweep_opt.results = &offline_results;
  const std::vector<int> counts = {1, 2, 4, 8};
  core::sweep_cpus(compiled, counts, core::SimConfig{}, sweep_opt);
  const std::uint64_t offline_digest = core::digest(offline_results);

  // Every failure mode the plan covers: corrupted request frames,
  // connections dropped mid-stream, stalled responses, and cache loads
  // dying with ENOMEM/EIO.  Deterministic periods, so this is a proof.
  util::FaultPlan plan = util::FaultPlan::parse(
      "corrupt-frame:5,short-read:7:2,delay-ms:9:2:10,"
      "cache-enomem:6:1,cache-eio:11:1");

  TempFile sock("faultsock");
  ServerOptions so;
  so.unix_path = sock.path();
  so.jobs = 4;
  so.faults = &plan;
  Server server(so);
  server.start();

  constexpr int kClients = 8;
  constexpr int kCallsEach = 4;
  std::atomic<int> ok{0}, typed_errors{0}, transport_failures{0};
  std::atomic<int> wrong_digests{0}, untyped_errors{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i]() {
      Client c = Client::connect_unix(sock.path());
      for (int call = 0; call < kCallsEach; ++call) {
        RetryPolicy policy;
        policy.max_attempts = 4;
        policy.base_ms = 1;
        policy.cap_ms = 20;
        policy.seed = static_cast<std::uint64_t>(i * 100 + call + 1);
        policy.request_timeout_ms = 5000;
        try {
          const Response r =
              c.call_retry(predict_request(trace_file.path()), policy);
          if (r.status == Status::kOk) {
            ++ok;
            if (r.digest != offline_digest) ++wrong_digests;
          } else {
            ++typed_errors;
            if (r.error.empty()) ++untyped_errors;
          }
        } catch (const Error&) {
          ++transport_failures;  // every retry burned; still no crash
        }
      }
    });
  }
  for (auto& th : clients) th.join();

  EXPECT_GT(plan.fired_total(), 0u) << "the plan must actually have fired";
  EXPECT_GE(ok.load(), kClients) << "most requests must survive the storm";
  EXPECT_EQ(wrong_digests.load(), 0)
      << "a fault must never silently corrupt a successful result";
  EXPECT_EQ(untyped_errors.load(), 0)
      << "every failed request must carry a typed error message";

  // The daemon survived: a readiness probe answers (allowing for the
  // still-armed corrupt-frame rule eating some probe frames).
  Client probe = Client::connect_unix(sock.path());
  Request health;
  health.type = ReqType::kHealth;
  bool healthy = false;
  for (int attempt = 0; attempt < 6 && !healthy; ++attempt) {
    try {
      const Response h = probe.call(health);
      healthy = h.status == Status::kOk && h.ready;
    } catch (const Error&) {
      probe = Client::connect_unix(sock.path());
    }
  }
  EXPECT_TRUE(healthy) << "the daemon must still answer after the storm";
  server.stop();
}

}  // namespace
}  // namespace vppb::server
