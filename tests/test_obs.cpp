// Tests for the observability layer: the sharded metrics registry, the
// span tracer and its Chrome-trace export, the structured logger, the
// env helpers — and the properties the rest of the tree relies on:
// quantiles read from the shared latency buckets staying within 1/8 of
// the sample, `_count` agreeing with the buckets under concurrent
// writers, and simulation digests being bit-identical with tracing on
// or off.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <latch>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/compiler.hpp"
#include "core/config.hpp"
#include "core/engine.hpp"
#include "core/result.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "recorder/recorder.hpp"
#include "server/stats_text.hpp"
#include "solaris/program.hpp"
#include "util/env.hpp"
#include "util/thread_pool.hpp"
#include "workloads/synthetic.hpp"

namespace vppb {
namespace {

// ---- metrics registry ----------------------------------------------------

TEST(Counter, ShardedIncrementsSumExactly) {
  obs::Counter c("test_sharded_total", "sharded increments");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&c]() {
      for (std::uint64_t n = 0; n < kPerThread; ++n) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Registry, ReRegistrationReturnsTheSameMetric) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("dup_total", "first");
  obs::Counter& b = reg.counter("dup_total", "second help ignored");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(Gauge, SetAddSub) {
  obs::Gauge g("test_gauge", "");
  g.set(10);
  g.add(5);
  g.sub(7);
  EXPECT_EQ(g.value(), 8);
  g.set(-2);
  EXPECT_EQ(g.value(), -2);
}

TEST(Histogram, BucketEdgesAreInclusiveUpperBounds) {
  obs::Histogram h("test_hist", "", {1.0, 2.0, 5.0});
  for (double v : {0.5, 1.0, 1.5, 2.0, 5.0, 6.0}) h.observe(v);
  ASSERT_EQ(h.bounds().size(), 3u);
  EXPECT_EQ(h.bucket_count(0), 2u);  // 0.5, 1.0 (edge is inclusive)
  EXPECT_EQ(h.bucket_count(1), 2u);  // 1.5, 2.0
  EXPECT_EQ(h.bucket_count(2), 1u);  // 5.0
  EXPECT_EQ(h.bucket_count(3), 1u);  // 6.0 -> +Inf
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 16.0);
}

TEST(Histogram, RejectsUnsortedBounds) {
  EXPECT_THROW(obs::Histogram("bad", "", {2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram("bad", "", {1.0, 1.0}), std::invalid_argument);
}

TEST(Registry, PrometheusTextExposition) {
  obs::Registry reg;
  reg.counter("t_requests_total", "Requests").inc(7);
  reg.gauge("t_depth", "Depth").set(3);
  obs::Histogram& h = reg.histogram("t_lat_us", "Latency", {10.0, 100.0});
  h.observe(5.0);
  h.observe(50.0);
  h.observe(500.0);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# HELP t_requests_total Requests\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE t_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("t_requests_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE t_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("t_depth 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE t_lat_us histogram\n"), std::string::npos);
  // Cumulative buckets: le="100" counts everything <= 100.
  EXPECT_NE(text.find("t_lat_us_bucket{le=\"10\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("t_lat_us_bucket{le=\"100\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("t_lat_us_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("t_lat_us_sum 555\n"), std::string::npos);
  EXPECT_NE(text.find("t_lat_us_count 3\n"), std::string::npos);
}

TEST(Registry, PoolInstrumentationReachesTheGlobalRegistry) {
  {
    util::ThreadPool pool(1);
    for (int i = 0; i < 16; ++i) pool.post([]() {});
    // ~ThreadPool drains the queue before joining.
  }
  const std::string text = obs::Registry::global().prometheus_text();
  EXPECT_NE(text.find("vppb_pool_tasks_total"), std::string::npos);
  EXPECT_NE(text.find("vppb_pool_task_wait_us"), std::string::npos);
  EXPECT_NE(text.find("vppb_pool_task_run_us"), std::string::npos);
  EXPECT_NE(text.find("vppb_pool_queue_depth"), std::string::npos);
}

TEST(Registry, PoolQueueDepthCountsTheTasksQueuedInEveryPool) {
  obs::Gauge& depth = obs::Registry::global().gauge(
      "vppb_pool_queue_depth", "Posted tasks waiting for a worker");
  const std::int64_t before = depth.value();
  {
    util::ThreadPool a(1), b(1);
    std::latch started(2), release(1);
    for (util::ThreadPool* pool : {&a, &b}) {
      pool->post([&] {  // holds the pool's only worker
        started.count_down();
        release.wait();
      });
    }
    started.wait();
    for (util::ThreadPool* pool : {&a, &b}) {
      pool->post([] {});
      pool->post([] {});
    }
    EXPECT_EQ(depth.value() - before, 4);
    release.count_down();
  }  // each destructor drains its queue
  EXPECT_EQ(depth.value() - before, 0);
}

// ---- latency buckets and quantiles --------------------------------------

TEST(LatencyHistogram, QuantileIsTheEdgeAtMostAnEighthAboveTheSample) {
  const std::vector<double>& edges = obs::latency_us_bounds();
  ASSERT_EQ(edges.size() + 1, obs::kLatencyBuckets);
  const auto one_sample = [](double v, double q) {
    obs::Histogram h("t_one_us", "", obs::latency_us_bounds());
    h.observe(v);
    std::uint64_t counts[obs::kLatencyBuckets];
    for (std::size_t i = 0; i < obs::kLatencyBuckets; ++i)
      counts[i] = h.bucket_count(i);
    return obs::quantile(counts, q);
  };
  // A sample on an edge, or 1 us to either side of it, reads in
  // [v, 1.125 v]; past the last edge it reads +inf.
  for (double edge : edges) {
    for (double v : {edge - 1.0, edge, edge + 1.0}) {
      for (double q : {0.0, 0.5, 0.99, 1.0}) {
        const double got = one_sample(v, q);
        if (v > edges.back()) {
          EXPECT_EQ(got, std::numeric_limits<double>::infinity()) << v;
        } else {
          EXPECT_GE(got, v) << "v=" << v << " q=" << q;
          EXPECT_LE(got, 1.125 * v) << "v=" << v << " q=" << q;
        }
      }
    }
  }
  // An empty histogram reads 0.
  const std::uint64_t none[obs::kLatencyBuckets] = {};
  EXPECT_EQ(obs::quantile(none, 0.5), 0.0);
  EXPECT_EQ(obs::quantile(none, 0.99), 0.0);
  // A sample far above the last edge reads +inf.
  EXPECT_EQ(one_sample(1e12, 0.5), std::numeric_limits<double>::infinity());
  // The rank is ceil(q * n): of 9 fast and 1 slow sample, p90 is fast
  // and p91 slow.
  obs::Histogram h("t_rank_us", "", obs::latency_us_bounds());
  for (int i = 0; i < 9; ++i) h.observe(100.0);
  h.observe(10000.0);
  std::uint64_t counts[obs::kLatencyBuckets];
  for (std::size_t i = 0; i < obs::kLatencyBuckets; ++i)
    counts[i] = h.bucket_count(i);
  EXPECT_EQ(obs::quantile(counts, 0.90), 104.0);
  EXPECT_EQ(obs::quantile(counts, 0.91), 10240.0);
  EXPECT_EQ(h.count(), 10u);

  // Every `le` label parses back to its edge exactly.
  obs::Registry reg;
  reg.histogram("t_edges_us", "Edges", obs::latency_us_bounds());
  const std::string text = reg.prometheus_text();
  std::vector<double> labels;
  const std::string_view key = "t_edges_us_bucket{le=\"";
  for (std::size_t at = text.find(key); at != std::string::npos;
       at = text.find(key, at + 1)) {
    const std::size_t from = at + key.size();
    const std::string label = text.substr(from, text.find('"', from) - from);
    if (label != "+Inf") labels.push_back(std::strtod(label.c_str(), nullptr));
  }
  EXPECT_EQ(labels, edges);
  EXPECT_NE(text.find("le=\"2359296\""), std::string::npos);
}

TEST(Registry, PrometheusCountEqualsTheInfBucketUnderConcurrentWrites) {
  obs::Registry reg;
  obs::Histogram& h =
      reg.histogram("t_live_us", "Latency", obs::latency_us_bounds());
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&h, &done, t]() {
      for (std::uint64_t i = 0; !done.load(std::memory_order_relaxed); ++i)
        h.observe(static_cast<double>(40 + (i * 7919 + t * 104729) % 500000));
    });
  }
  const auto sample = [](const std::string& text, const std::string& key) {
    const std::size_t at = text.find(key);
    return at == std::string::npos
               ? std::string("missing")
               : text.substr(at + key.size(),
                             text.find('\n', at) - at - key.size());
  };
  int mismatches = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string text = reg.prometheus_text();
    const std::string inf = sample(text, "t_live_us_bucket{le=\"+Inf\"} ");
    const std::string count = sample(text, "t_live_us_count ");
    if (inf != count || inf == "missing") ++mismatches;
  }
  done = true;
  for (auto& w : writers) w.join();
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(h.count(), 0u);
}

TEST(ServerMetrics, StatsTextSurfacesFailureCountersAndHitRate) {
  server::StatsBody s;
  s.requests = 10;
  s.errors = 2;
  s.overloads = 3;
  s.deadlines = 4;
  s.cache_hits = 3;
  s.cache_misses = 1;
  s.auth_failures = 5;
  s.idle_reaps = 6;
  const std::string text = server::render_stats_text(s);
  EXPECT_NE(text.find("errors"), std::string::npos);
  EXPECT_NE(text.find("overloads"), std::string::npos);
  EXPECT_NE(text.find("deadline misses"), std::string::npos);
  const std::pair<const char*, const char*> rows[] = {{"auth failures", "5"},
                                                      {"idle reaps", "6"}};
  for (const auto& [label, value] : rows) {
    const std::size_t at = text.find(label);
    ASSERT_NE(at, std::string::npos) << "no row for " << label;
    const std::string line = text.substr(at, text.find('\n', at) - at);
    EXPECT_NE(line.find(value), std::string::npos) << line;
  }
  EXPECT_NE(text.find("metricsdump"), std::string::npos);
  EXPECT_NE(text.find("cache hit rate: 75.0%"), std::string::npos);
}

// ---- span tracer ---------------------------------------------------------

/// Minimal JSON scanner: verifies braces/brackets balance outside of
/// strings and counts occurrences of `"key":"value"` pairs.  Enough to
/// prove the export is structurally valid JSON without a parser dep.
bool json_balanced(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

std::size_t count_occurrences(const std::string& s, const std::string& pat) {
  std::size_t n = 0;
  for (std::size_t pos = s.find(pat); pos != std::string::npos;
       pos = s.find(pat, pos + pat.size()))
    ++n;
  return n;
}

TEST(Tracer, SpanNestingAndExportRoundTrip) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.enable();
  {
    obs::Span outer("outer", "test");
    outer.arg("items", 42);
    {
      obs::Span inner("inner", "test");
    }
    obs::instant("marker", "test", "value", 7);
  }
  tracer.disable();
  EXPECT_EQ(tracer.event_count(), 3u);
  const std::string json = tracer.chrome_json();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json;
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"marker\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"test\""), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 2u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"i\""), 1u);
  EXPECT_NE(json.find("\"items\":42"), std::string::npos);
  EXPECT_NE(json.find("\"value\":7"), std::string::npos);
  tracer.clear();
}

TEST(Tracer, DisabledSpansRecordNothing) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.disable();
  {
    obs::Span s("invisible", "test");
    s.arg("x", 1);
    obs::instant("also-invisible", "test");
  }
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_EQ(tracer.chrome_json().find("invisible"), std::string::npos);
}

TEST(Tracer, FirstSpanOnAThreadRegistersItsRingWhenItOpens) {
  // A thread's ring (kRingCapacity slots, ~4 MB) must be allocated
  // before its first span takes its start time, or that span times the
  // allocation.  Rings are numbered in registration order: a thread
  // whose first span is still open must already rank before a thread
  // that records a whole span meanwhile.
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.enable();
  std::promise<void> opened;
  std::promise<void> release;
  std::future<void> released = release.get_future();
  std::thread first([&] {
    obs::Span span("test.first_span.open", "test");
    opened.set_value();
    released.wait();
  });
  opened.get_future().wait();
  std::thread([] { obs::Span span("test.first_span.other", "test"); }).join();
  release.set_value();
  first.join();
  tracer.disable();
  std::uint32_t open_ring = 0;
  std::uint32_t other_ring = 0;
  for (const auto& e : tracer.snapshot()) {
    const std::string_view name = e.ev.name;
    if (name == "test.first_span.open") open_ring = e.tid;
    if (name == "test.first_span.other") other_ring = e.tid;
  }
  tracer.clear();
  ASSERT_NE(open_ring, 0u);
  ASSERT_NE(other_ring, 0u);
  EXPECT_LT(open_ring, other_ring)
      << "the ring was registered when the first span ended";
}

TEST(Tracer, SequentialShortLivedThreadsShareOneRing) {
  // A server runs an IO thread per connection; each one that records a
  // span must not leave a ring (~3.6 MB) behind when it exits.
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.enable();
  for (int i = 0; i < 8; ++i)
    std::thread([] { obs::Span span("test.short_lived", "test"); }).join();
  tracer.disable();
  std::set<std::uint32_t> lanes;
  std::size_t spans = 0;
  for (const auto& e : tracer.snapshot()) {
    if (std::string_view(e.ev.name) != "test.short_lived") continue;
    lanes.insert(e.tid);
    ++spans;
  }
  tracer.clear();
  EXPECT_EQ(spans, 8u) << "a handed-over ring keeps its events";
  EXPECT_EQ(lanes.size(), 1u);
}

TEST(Tracer, ARingKeepsOnlyThePagesItsEventsFillResident) {
  // Threads alive at once each hold a ring of their own, so more
  // workers mean more rings: one span must not make a whole ring
  // (~3.6 MB) resident.
  const auto resident_kb = [] {
    std::ifstream statm("/proc/self/statm");
    long pages = 0, resident = 0;
    statm >> pages >> resident;
    return resident * (::sysconf(_SC_PAGESIZE) / 1024);
  };
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.enable();
  constexpr int kThreads = 8;
  std::latch recorded(kThreads), release(1);
  const long before_kb = resident_kb();
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      { obs::Span span("test.ring_pages", "test"); }
      recorded.count_down();
      release.wait();
    });
  }
  recorded.wait();
  const long grown_kb = resident_kb() - before_kb;
  release.count_down();
  for (std::thread& t : threads) t.join();
  tracer.disable();
  tracer.clear();
  EXPECT_LT(grown_kb, kThreads * 1024)
      << "kB made resident by " << kThreads << " threads of one span each";
}

// ---- tracing must not change simulation results --------------------------

TEST(Tracer, SimulationDigestsAreIdenticalWithTracingOnAndOff) {
  sol::Program program;
  const trace::Trace t = rec::record_program(program, []() {
    workloads::fork_join(4, SimTime::millis(2));
  });
  const core::CompiledTrace compiled = core::compile(t);
  core::SimConfig cfg;
  cfg.hw.cpus = 4;

  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.disable();
  const core::SimResult off = core::simulate(compiled, cfg);

  tracer.enable();
  const core::SimResult on = core::simulate(compiled, cfg);
  tracer.disable();

  EXPECT_EQ(core::digest(off), core::digest(on));
  EXPECT_GT(on.engine.steps, 0u);
  EXPECT_EQ(off.engine.steps, on.engine.steps);
  EXPECT_EQ(off.engine.dispatches, on.engine.dispatches);
  EXPECT_EQ(off.engine.preemptions, on.engine.preemptions);
  EXPECT_EQ(off.engine.migrations, on.engine.migrations);
  EXPECT_GT(tracer.event_count(), 0u);  // the traced run left spans
  tracer.clear();
}

// ---- env helpers ---------------------------------------------------------

TEST(Env, RawOrAndSet) {
  ::unsetenv("VPPB_TEST_ENV");
  EXPECT_EQ(util::env_raw("VPPB_TEST_ENV"), nullptr);
  EXPECT_EQ(util::env_or("VPPB_TEST_ENV", "fallback"), "fallback");
  EXPECT_FALSE(util::env_set("VPPB_TEST_ENV"));
  ::setenv("VPPB_TEST_ENV", "", 1);
  EXPECT_EQ(util::env_or("VPPB_TEST_ENV", "fallback"), "");
  EXPECT_FALSE(util::env_set("VPPB_TEST_ENV"));
  ::setenv("VPPB_TEST_ENV", "value", 1);
  EXPECT_EQ(util::env_or("VPPB_TEST_ENV", "fallback"), "value");
  EXPECT_TRUE(util::env_set("VPPB_TEST_ENV"));
  ::unsetenv("VPPB_TEST_ENV");
}

// ---- structured logger ---------------------------------------------------

TEST(Log, LevelParsing) {
  obs::LogLevel level;
  EXPECT_TRUE(obs::parse_log_level("trace", &level));
  EXPECT_EQ(level, obs::LogLevel::kTrace);
  EXPECT_TRUE(obs::parse_log_level("warn", &level));
  EXPECT_EQ(level, obs::LogLevel::kWarn);
  EXPECT_TRUE(obs::parse_log_level("off", &level));
  EXPECT_EQ(level, obs::LogLevel::kOff);
  EXPECT_FALSE(obs::parse_log_level("verbose", &level));
  EXPECT_FALSE(obs::parse_log_level("", &level));
}

TEST(Log, SpecParsing) {
  obs::LogSpec spec;
  EXPECT_TRUE(obs::parse_log_spec("debug", &spec));
  EXPECT_EQ(spec.level, obs::LogLevel::kDebug);
  EXPECT_FALSE(spec.json);
  EXPECT_TRUE(obs::parse_log_spec("info:json", &spec));
  EXPECT_EQ(spec.level, obs::LogLevel::kInfo);
  EXPECT_TRUE(spec.json);
  EXPECT_TRUE(obs::parse_log_spec("error:text", &spec));
  EXPECT_FALSE(spec.json);
  obs::LogSpec untouched;
  untouched.level = obs::LogLevel::kWarn;
  EXPECT_FALSE(obs::parse_log_spec("info:yaml", &untouched));
  EXPECT_EQ(untouched.level, obs::LogLevel::kWarn);
  EXPECT_FALSE(obs::parse_log_spec("loud", &untouched));
}

TEST(Log, JsonSinkEscapesAndLevelsFilter) {
  obs::Logger& log = obs::Logger::global();
  const obs::LogLevel saved_level = log.level();
  const bool saved_json = log.json();

  std::vector<std::string> lines;
  log.set_sink([&lines](std::string_view line) {
    lines.emplace_back(line);
  });
  log.set_level(obs::LogLevel::kInfo);
  log.set_json(true);

  obs::logf(obs::LogLevel::kDebug, "test", "filtered out");
  obs::logf(obs::LogLevel::kInfo, "test", "quote \" and\nnewline");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(json_balanced(lines[0])) << lines[0];
  EXPECT_NE(lines[0].find("\"level\":\"info\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"component\":\"test\""), std::string::npos);
  EXPECT_NE(lines[0].find("quote \\\" and\\nnewline"), std::string::npos);

  log.set_json(false);
  obs::logf(obs::LogLevel::kError, "test", "plain %d", 7);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("error"), std::string::npos);
  EXPECT_NE(lines[1].find("test: plain 7"), std::string::npos);

  log.set_sink({});  // restore stderr
  log.set_level(saved_level);
  log.set_json(saved_json);
}

TEST(Log, JsonEscapingNamesQuotesBackslashesAndControlBytes) {
  // The one escaper behind the JSON log sink, the Chrome trace export
  // and `vppb trace-collect`.
  std::string out = "prefix:";
  obs::append_json_escaped(out, "say \"hi\" \\ a\nb\rc\td\x01" "e \xc3\xa9");
  EXPECT_EQ(out, "prefix:say \\\"hi\\\" \\\\ a\\nb\\rc\\td\\u0001e \xc3\xa9");
}

}  // namespace
}  // namespace vppb
