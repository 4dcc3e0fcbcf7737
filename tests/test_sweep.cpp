// Tests for the processor-sweep and Amdahl-fit analysis.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>

#include "core/sweep.hpp"
#include "obs/metrics.hpp"
#include "recorder/recorder.hpp"
#include "solaris/program.hpp"
#include "solaris/solaris.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "workloads/splash.hpp"
#include "workloads/synthetic.hpp"

namespace vppb::core {
namespace {

CompiledTrace record_compiled(const std::function<void()>& fn) {
  sol::Program program;
  return compile(rec::record_program(program, fn));
}

const int kCpus[] = {1, 2, 4, 8};

TEST(SweepTest, PointsSortedAndComplete) {
  const CompiledTrace c = record_compiled([]() {
    workloads::fork_join(8, SimTime::millis(5));
  });
  const int shuffled[] = {8, 1, 4, 2};
  const SpeedupCurve curve = sweep_cpus(c, shuffled, SimConfig{});
  ASSERT_EQ(curve.points().size(), 4u);
  for (std::size_t i = 1; i < curve.points().size(); ++i)
    EXPECT_GT(curve.points()[i].cpus, curve.points()[i - 1].cpus);
  EXPECT_EQ(curve.best().cpus, 8);
}

TEST(SweepTest, FullyParallelHasNearZeroSerialFraction) {
  const CompiledTrace c = record_compiled([]() {
    workloads::fork_join(8, SimTime::millis(20));
  });
  const SpeedupCurve curve = sweep_cpus(c, kCpus, SimConfig{});
  EXPECT_LT(curve.amdahl_serial_fraction(), 0.02);
  EXPECT_EQ(curve.knee(0.9), 8);
}

TEST(SweepTest, ExplicitSerialFractionIsRecovered) {
  // 30% of the work in main, 70% split over 8 workers: the fitted f
  // should land near 0.3.
  const CompiledTrace c = record_compiled([]() {
    sol::compute(SimTime::millis(30));
    workloads::fork_join(8, SimTime::millis(70) / 8);
  });
  const SpeedupCurve curve = sweep_cpus(c, kCpus, SimConfig{});
  EXPECT_NEAR(curve.amdahl_serial_fraction(), 0.30, 0.05);
  // And the fitted curve reproduces the simulated points.
  for (const SweepPoint& p : curve.points()) {
    EXPECT_NEAR(curve.amdahl_speedup(p.cpus), p.speedup, 0.25) << p.cpus;
  }
}

TEST(SweepTest, FftMatchesThePapersAmdahlFraction) {
  // The paper's FFT row (1.55 / 2.14 / 2.62) fits f ~= 0.29; our FFT
  // kernel was built to reproduce it.
  const CompiledTrace c = record_compiled([]() {
    workloads::fft(workloads::SplashParams{8, 0.2});
  });
  const SpeedupCurve curve = sweep_cpus(c, kCpus, SimConfig{});
  EXPECT_NEAR(curve.amdahl_serial_fraction(), 0.29, 0.07);
}

TEST(SweepTest, KneeThresholds) {
  const CompiledTrace c = record_compiled([]() {
    sol::compute(SimTime::millis(30));
    workloads::fork_join(8, SimTime::millis(70) / 8);
  });
  const SpeedupCurve curve = sweep_cpus(c, kCpus, SimConfig{});
  // f = 0.3: efficiency at 2 CPUs ~ 0.77, at 4 ~ 0.53, at 8 ~ 0.32.
  EXPECT_EQ(curve.knee(0.75), 2);
  EXPECT_EQ(curve.knee(0.5), 4);
  EXPECT_EQ(curve.knee(0.99), 1) << "falls back to the smallest count";
}

TEST(SweepTest, RejectsEmptyInput) {
  const CompiledTrace c = record_compiled([]() {
    workloads::fork_join(2, SimTime::millis(1));
  });
  EXPECT_THROW(sweep_cpus(c, {}, SimConfig{}), Error);
  EXPECT_THROW(SpeedupCurve({}), Error);
}

TEST(SweepTest, SinglePointDegenerateFit) {
  const CompiledTrace c = record_compiled([]() {
    sol::compute(SimTime::millis(50));
    workloads::fork_join(4, SimTime::millis(50) / 4);
  });
  const int one[] = {4};
  const SpeedupCurve curve = sweep_cpus(c, one, SimConfig{});
  // S(4) = 1/(0.5 + 0.5/4) = 1.6 -> f = (4/1.6 - 1)/3 = 0.5.
  EXPECT_NEAR(curve.amdahl_serial_fraction(), 0.5, 0.05);
}

TEST(SweepTest, KneeStopsAtFirstDip) {
  // A curve whose efficiency dips below the threshold at 2 CPUs and
  // recovers at 4 must report the knee at the smallest count, not at
  // the recovered one.
  std::vector<SweepPoint> pts(3);
  pts[0] = {1, 1.0, 1.0, SimTime::millis(100)};
  pts[1] = {2, 0.8, 0.4, SimTime::millis(125)};
  pts[2] = {4, 3.2, 0.8, SimTime::millis(31)};
  const SpeedupCurve curve(std::move(pts));
  EXPECT_EQ(curve.knee(0.5), 1);
  EXPECT_EQ(curve.knee(0.3), 4);
}

TEST(SweepTest, ParallelSweepMatchesSerialPointForPoint) {
  const CompiledTrace c = record_compiled([]() {
    workloads::fft(workloads::SplashParams{8, 0.2});
  });
  const int counts[] = {1, 2, 3, 4, 6, 8};
  SweepOptions serial_opt;
  serial_opt.jobs = 1;
  const SpeedupCurve serial = sweep_cpus(c, counts, SimConfig{}, serial_opt);
  SweepOptions opt;
  opt.jobs = 4;
  const SpeedupCurve parallel = sweep_cpus(c, counts, SimConfig{}, opt);
  ASSERT_EQ(serial.points().size(), parallel.points().size());
  for (std::size_t i = 0; i < serial.points().size(); ++i) {
    const SweepPoint& s = serial.points()[i];
    const SweepPoint& p = parallel.points()[i];
    EXPECT_EQ(s.cpus, p.cpus);
    EXPECT_EQ(s.speedup, p.speedup) << "cpus=" << s.cpus;
    EXPECT_EQ(s.efficiency, p.efficiency) << "cpus=" << s.cpus;
    EXPECT_EQ(s.total, p.total) << "cpus=" << s.cpus;
  }
}

TEST(SweepTest, SweepOptionsCapturesResultsAndTimelines) {
  const CompiledTrace c = record_compiled([]() {
    workloads::fork_join(4, SimTime::millis(5));
  });
  const int counts[] = {1, 4};
  SimConfig base;
  base.build_timeline = true;
  std::vector<SimResult> results;
  SweepOptions opt;
  opt.jobs = 2;
  opt.results = &results;
  const SpeedupCurve curve = sweep_cpus(c, counts, base, opt);
  ASSERT_EQ(results.size(), 2u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].total, curve.points()[i].total);
    EXPECT_TRUE(results[i].segments.empty()) << "a sweep builds no timeline";
  }

  // The default path discards timelines even when the base asks for one.
  std::vector<SimResult> bare;
  SweepOptions defaults;
  defaults.results = &bare;
  sweep_cpus(c, counts, base, defaults);
  ASSERT_EQ(bare.size(), 2u);
  EXPECT_TRUE(bare[0].segments.empty());
}

TEST(SweepTest, EachPointWrapsEveryPointOnce) {
  const CompiledTrace c = record_compiled([]() {
    workloads::fork_join(4, SimTime::millis(5));
  });
  const int counts[] = {1, 2, 4};
  std::vector<SimResult> results;
  std::vector<int> seen;
  SweepOptions opt;
  opt.jobs = 1;  // the hook sees the points in order, one at a time
  opt.results = &results;
  opt.each_point = [&](int cpus, const std::function<void()>& run) {
    const SimResult& r = results[seen.size()];
    EXPECT_EQ(r.total, SimTime::zero()) << "the hook runs before its point";
    run();
    EXPECT_EQ(r.cpus, cpus) << "run() simulates this point";
    EXPECT_GT(r.total, SimTime::zero());
    seen.push_back(cpus);
  };
  const SpeedupCurve curve = sweep_cpus(c, counts, SimConfig{}, opt);
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 4}));
  const SpeedupCurve plain = sweep_cpus(c, counts, SimConfig{});
  for (std::size_t i = 0; i < curve.points().size(); ++i)
    EXPECT_EQ(curve.points()[i].total, plain.points()[i].total);
}

TEST(SweepTest, ParallelSweepStartsItsCostliestPointOnTheCaller) {
  // A parallel sweep claims its points most CPUs first (costliest
  // first where CPUs add scheduling work), and its caller, which claims
  // before any helper slice is posted, starts that point itself.
  const CompiledTrace c = record_compiled([]() {
    workloads::fork_join(4, SimTime::millis(5));
  });
  const int counts[] = {2, 8, 1, 4};
  SweepRunner runner;
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mu;
  std::vector<int> callers_points;
  SweepOptions opt;
  opt.jobs = 4;
  opt.each_point = [&](int cpus, const std::function<void()>& run) {
    if (std::this_thread::get_id() == caller) {
      std::lock_guard<std::mutex> lock(mu);
      callers_points.push_back(cpus);
    }
    run();
  };
  for (int k = 0; k < 5; ++k) {
    callers_points.clear();
    runner.sweep(c, counts, SimConfig{}, opt);
    ASSERT_FALSE(callers_points.empty());
    EXPECT_EQ(callers_points.front(), 8) << "sweep " << k;
    EXPECT_TRUE(std::is_sorted(callers_points.rbegin(), callers_points.rend()))
        << "the caller claims points most CPUs first";
  }
}

TEST(SweepTest, HelpersPersistAcrossSweeps) {
  // A runner starts its workers once: five parallel sweeps simulate
  // their points on the caller and the same workers, never on threads
  // started for one sweep.  Each point holds its thread for 2 ms, so
  // every posted helper slice finds a point left to claim.
  const CompiledTrace c = record_compiled([]() {
    workloads::fork_join(4, SimTime::millis(5));
  });
  // jobs = 4 asks for one worker per point beyond the caller, no more
  // than the hardware threads allow.
  const int in_flight =
      std::min(4, std::max(2, util::ThreadPool::resolve_jobs(0)));
  SweepRunner runner;
  std::mutex mu;
  std::set<pid_t> tids;
  SweepOptions opt;
  opt.jobs = 4;
  opt.each_point = [&](int, const std::function<void()>& run) {
    run();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::lock_guard<std::mutex> lock(mu);
    tids.insert(::gettid());
  };
  for (int k = 0; k < 5; ++k) runner.sweep(c, kCpus, SimConfig{}, opt);
  EXPECT_LE(tids.size(), static_cast<std::size_t>(in_flight));

  // A default sweep runs default_jobs() points at once, half the
  // hardware threads and at least two: the caller claims points too,
  // so it posts one helper slice fewer.
  EXPECT_EQ(SweepRunner::default_jobs(),
            std::max(2, util::ThreadPool::resolve_jobs(0) / 2));
  const obs::Counter& posted =
      obs::Registry::global().counter("vppb_pool_tasks_total", "");
  const std::uint64_t before = posted.value();
  runner.sweep(c, kCpus, SimConfig{});
  EXPECT_EQ(posted.value() - before,
            static_cast<std::uint64_t>(
                std::min(SweepRunner::default_jobs(), 4) - 1));
}

TEST(SweepTest, ARunnerStartsOnlyTheWorkersItsSweepsAskFor) {
  // A default sweep starts default_jobs() - 1 workers; a later sweep
  // that asks for more points at once adds the missing ones.  A loop
  // posts one helper slice per worker it may use, so the posted count
  // reads the pool's size.  Each point holds its thread for 2 ms, so
  // every helper slice finds a point left to claim.
  const CompiledTrace c = record_compiled([]() {
    workloads::fork_join(4, SimTime::millis(5));
  });
  const int counts[] = {1, 2, 3, 4, 5, 6, 7, 8};
  SweepRunner runner;
  std::mutex mu;
  std::set<pid_t> tids;
  SweepOptions opt;
  opt.each_point = [&](int, const std::function<void()>& run) {
    run();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::lock_guard<std::mutex> lock(mu);
    tids.insert(::gettid());
  };
  const obs::Counter& posted =
      obs::Registry::global().counter("vppb_pool_tasks_total", "");
  std::uint64_t before = posted.value();
  for (int k = 0; k < 3; ++k) runner.sweep(c, counts, SimConfig{}, opt);
  EXPECT_EQ(posted.value() - before,
            3u * static_cast<std::uint64_t>(SweepRunner::default_jobs() - 1));
  EXPECT_LE(tids.size(),
            static_cast<std::size_t>(SweepRunner::default_jobs()));

  const int wide = std::min(8, std::max(2, util::ThreadPool::resolve_jobs(0)));
  opt.jobs = wide;
  before = posted.value();
  runner.sweep(c, counts, SimConfig{}, opt);
  EXPECT_EQ(posted.value() - before, static_cast<std::uint64_t>(wide - 1));
  EXPECT_LE(tids.size(), static_cast<std::size_t>(wide));
}

}  // namespace
}  // namespace vppb::core
