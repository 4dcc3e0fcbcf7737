// Batched-driver parity: a reused SimEngine workspace and the pooled
// SweepRunner must be observationally identical to the one-shot
// simulate() path.  Every pinned golden digest is replayed through the
// batched driver — plain, with an attached (unlimited) guard, and with
// tracing enabled — and a mixed sweep is checked batched-vs-legacy
// result for result.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "core/engine.hpp"
#include "core/guard.hpp"
#include "core/result.hpp"
#include "core/sweep.hpp"
#include "golden_cases.hpp"
#include "obs/span.hpp"
#include "workloads/splash.hpp"
#include "workloads/synthetic.hpp"

namespace vppb::core {
namespace {

TEST(BatchedDriver, OneReusedEngineReproducesEveryGoldenDigest) {
  // The strongest reuse test: a single engine runs every golden case in
  // sequence, so every case inherits the workspace the previous one
  // dirtied.  Any state that a reset fails to clear shows up as a
  // digest mismatch here.
  SimEngine engine;
  for (const GoldenCase& gc : kGoldenCases) {
    const CompiledTrace compiled = record_compiled(gc.workload);
    SimConfig cfg;
    gc.configure(cfg);
    const SimResult r = engine.run(compiled, cfg);
    EXPECT_EQ(digest(r), gc.golden) << gc.name;
  }
}

TEST(BatchedDriver, RepeatRunsOnOneEngineAreBitIdentical) {
  SimEngine engine;
  for (const GoldenCase& gc : kGoldenCases) {
    const CompiledTrace compiled = record_compiled(gc.workload);
    SimConfig cfg;
    gc.configure(cfg);
    const std::uint64_t first = digest(engine.run(compiled, cfg));
    const std::uint64_t second = digest(engine.run(compiled, cfg));
    EXPECT_EQ(first, gc.golden) << gc.name;
    EXPECT_EQ(second, gc.golden) << gc.name;
  }
}

TEST(BatchedDriver, GuardAttachedRunsMatchEveryGoldenDigest) {
  // An attached guard with no budgets must not perturb a batched run,
  // exactly as the guard suite proves for the one-shot path.
  SimEngine engine;
  const RunGuard guard;
  for (const GoldenCase& gc : kGoldenCases) {
    const CompiledTrace compiled = record_compiled(gc.workload);
    SimConfig cfg;
    gc.configure(cfg);
    const SimResult r = engine.run(compiled, cfg, &guard);
    EXPECT_EQ(digest(r), gc.golden) << gc.name;
  }
}

TEST(BatchedDriver, TracingEnabledRunsMatchEveryGoldenDigest) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.enable();
  SimEngine engine;
  for (const GoldenCase& gc : kGoldenCases) {
    const CompiledTrace compiled = record_compiled(gc.workload);
    SimConfig cfg;
    gc.configure(cfg);
    const SimResult r = engine.run(compiled, cfg);
    EXPECT_EQ(digest(r), gc.golden) << gc.name;
  }
  tracer.disable();
  tracer.clear();
}

TEST(BatchedDriver, PooledRunnerMatchesGoldenDigests) {
  SweepRunner runner;
  for (const GoldenCase& gc : kGoldenCases) {
    const CompiledTrace compiled = record_compiled(gc.workload);
    SimConfig cfg;
    gc.configure(cfg);
    EXPECT_EQ(digest(runner.run(compiled, cfg)), gc.golden) << gc.name;
  }
}

TEST(BatchedDriver, MixedSweepMatchesLegacyPointByPoint) {
  // A 1..8 CPU sweep through the batched SweepRunner against the same
  // sweep executed as independent one-shot simulate() calls: every
  // per-point result must digest equally, not just the speed-up curve.
  const CompiledTrace compiled = record_compiled(
      [] { workloads::fft(workloads::SplashParams{16, 0.2}); });
  SimConfig base;
  base.sched.lwps = 6;  // exercise the two-level path, not 1:1 binding

  std::vector<int> counts(8);
  std::iota(counts.begin(), counts.end(), 1);

  std::vector<SimResult> batched_results;
  SweepOptions opt;
  opt.results = &batched_results;
  SweepRunner runner;
  const SpeedupCurve batched = runner.sweep(compiled, counts, base, opt);

  ASSERT_EQ(batched_results.size(), counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    SimConfig cfg = base;
    cfg.hw.cpus = counts[i];
    cfg.build_timeline = false;
    const SimResult legacy = simulate(compiled, cfg);
    EXPECT_EQ(digest(batched_results[i]), digest(legacy))
        << "cpus=" << counts[i];
    EXPECT_DOUBLE_EQ(batched.points()[i].speedup, legacy.speedup);
  }
}

TEST(BatchedDriver, ParallelSweepMatchesSerialSweep) {
  const CompiledTrace compiled = record_compiled(
      [] { workloads::radix(workloads::SplashParams{8, 0.15}); });
  SimConfig base;
  std::vector<int> counts(8);
  std::iota(counts.begin(), counts.end(), 1);

  std::vector<SimResult> serial_results, parallel_results;
  SweepOptions serial_opt;
  serial_opt.jobs = 1;
  serial_opt.results = &serial_results;
  SweepOptions parallel_opt;
  parallel_opt.jobs = 4;
  parallel_opt.results = &parallel_results;

  SweepRunner runner;
  (void)runner.sweep(compiled, counts, base, serial_opt);
  (void)runner.sweep(compiled, counts, base, parallel_opt);

  ASSERT_EQ(serial_results.size(), parallel_results.size());
  EXPECT_EQ(digest(serial_results), digest(parallel_results));
}

}  // namespace
}  // namespace vppb::core
