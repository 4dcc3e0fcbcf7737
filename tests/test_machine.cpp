// Tests for the reference multiprocessor (src/machine) and the
// validation harness that produces Table 1.
#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.hpp"
#include "machine/machine.hpp"
#include "machine/validate.hpp"
#include "recorder/recorder.hpp"
#include "solaris/program.hpp"
#include "util/error.hpp"
#include "workloads/splash.hpp"
#include "workloads/synthetic.hpp"

namespace vppb::machine {
namespace {

trace::Trace record(const std::function<void()>& fn) {
  sol::Program program;
  return rec::record_program(program, fn);
}

TEST(JitterTest, ZeroStddevIsIdentity) {
  const trace::Trace t = record([]() {
    workloads::fork_join(4, SimTime::millis(10));
  });
  const core::CompiledTrace c = core::compile(t);
  const core::CompiledTrace j = jittered(c, 0.0, 123);
  for (const core::FlatThread& ft : c.flat->threads) {
    EXPECT_EQ(j.thread(ft.tid).total_cpu, ft.total_cpu);
  }
}

TEST(JitterTest, SameSeedSameTrace) {
  const trace::Trace t = record([]() {
    workloads::fork_join(4, SimTime::millis(10));
  });
  const core::CompiledTrace c = core::compile(t);
  const core::CompiledTrace a = jittered(c, 0.02, 7);
  const core::CompiledTrace b = jittered(c, 0.02, 7);
  for (const core::FlatThread& ft : a.flat->threads) {
    EXPECT_EQ(b.thread(ft.tid).total_cpu, ft.total_cpu);
  }
}

TEST(JitterTest, DifferentSeedsDiffer) {
  const trace::Trace t = record([]() {
    workloads::fork_join(4, SimTime::millis(10));
  });
  const core::CompiledTrace c = core::compile(t);
  const core::CompiledTrace a = jittered(c, 0.02, 7);
  const core::CompiledTrace b = jittered(c, 0.02, 8);
  bool any_diff = false;
  for (const core::FlatThread& ft : a.flat->threads) {
    if (b.thread(ft.tid).total_cpu != ft.total_cpu) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(JitterTest, PerturbationIsBounded) {
  const trace::Trace t = record([]() {
    workloads::fork_join(8, SimTime::millis(10));
  });
  const core::CompiledTrace c = core::compile(t);
  const double stddev = 0.02;
  const core::CompiledTrace j = jittered(c, stddev, 99);
  for (const core::FlatThread& ft : c.flat->threads) {
    const double ratio = static_cast<double>(j.thread(ft.tid).total_cpu.ns()) /
                         std::max<double>(1.0, static_cast<double>(ft.total_cpu.ns()));
    if (ft.total_cpu.ns() > 0) {
      EXPECT_GT(ratio, 1.0 - 5 * stddev);
      EXPECT_LT(ratio, 1.0 + 5 * stddev);
    }
  }
}

TEST(JitterTest, EngineReplaysTheJitteredSteps) {
  // CPU demand is conserved at 1 CPU when no kernel cost is added, so
  // the engine's per-thread CPU time must sum to the jittered program's
  // total: the replay reads the jittered steps, not the original ones.
  const trace::Trace t = record([]() {
    workloads::fork_join(4, SimTime::millis(10));
  });
  const core::CompiledTrace c = core::compile(t);
  const core::CompiledTrace j = jittered(c, 0.02, 42);
  core::SimConfig cfg;
  cfg.hw.cpus = 1;
  cfg.hw.migration_penalty = SimTime::zero();
  cfg.hw.memory_contention_alpha = 0.0;
  cfg.cost.context_switch_cost = SimTime::zero();
  const core::SimResult r = core::simulate(j, cfg);
  SimTime replayed, demanded, recorded;
  for (const auto& [tid, st] : r.threads) replayed += st.cpu_time;
  for (const core::FlatThread& ft : j.flat->threads) demanded += ft.total_cpu;
  for (const core::FlatThread& ft : c.flat->threads) recorded += ft.total_cpu;
  EXPECT_EQ(replayed, demanded);
  EXPECT_NE(demanded, recorded) << "the jitter must move the demand";
}

TEST(MachineTest, ReportsRequestedRepetitions) {
  const trace::Trace t = record([]() {
    workloads::fork_join(4, SimTime::millis(5));
  });
  MachineConfig mc;
  mc.cpus = 4;
  mc.repetitions = 7;
  const MachineResult r = execute(t, mc);
  EXPECT_EQ(r.runs.size(), 7u);
  EXPECT_LE(r.speedup_min, r.speedup_mid);
  EXPECT_LE(r.speedup_mid, r.speedup_max);
}

TEST(MachineTest, SpeedupNearIdealForIndependentWork) {
  const trace::Trace t = record([]() {
    workloads::fork_join(4, SimTime::millis(50));
  });
  MachineConfig mc;
  mc.cpus = 4;
  const MachineResult r = execute(t, mc);
  EXPECT_NEAR(r.speedup_mid, 4.0, 0.4);
}

TEST(MachineTest, DeterministicGivenSeed) {
  const trace::Trace t = record([]() {
    workloads::imbalanced(4, SimTime::millis(10), 0.5);
  });
  MachineConfig mc;
  mc.cpus = 4;
  mc.seed = 42;
  const MachineResult a = execute(t, mc);
  const MachineResult b = execute(t, mc);
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_EQ(a.runs[i].total_ncpu, b.runs[i].total_ncpu);
  }
}

TEST(MachineTest, JitterWidensTheRange) {
  const trace::Trace t = record([]() {
    workloads::imbalanced(8, SimTime::millis(10), 0.3);
  });
  MachineConfig calm;
  calm.cpus = 8;
  calm.cpu_jitter = 0.0;
  MachineConfig noisy = calm;
  noisy.cpu_jitter = 0.05;
  const MachineResult rc = execute(t, calm);
  const MachineResult rn = execute(t, noisy);
  EXPECT_NEAR(rc.speedup_max - rc.speedup_min, 0.0, 1e-9);
  EXPECT_GT(rn.speedup_max - rn.speedup_min, 0.0);
}

TEST(MachineTest, OverheadKnobsSlowTheMachine) {
  const trace::Trace t = record([]() {
    workloads::ocean(workloads::SplashParams{4, 0.05});
  });
  MachineConfig cheap;
  cheap.cpus = 4;
  cheap.cpu_jitter = 0.0;
  cheap.context_switch_cost = SimTime::zero();
  cheap.migration_penalty = SimTime::zero();
  MachineConfig costly = cheap;
  costly.context_switch_cost = SimTime::micros(50);
  costly.migration_penalty = SimTime::micros(100);
  EXPECT_LT(execute(t, costly).speedup_mid, execute(t, cheap).speedup_mid);
}

TEST(MachineTest, MemoryContentionReducesSpeedup) {
  const trace::Trace t = record([]() {
    workloads::fork_join(4, SimTime::millis(20));
  });
  MachineConfig base;
  base.cpus = 4;
  base.cpu_jitter = 0.0;
  MachineConfig contended = base;
  contended.memory_contention_alpha = 0.1;
  EXPECT_LT(execute(t, contended).speedup_mid, execute(t, base).speedup_mid);
}

TEST(MachineTest, RejectsBadConfig) {
  const trace::Trace t = record([]() {
    workloads::fork_join(1, SimTime::millis(1));
  });
  MachineConfig mc;
  mc.repetitions = 0;
  EXPECT_THROW(execute(t, mc), Error);
  mc.repetitions = 1;
  mc.cpus = 0;
  EXPECT_THROW(execute(t, mc), Error);
}

TEST(ValidateTest, ProducesOnePointPerCpuCount) {
  const int cpus[] = {2, 4};
  MachineConfig mc;
  mc.repetitions = 3;
  const ValidationReport report = validate_workload(
      "fork_join",
      [](int threads) { workloads::fork_join(threads, SimTime::millis(20)); },
      std::span<const int>(cpus), mc);
  ASSERT_EQ(report.points.size(), 2u);
  EXPECT_EQ(report.points[0].cpus, 2);
  EXPECT_EQ(report.points[1].cpus, 4);
  EXPECT_GT(report.points[0].log_records, 0u);
}

TEST(ValidateTest, IndependentWorkValidatesTightly) {
  const int cpus[] = {2, 4, 8};
  MachineConfig mc;
  const ValidationReport report = validate_workload(
      "fork_join",
      [](int threads) { workloads::fork_join(threads, SimTime::millis(40)); },
      std::span<const int>(cpus), mc);
  EXPECT_LT(report.max_abs_error(), 0.05)
      << "prediction error for trivially parallel work should be tiny";
}

TEST(ValidateTest, SplashSuiteWithinPaperEnvelope) {
  // The headline reproduction: every SPLASH-style app, every processor
  // count, predicted within the paper's 6.2% worst case (we assert a
  // slightly looser 8% to keep the test robust to future retuning).
  const int cpus[] = {2, 4, 8};
  MachineConfig mc;
  for (const auto& app : workloads::splash_suite()) {
    const ValidationReport report = validate_workload(
        app.name,
        [&app](int threads) {
          app.run(workloads::SplashParams{threads, 0.5});
        },
        std::span<const int>(cpus), mc);
    EXPECT_LT(report.max_abs_error(), 0.08) << app.name;
  }
}

TEST(ValidateTest, SpeedupShapesMatchPaper) {
  // The qualitative Table 1 shape: Radix and Water near-linear at 8
  // CPUs, Ocean good, LU moderate, FFT clearly sublinear.
  const int cpus[] = {8};
  MachineConfig mc;
  std::map<std::string, double> pred;
  for (const auto& app : workloads::splash_suite()) {
    const ValidationReport report = validate_workload(
        app.name,
        [&app](int threads) {
          app.run(workloads::SplashParams{threads, 0.5});
        },
        std::span<const int>(cpus), mc);
    pred[app.name] = report.points[0].predicted;
  }
  EXPECT_GT(pred["Radix"], 7.0);
  EXPECT_GT(pred["Water-spatial"], 7.0);
  EXPECT_GT(pred["Ocean"], 5.5);
  EXPECT_LT(pred["Ocean"], pred["Water-spatial"]);
  EXPECT_GT(pred["LU"], 4.0);
  EXPECT_LT(pred["LU"], 6.0);
  EXPECT_GT(pred["FFT"], 2.0);
  EXPECT_LT(pred["FFT"], 3.2);
}

}  // namespace
}  // namespace vppb::machine
