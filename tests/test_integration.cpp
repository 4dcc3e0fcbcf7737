// End-to-end integration tests: the complete fig. 1 workflow (program →
// Recorder → log file → Simulator → Visualizer), the §5 case study, and
// failure injection on every stage boundary.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/engine.hpp"
#include "machine/machine.hpp"
#include "recorder/recorder.hpp"
#include "solaris/program.hpp"
#include "solaris/solaris.hpp"
#include "trace/binary.hpp"
#include "trace/io.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "viz/visualizer.hpp"
#include "workloads/prodcons.hpp"
#include "workloads/splash.hpp"
#include "workloads/synthetic.hpp"

namespace vppb {
namespace {

TEST(Workflow, Fig1EndToEndThroughLogFile) {
  // (a)-(d): write, execute monitored, store the recorded information.
  sol::Program program;
  const trace::Trace recorded = rec::record_program(program, []() {
    workloads::ocean(workloads::SplashParams{4, 0.02});
  });
  const std::string path = testing::TempDir() + "/fig1_workflow.trace";
  trace::save_file(recorded, path);

  // (e)-(g): load the log, configure hardware + scheduling, simulate.
  const trace::Trace loaded = trace::load_any_file(path);
  core::SimConfig cfg;
  cfg.hw.cpus = 4;
  cfg.hw.comm_delay = SimTime::micros(10);
  const core::SimResult predicted = core::simulate(loaded, cfg);
  EXPECT_GT(predicted.speedup, 2.5);

  // (h): inspect the predicted execution.
  viz::Visualizer viz(predicted, loaded);
  EXPECT_GT(viz.event_count(), 0u);
  const std::string svg = viz::render_svg(viz, viz::RenderOptions{});
  EXPECT_GT(svg.size(), 1000u);

  // The developer clicks an event and lands on a source line in the
  // workload implementation.
  bool found_source = false;
  for (std::size_t i = 0; i < viz.event_count(); ++i) {
    if (!viz.source_location(i).empty()) {
      EXPECT_NE(viz.source_location(i).find(":"), std::string::npos);
      found_source = true;
      break;
    }
  }
  EXPECT_TRUE(found_source);
  std::remove(path.c_str());
}

TEST(Workflow, Section5CaseStudyNumbers) {
  workloads::ProdConsParams params;
  params.producers = 50;
  params.consumers = 25;

  sol::Program p1;
  const trace::Trace naive = rec::record_program(
      p1, [&params]() { workloads::prodcons_naive(params); });
  const double naive_speedup = core::predict_speedup(naive, 8);
  EXPECT_LT(naive_speedup, 1.15)
      << "paper: the naive program ran only 2.2% faster on 8 CPUs";

  sol::Program p2;
  const trace::Trace tuned = rec::record_program(
      p2, [&params]() { workloads::prodcons_tuned(params); });
  const double tuned_speedup = core::predict_speedup(tuned, 8);
  EXPECT_GT(tuned_speedup, 6.5) << "paper: 7.75x after the fix";

  machine::MachineConfig mc;
  mc.cpus = 8;
  mc.repetitions = 3;
  const machine::MachineResult real = machine::execute(tuned, mc);
  const double error =
      std::abs(prediction_error(real.speedup_mid, tuned_speedup));
  EXPECT_LT(error, 0.06) << "paper: 1.9% error on the tuned program";
}

TEST(Workflow, SameLogManyConfigurations) {
  // The tool's selling point: one monitored execution, any number of
  // what-if questions.
  sol::Program program;
  const trace::Trace log = rec::record_program(program, []() {
    workloads::lu(workloads::SplashParams{8, 0.1});
  });
  double prev = 0.0;
  for (int cpus = 1; cpus <= 16; cpus *= 2) {
    const double s = core::predict_speedup(log, cpus);
    EXPECT_GE(s, prev - 1e-9) << cpus;
    prev = s;
  }
  // And scheduling what-ifs on the same log:
  core::SimConfig two_lwps;
  two_lwps.hw.cpus = 8;
  two_lwps.sched.lwps = 2;
  EXPECT_LE(core::simulate(log, two_lwps).speedup, 2.01);
}

TEST(Workflow, RecordingDoesNotPerturbVirtualPrograms) {
  // Intrusion check, virtual mode: identical duration with and without
  // the recorder attached (the real-mode overhead is bench_overhead's
  // business).
  auto body = []() { workloads::radix(workloads::SplashParams{4, 0.05}); };
  sol::Program bare;
  bare.run(body);
  sol::Program monitored;
  const trace::Trace t = rec::record_program(monitored, body);
  EXPECT_EQ(bare.last_duration(), monitored.last_duration());
  EXPECT_EQ(t.duration(), bare.last_duration());
}

TEST(FailureInjection, CorruptLogLinesRejected) {
  sol::Program program;
  const trace::Trace t = rec::record_program(program, []() {
    workloads::fork_join(2, SimTime::millis(1));
  });
  std::string text = trace::to_text(t);
  // Truncate mid-line: the reader must fail loudly, not misparse.
  EXPECT_THROW(trace::from_text(text.substr(0, text.size() / 2)), Error);
  // Inject an impossible timestamp ordering.
  std::string reversed = text;
  const auto pos = reversed.rfind("\nrec ");
  reversed.insert(pos + 1, "rec 1 1 C thr_yield none 0 0 0 0\n");
  EXPECT_THROW(trace::from_text(reversed), Error);
}

TEST(FailureInjection, ReplayMismatchesAreDiagnosed) {
  // A log claiming a successful join on a thread that blocks forever
  // (its recorded sema_wait succeeded, but no post exists to replay).
  EXPECT_THROW(
      core::simulate(trace::from_text(
                         "thread 1 main main 0 0\n"
                         "thread 4 w w 0 0\n"
                         "rec 0 1 C start_collect none 0 0 0 0\n"
                         "rec 500 4 C sema_wait sema 1 0 0 0\n"
                         "rec 900 4 R sema_wait sema 1 0 0 0\n"
                         "rec 950 4 C thr_exit thread 4 0 0 0\n"
                         "rec 1000 1 C thr_join thread 4 0 0 0\n"
                         "rec 2000 1 R thr_join thread 4 4 0 0\n"
                         "rec 3000 1 C thr_exit thread 1 0 0 0\n"),
                     core::SimConfig{}),
      Error);
  // An unlock of a mutex the thread never locked.
  EXPECT_THROW(
      core::simulate(trace::from_text(
                         "thread 1 main main 0 0\n"
                         "rec 0 1 C start_collect none 0 0 0 0\n"
                         "rec 1000 1 C mtx_unlock mutex 1 0 0 0\n"
                         "rec 2000 1 R mtx_unlock mutex 1 0 0 0\n"
                         "rec 3000 1 C thr_exit thread 1 0 0 0\n"),
                     core::SimConfig{}),
      Error);
}

TEST(FailureInjection, SpinningProgramDetectedNotHung) {
  // Paper §6: Barnes/Radiosity/... spin on a variable and cannot be
  // recorded on one LWP; the runtime reports the livelock.
  sol::Program::Options opts;
  opts.livelock_horizon = SimTime::seconds(2.0);
  sol::Program program(opts);
  EXPECT_THROW(
      program.run([]() {
        bool flag = false;
        sol::thr_create_fn(
            [&flag]() -> void* {
              flag = true;
              return nullptr;
            },
            0, nullptr, "setter");
        // Spin without ever calling the thread library: the setter never
        // runs on the single LWP.
        while (!flag) sol::compute(SimTime::millis(10));
        sol::join_all();
      }),
      Error);
}

TEST(FailureInjection, DeadlockedProgramDetectedNotHung) {
  sol::Program program;
  EXPECT_THROW(program.run([]() {
                 sol::Semaphore never(0u);
                 never.wait();  // nobody will post
               }),
               Error);
}

TEST(FailureInjection, LockOrderInversionDeadlockDetected) {
  sol::Program program;
  EXPECT_THROW(program.run([]() {
                 sol::Mutex a, b;
                 a.lock();
                 sol::thr_create_fn(
                     [&]() -> void* {
                       b.lock();
                       sol::thr_yield();
                       a.lock();  // held by main
                       a.unlock();
                       b.unlock();
                       return nullptr;
                     },
                     0, nullptr, "other");
                 sol::thr_yield();
                 b.lock();  // held by the worker -> cycle
                 b.unlock();
                 a.unlock();
                 sol::join_all();
               }),
               Error);
}

TEST(Workflow, WildcardJoinMismatchTolerated) {
  // Paper §6: a wildcard join may reap a different thread than in the
  // recorded execution; the replay must still complete.
  sol::Program program;
  const trace::Trace t = rec::record_program(program, []() {
    auto slow = []() -> void* {
      sol::compute(SimTime::millis(20));
      return nullptr;
    };
    auto fast = []() -> void* {
      sol::compute(SimTime::millis(1));
      return nullptr;
    };
    sol::thr_create_fn(slow, 0, nullptr, "slow");
    sol::thr_create_fn(fast, 0, nullptr, "fast");
    // On one LWP the creation-order thread finishes first; on many CPUs
    // the fast one exits first, so the wildcard join order flips.
    sol::thr_join(0, nullptr, nullptr);
    sol::thr_join(0, nullptr, nullptr);
  });
  for (int cpus : {1, 2, 4}) {
    core::SimConfig cfg;
    cfg.hw.cpus = cpus;
    const core::SimResult r = core::simulate(t, cfg);
    r.validate();
  }
}

TEST(Workflow, BoundThreadsEndToEnd) {
  sol::Program program;
  const trace::Trace t = rec::record_program(program, []() {
    for (int i = 0; i < 3; ++i) {
      sol::thr_create_fn(
          []() -> void* {
            sol::compute(SimTime::millis(5));
            return nullptr;
          },
          sol::THR_BOUND, nullptr, "bound_worker");
    }
    sol::join_all();
  });
  // Bound flags survive the log and reach the simulator's policy layer.
  const core::CompiledTrace c = core::compile(t);
  int bound = 0;
  for (const core::FlatThread& ft : c.flat->threads) {
    if (ft.bound) ++bound;
  }
  EXPECT_EQ(bound, 3);
  core::SimConfig cfg;
  cfg.hw.cpus = 3;
  const core::SimResult r = core::simulate(t, cfg);
  EXPECT_NEAR(r.speedup, 3.0, 0.2);
}

}  // namespace
}  // namespace vppb
