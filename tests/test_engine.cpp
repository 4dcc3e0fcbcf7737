// Tests for the VPPB Simulator: speed-up predictions on programs with
// known parallel structure, scheduling-policy knobs, replay rules, and
// timeline invariants.
#include <gtest/gtest.h>

#include <functional>

#include "core/engine.hpp"
#include "recorder/recorder.hpp"
#include "solaris/program.hpp"
#include "solaris/solaris.hpp"
#include "trace/io.hpp"
#include "util/error.hpp"
#include "workloads/prodcons.hpp"

namespace vppb::core {
namespace {

trace::Trace record(const std::function<void()>& fn) {
  sol::Program program;
  return rec::record_program(program, fn);
}

/// N workers, each computing `work` with no shared state.
std::function<void()> parallel_workload(int n, SimTime work) {
  return [n, work]() {
    for (int i = 0; i < n; ++i) {
      sol::thr_create_fn(
          [work]() -> void* {
            sol::compute(work);
            return nullptr;
          },
          0, nullptr);
    }
    sol::join_all();
  };
}

/// N workers whose whole compute sits inside one shared mutex.
std::function<void()> serialized_workload(int n, SimTime work) {
  return [n, work]() {
    auto m = std::make_shared<sol::Mutex>();
    for (int i = 0; i < n; ++i) {
      sol::thr_create_fn(
          [m, work]() -> void* {
            sol::ScopedLock lock(*m);
            sol::compute(work);
            return nullptr;
          },
          0, nullptr);
    }
    sol::join_all();
  };
}

TEST(EngineTest, OneCpuReplayMatchesRecording) {
  const trace::Trace t = record(parallel_workload(3, SimTime::millis(10)));
  SimConfig cfg;
  cfg.hw.cpus = 1;
  const SimResult r = simulate(t, cfg);
  EXPECT_EQ(r.total, t.duration())
      << "one-CPU virtual replay must reproduce the recording exactly";
  EXPECT_DOUBLE_EQ(r.speedup, 1.0);
  r.validate();
}

TEST(EngineTest, PerfectlyParallelScalesLinearly) {
  const trace::Trace t = record(parallel_workload(4, SimTime::millis(50)));
  for (int cpus : {2, 4}) {
    const double s = predict_speedup(t, cpus);
    EXPECT_NEAR(s, cpus, 0.05 * cpus)
        << "independent threads should scale to " << cpus << " CPUs";
  }
  // More CPUs than threads: capped at the thread count.
  EXPECT_NEAR(predict_speedup(t, 8), 4.0, 0.3);
}

TEST(EngineTest, FullySerializedDoesNotScale) {
  const trace::Trace t = record(serialized_workload(6, SimTime::millis(20)));
  const double s = predict_speedup(t, 8);
  EXPECT_LT(s, 1.1) << "one hot mutex must serialize the program";
  EXPECT_GE(s, 0.95);
}

TEST(EngineTest, LwpCountLimitsParallelism) {
  const trace::Trace t = record(parallel_workload(4, SimTime::millis(40)));
  SimConfig cfg;
  cfg.hw.cpus = 4;
  cfg.sched.lwps = 2;  // paper §3.2: the LWP knob
  const SimResult r = simulate(t, cfg);
  EXPECT_NEAR(r.speedup, 2.0, 0.2)
      << "4 CPUs but 2 LWPs should cap the speed-up near 2";
  r.validate();
}

TEST(EngineTest, ThreadsBoundToOneCpuSerialize) {
  const trace::Trace t = record(parallel_workload(2, SimTime::millis(30)));
  SimConfig cfg;
  cfg.hw.cpus = 2;
  for (ThreadId tid : {4, 5}) {
    ThreadPolicy pol;
    pol.override_binding = true;
    pol.binding = Binding::kBoundCpu;
    pol.cpu = 0;
    cfg.sched.thread_policy[tid] = pol;
  }
  const SimResult r = simulate(t, cfg);
  EXPECT_LT(r.speedup, 1.3) << "both workers pinned to CPU 0 cannot overlap";
}

TEST(EngineTest, BoundThreadCreationCosts67x) {
  // Hand-written trace: create costs 1ms in the log.
  const char* tmpl =
      "thread 1 main main 0 0\n"
      "thread 4 w w %d 0\n"
      "rec 0 1 C start_collect none 0 0 0 0\n"
      "rec 0 1 C thr_create thread 0 0 0 0\n"
      "rec 1000000 1 R thr_create thread 0 4 0 0\n"
      "rec 1000000 4 C thr_exit thread 4 0 0 0\n"
      "rec 1000000 1 C thr_join thread 4 0 0 0\n"
      "rec 1000000 1 R thr_join thread 4 4 0 0\n"
      "rec 1000000 1 C thr_exit thread 1 0 0 0\n";
  char unbound_txt[1024], bound_txt[1024];
  std::snprintf(unbound_txt, sizeof unbound_txt, tmpl, 0);
  std::snprintf(bound_txt, sizeof bound_txt, tmpl, 1);
  SimConfig cfg;
  cfg.hw.cpus = 1;
  const SimResult unbound = simulate(trace::from_text(unbound_txt), cfg);
  const SimResult bound = simulate(trace::from_text(bound_txt), cfg);
  EXPECT_EQ(unbound.total, SimTime::millis(1));
  EXPECT_EQ(bound.total, SimTime::millis(1).scaled(6.7))
      << "bound thread creation must cost 6.7x (paper §3.2)";
}

TEST(EngineTest, BoundThreadSyncCosts59x) {
  const char* tmpl =
      "thread 1 main main %d 0\n"
      "rec 0 1 C start_collect none 0 0 0 0\n"
      "rec 0 1 C mtx_lock mutex 1 0 0 0\n"
      "rec 100000 1 R mtx_lock mutex 1 0 0 0\n"
      "rec 100000 1 C mtx_unlock mutex 1 0 0 0\n"
      "rec 200000 1 R mtx_unlock mutex 1 0 0 0\n"
      "rec 200000 1 C thr_exit thread 1 0 0 0\n";
  char unbound_txt[1024], bound_txt[1024];
  std::snprintf(unbound_txt, sizeof unbound_txt, tmpl, 0);
  std::snprintf(bound_txt, sizeof bound_txt, tmpl, 1);
  SimConfig cfg;
  cfg.hw.cpus = 1;
  const SimResult unbound = simulate(trace::from_text(unbound_txt), cfg);
  const SimResult bound = simulate(trace::from_text(bound_txt), cfg);
  EXPECT_EQ(unbound.total, SimTime::micros(200));
  EXPECT_EQ(bound.total, SimTime::micros(200).scaled(5.9));
}

TEST(EngineTest, CommDelaySlowsCrossCpuWakeups) {
  const trace::Trace t = record(parallel_workload(4, SimTime::millis(10)));
  SimConfig fast, slow;
  fast.hw.cpus = slow.hw.cpus = 4;
  slow.hw.comm_delay = SimTime::micros(500);
  const SimResult rf = simulate(t, fast);
  const SimResult rs = simulate(t, slow);
  EXPECT_GT(rs.total, rf.total);
}

TEST(EngineTest, MigrationPenaltyIncreasesTotal) {
  const trace::Trace t = record(serialized_workload(4, SimTime::millis(5)));
  SimConfig base, pen;
  base.hw.cpus = pen.hw.cpus = 4;
  pen.hw.migration_penalty = SimTime::micros(200);
  EXPECT_GE(simulate(t, pen).total, simulate(t, base).total);
}

TEST(EngineTest, MemoryContentionSlowsParallelRuns) {
  const trace::Trace t = record(parallel_workload(4, SimTime::millis(20)));
  SimConfig base, cont;
  base.hw.cpus = cont.hw.cpus = 4;
  cont.hw.memory_contention_alpha = 0.10;
  const SimResult rb = simulate(t, base);
  const SimResult rc = simulate(t, cont);
  EXPECT_GT(rc.total, rb.total);
  // alpha = 0.1 with 4 running -> rate 1.3; parallel phase ~30% slower.
  EXPECT_LT(rc.total, rb.total.scaled(1.4));
}

TEST(EngineTest, PriorityOverrideReordersDispatch) {
  const trace::Trace t = record(parallel_workload(2, SimTime::millis(10)));
  SimConfig cfg;
  cfg.hw.cpus = 1;
  ThreadPolicy pol;
  pol.override_priority = true;
  pol.priority = 9;
  cfg.sched.thread_policy[5] = pol;  // boost the second worker
  const SimResult r = simulate(t, cfg);
  const auto segs4 = r.thread_segments(4);
  const auto segs5 = r.thread_segments(5);
  auto first_running = [](const std::vector<Segment>& segs) {
    for (const auto& s : segs) {
      if (s.state == SegState::kRunning) return s.start;
    }
    return SimTime::max();
  };
  EXPECT_LT(first_running(segs5), first_running(segs4))
      << "the boosted thread must be dispatched first";
}

TEST(EngineTest, SetPrioEventIgnoredWhenOverridden) {
  // main boosts T4 via thr_setprio; with an override for T4 the event
  // must be ignored (paper §3.2).
  auto workload = []() {
    sol::thread_t a = 0, b = 0;
    auto worker = []() -> void* {
      sol::compute(SimTime::millis(10));
      return nullptr;
    };
    sol::thr_create_fn(worker, 0, &a, "wa");
    sol::thr_create_fn(worker, 0, &b, "wb");
    sol::thr_setprio(a, 20);
    sol::join_all();
  };
  const trace::Trace t = record(workload);
  SimConfig cfg;
  cfg.hw.cpus = 1;
  const SimResult boosted = simulate(t, cfg);
  ThreadPolicy pol;
  pol.override_priority = true;
  pol.priority = 0;
  cfg.sched.thread_policy[4] = pol;
  const SimResult overridden = simulate(t, cfg);
  auto first_running = [](const SimResult& r, ThreadId tid) {
    for (const auto& s : r.thread_segments(tid)) {
      if (s.state == SegState::kRunning) return s.start;
    }
    return SimTime::max();
  };
  // With the recorded setprio, T4 preempts; with the override, FIFO wins.
  EXPECT_LT(first_running(boosted, 4), first_running(boosted, 5));
  EXPECT_LE(first_running(overridden, 4), first_running(overridden, 5));
}

TEST(EngineTest, BarrierProgramPredictsParallelPhases) {
  const int n = 4;
  auto workload = [n]() {
    auto barrier = std::make_shared<sol::Barrier>(n + 1);
    for (int i = 0; i < n; ++i) {
      sol::thr_create_fn(
          [barrier]() -> void* {
            for (int phase = 0; phase < 3; ++phase) {
              sol::compute(SimTime::millis(10));
              barrier->arrive();
            }
            return nullptr;
          },
          0, nullptr);
    }
    for (int phase = 0; phase < 3; ++phase) barrier->arrive();
    sol::join_all();
  };
  const trace::Trace t = record(workload);
  const double s = predict_speedup(t, n);
  EXPECT_NEAR(s, n, 0.15 * n)
      << "barrier phases of equal work should still scale";
  // The replay must not deadlock on any CPU count.
  for (int cpus : {1, 2, 3, 8}) {
    EXPECT_GT(predict_speedup(t, cpus), 0.5) << cpus;
  }
}

TEST(EngineTest, TimedWaitTimeoutReplaysAsDelay) {
  auto workload = []() {
    sol::Mutex m;
    sol::CondVar c;
    m.lock();
    c.timed_wait(m, SimTime::millis(5));
    m.unlock();
    sol::compute(SimTime::millis(1));
  };
  const trace::Trace t = record(workload);
  SimConfig cfg;
  cfg.hw.cpus = 4;
  const SimResult r = simulate(t, cfg);
  EXPECT_EQ(r.total, SimTime::millis(6))
      << "the recorded 5ms timeout must replay as a 5ms delay";
  const auto& stats = r.threads.at(1);
  EXPECT_EQ(stats.sleeping_time, SimTime::millis(5));
}

TEST(EngineTest, ProducerConsumerReplaysWithoutDeadlock) {
  auto workload = []() {
    auto items = std::make_shared<sol::Semaphore>(0u);
    auto m = std::make_shared<sol::Mutex>();
    for (int i = 0; i < 3; ++i) {
      sol::thr_create_fn(
          [items, m]() -> void* {
            for (int k = 0; k < 5; ++k) {
              sol::compute(SimTime::micros(100));
              sol::ScopedLock lock(*m);
              items->post();
            }
            return nullptr;
          },
          0, nullptr);
    }
    for (int k = 0; k < 15; ++k) {
      items->wait();
      sol::compute(SimTime::micros(50));
    }
    sol::join_all();
  };
  const trace::Trace t = record(workload);
  for (int cpus : {1, 2, 4, 8}) {
    SimConfig cfg;
    cfg.hw.cpus = cpus;
    const SimResult r = simulate(t, cfg);
    r.validate();
    EXPECT_GT(r.speedup, 0.9) << cpus;
  }
}

TEST(EngineTest, ReplayDeadlockDetected) {
  // sema_wait recorded as successful, but no post exists in the log:
  // an unreplayable trace must be reported, not hang.
  const trace::Trace t = trace::from_text(
      "thread 1 main main 0 0\n"
      "rec 0 1 C start_collect none 0 0 0 0\n"
      "rec 1000 1 C sema_wait sema 1 0 0 0\n"
      "rec 2000 1 R sema_wait sema 1 0 0 0\n"
      "rec 3000 1 C thr_exit thread 1 0 0 0\n");
  SimConfig cfg;
  EXPECT_THROW(simulate(t, cfg), Error);
}

TEST(EngineTest, TimeSlicingInterleavesCpuHogs) {
  // Two 600ms hogs on one CPU: TS quantum expiry must interleave them.
  const trace::Trace t = record(parallel_workload(2, SimTime::millis(600)));
  SimConfig cfg;
  cfg.hw.cpus = 1;
  const SimResult r = simulate(t, cfg);
  const auto segs4 = r.thread_segments(4);
  int running_segments = 0;
  for (const auto& s : segs4) {
    if (s.state == SegState::kRunning) ++running_segments;
  }
  EXPECT_GE(running_segments, 3)
      << "quantum expiry should preempt a CPU hog several times";
  r.validate();
}

TEST(EngineTest, TsDynamicsOffMeansPureFifo) {
  const trace::Trace t = record(parallel_workload(2, SimTime::millis(600)));
  SimConfig cfg;
  cfg.hw.cpus = 1;
  cfg.sched.ts_dynamics = false;
  cfg.sched.ts_table = TsTable::flat(SimTime::seconds(10.0));
  const SimResult r = simulate(t, cfg);
  const auto segs4 = r.thread_segments(4);
  int running_segments = 0;
  for (const auto& s : segs4) {
    if (s.state == SegState::kRunning) ++running_segments;
  }
  EXPECT_EQ(running_segments, 1)
      << "without TS dynamics and with a huge quantum, no preemption";
}

TEST(EngineTest, CpuStatsAccountBusyTime) {
  const trace::Trace t = record(parallel_workload(2, SimTime::millis(10)));
  SimConfig cfg;
  cfg.hw.cpus = 2;
  const SimResult r = simulate(t, cfg);
  SimTime busy_total;
  for (const auto& c : r.cpu_stats) busy_total += c.busy;
  SimTime cpu_total;
  for (const auto& [tid, st] : r.threads) cpu_total += st.cpu_time;
  EXPECT_EQ(busy_total, cpu_total);
}

TEST(EngineTest, EventsCarrySourceLocations) {
  const trace::Trace t = record(parallel_workload(1, SimTime::millis(1)));
  SimConfig cfg;
  const SimResult r = simulate(t, cfg);
  bool found = false;
  for (const auto& e : r.events) {
    if (e.op == trace::Op::kThrCreate) {
      EXPECT_NE(t.location_string(t.records.front()), "placeholder");
      const std::string loc =
          t.strings.get(t.locations.at(e.loc).file);
      EXPECT_NE(loc.find("test_engine.cpp"), std::string::npos);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(EngineTest, SpeedupMonotonicInCpus) {
  const trace::Trace t = record(parallel_workload(6, SimTime::millis(15)));
  double prev = 0.0;
  for (int cpus = 1; cpus <= 8; ++cpus) {
    const double s = predict_speedup(t, cpus);
    EXPECT_GE(s, prev - 0.05) << "speed-up should not regress at " << cpus;
    prev = s;
  }
}

TEST(EngineTest, RememberedSignalSurvivesScheduleRace) {
  // The §6 condition-variable hazard: in the recording the waiter is
  // asleep before the signal; on many CPUs the signaller can get there
  // first.  The remembered-signal rule must keep the replay live.
  auto workload = []() {
    sol::Mutex m;
    sol::CondVar c;
    bool ready = false;
    sol::thr_create_fn(
        [&]() -> void* {
          // Signaller: a bit of work, then signal under the mutex.
          sol::compute(SimTime::millis(2));
          sol::ScopedLock lock(m);
          ready = true;
          c.signal();
          return nullptr;
        },
        0, nullptr, "signaller");
    sol::thr_create_fn(
        [&]() -> void* {
          // Waiter: LOTS of work first, so on >1 CPU the signal fires
          // long before the waiter reaches cond_wait.
          sol::compute(SimTime::millis(10));
          sol::ScopedLock lock(m);
          while (!ready) c.wait(m);
          return nullptr;
        },
        0, nullptr, "waiter");
    sol::join_all();
  };
  sol::Program program;
  const trace::Trace t = rec::record_program(program, workload);
  for (int cpus : {1, 2, 4}) {
    SimConfig cfg;
    cfg.hw.cpus = cpus;
    const SimResult r = simulate(t, cfg);  // must not deadlock
    r.validate();
    EXPECT_GE(r.speedup, 0.9) << cpus;
  }
}

TEST(EngineTest, BoundThreadsGetDedicatedLwps) {
  // 4 bound threads with an LWP pool of 1: bound threads own their LWPs
  // beyond the pool, so they still run in parallel.
  sol::Program program;
  const trace::Trace t = rec::record_program(program, []() {
    for (int i = 0; i < 4; ++i) {
      sol::thr_create_fn(
          []() -> void* {
            sol::compute(SimTime::millis(10));
            return nullptr;
          },
          sol::THR_BOUND, nullptr, "bound");
    }
    sol::join_all();
  });
  SimConfig cfg;
  cfg.hw.cpus = 4;
  cfg.sched.lwps = 1;  // the unbound pool; bound threads bypass it
  const SimResult r = simulate(t, cfg);
  EXPECT_NEAR(r.speedup, 4.0, 0.2);
  EXPECT_GE(r.lwp_stats.size(), 4u);
  int dedicated = 0;
  for (const auto& ls : r.lwp_stats) {
    if (ls.dedicated) ++dedicated;
  }
  EXPECT_EQ(dedicated, 4);
}

TEST(EngineTest, SignalWithNoLoggedWakeIsNotRemembered) {
  // A cond_signal that woke nobody in the log (outcome 0) must NOT be
  // saved for later: a subsequently-arriving waiter that the log shows
  // woken by a LATER signal should wait for that one.
  const trace::Trace t = trace::from_text(
      "thread 1 main main 0 0\n"
      "thread 4 w w 0 0\n"
      "rec 0 1 C start_collect none 0 0 0 0\n"
      "rec 1000 1 C mtx_lock mutex 1 0 0 0\n"
      "rec 1000 1 R mtx_lock mutex 1 0 0 0\n"
      "rec 2000 1 C cond_signal cond 1 0 0 0\n"
      "rec 2000 1 R cond_signal cond 1 0 0 0\n"
      "rec 3000 1 C mtx_unlock mutex 1 0 0 0\n"
      "rec 3000 1 R mtx_unlock mutex 1 0 0 0\n"
      "rec 4000 4 C mtx_lock mutex 1 0 0 0\n"
      "rec 4000 4 R mtx_lock mutex 1 0 0 0\n"
      "rec 5000 4 C cond_wait cond 1 1 0 0\n"
      "rec 6000 1 C mtx_lock mutex 1 0 0 0\n"
      "rec 6000 1 R mtx_lock mutex 1 0 0 0\n"
      "rec 7000 1 C cond_signal cond 1 0 0 0\n"
      "rec 7000 1 R cond_signal cond 1 1 0 0\n"
      "rec 8000 1 C mtx_unlock mutex 1 0 0 0\n"
      "rec 8000 1 R mtx_unlock mutex 1 0 0 0\n"
      "rec 9000 4 R cond_wait cond 1 0 0 0\n"
      "rec 9000 4 C mtx_unlock mutex 1 0 0 0\n"
      "rec 9000 4 R mtx_unlock mutex 1 0 0 0\n"
      "rec 9500 4 C thr_exit thread 4 0 0 0\n"
      "rec 9600 1 C thr_join thread 4 0 0 0\n"
      "rec 9600 1 R thr_join thread 4 4 0 0\n"
      "rec 9700 1 C thr_exit thread 1 0 0 0\n");
  SimConfig cfg;
  cfg.hw.cpus = 2;
  const SimResult r = simulate(t, cfg);  // must complete without deadlock
  r.validate();
}

TEST(EngineTest, ParallelismProfileMatchesStructure) {
  const trace::Trace t = record(parallel_workload(4, SimTime::millis(20)));
  SimConfig cfg;
  cfg.hw.cpus = 2;
  const SimResult r = simulate(t, cfg);
  int max_running = 0, max_runnable = 0;
  for (const auto& p : r.parallelism_profile(200)) {
    max_running = std::max(max_running, p.running);
    max_runnable = std::max(max_runnable, p.runnable);
  }
  EXPECT_EQ(max_running, 2) << "never more running threads than CPUs";
  EXPECT_GE(max_runnable, 2) << "the surplus threads must show as runnable";
}

TEST(EngineTest, DispatchPassCostIsFlatInTheNumberOfWaiters) {
  // The engine's cost-slope gate as an exact count, free of host noise:
  // on the §5 producer-consumer program at 1 CPU, the kernel-queue
  // entries a dispatch pass reads must not grow with the number of
  // waiting LWPs.  736 threads keep up to 735 LWPs waiting, 61 threads
  // up to 60; the per-pass figure may at most double.
  auto scanned_per_pass = [](int producers) {
    workloads::ProdConsParams p;
    p.producers = producers;
    p.consumers = producers / 2;
    const CompiledTrace compiled =
        compile(record([p] { workloads::prodcons_tuned(p); }));
    SimConfig cfg;
    cfg.hw.cpus = 1;
    cfg.build_timeline = false;
    const EngineCounters e = simulate(compiled, cfg).engine;
    EXPECT_GT(e.sched_passes, 0u);
    return static_cast<double>(e.waiters_scanned) /
           static_cast<double>(e.sched_passes);
  };
  const double small = scanned_per_pass(40);   // 61 threads
  const double large = scanned_per_pass(490);  // 736 threads
  EXPECT_LE(large, 2.0 * small) << "61 threads: " << small
                                << " entries per pass, 736 threads: " << large;
}

}  // namespace
}  // namespace vppb::core
