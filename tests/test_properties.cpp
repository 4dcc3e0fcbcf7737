// Property-based tests: invariants that must hold across parameter
// sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P) and under randomized
// operation sequences checked against simple reference models, and the
// SimResult batch queries against their one-at-a-time references.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <string>
#include <tuple>

#include "core/engine.hpp"
#include "golden_cases.hpp"
#include "recorder/recorder.hpp"
#include "solaris/program.hpp"
#include "trace/io.hpp"
#include "ult/wait_queue.hpp"
#include "util/rng.hpp"
#include "workloads/prodcons.hpp"
#include "workloads/splash.hpp"
#include "workloads/synthetic.hpp"

namespace vppb {
namespace {

// ---------------------------------------------------------------------------
// WaitQueue vs a straightforward reference model, under random ops.

class WaitQueueModelTest : public testing::TestWithParam<std::uint64_t> {};

TEST_P(WaitQueueModelTest, MatchesReferenceModel) {
  Rng rng(GetParam());
  ult::WaitQueue queue;
  // Reference: vector of (tid, prio, seq); pop = max prio, min seq.
  struct Entry {
    ult::ThreadId tid;
    int prio;
    std::uint64_t seq;
  };
  std::vector<Entry> model;
  std::uint64_t seq = 0;
  ult::ThreadId next_tid = 1;

  for (int step = 0; step < 500; ++step) {
    const auto action = rng.below(10);
    if (action < 5) {  // push
      const int prio = static_cast<int>(rng.below(4));
      queue.push(next_tid, prio);
      model.push_back(Entry{next_tid, prio, seq++});
      ++next_tid;
    } else if (action < 8) {  // pop
      const ult::ThreadId got = queue.pop();
      if (model.empty()) {
        EXPECT_EQ(got, ult::kNoThread);
      } else {
        auto best = model.begin();
        for (auto it = model.begin(); it != model.end(); ++it) {
          if (it->prio > best->prio ||
              (it->prio == best->prio && it->seq < best->seq))
            best = it;
        }
        EXPECT_EQ(got, best->tid) << "step " << step;
        model.erase(best);
      }
    } else if (action == 8 && !model.empty()) {  // remove random
      const auto victim = model.begin() +
                          static_cast<std::ptrdiff_t>(rng.below(model.size()));
      EXPECT_TRUE(queue.remove(victim->tid));
      model.erase(victim);
    } else if (!model.empty()) {  // update priority
      const auto target = model.begin() +
                          static_cast<std::ptrdiff_t>(rng.below(model.size()));
      const int prio = static_cast<int>(rng.below(4));
      EXPECT_TRUE(queue.update_priority(target->tid, prio));
      target->prio = prio;
    }
    ASSERT_EQ(queue.size(), model.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WaitQueueModelTest,
                         testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Engine invariants over a (workload x cpus x lwps) sweep.

struct EngineCase {
  std::string name;
  std::function<void()> body;
  int cpus;
  int lwps;
};

void PrintTo(const EngineCase& c, std::ostream* os) {
  *os << c.name << "/cpus" << c.cpus << "/lwps" << c.lwps;
}

class EngineInvariantTest : public testing::TestWithParam<EngineCase> {};

TEST_P(EngineInvariantTest, InvariantsHold) {
  const EngineCase& c = GetParam();
  sol::Program program;
  const trace::Trace t = rec::record_program(program, c.body);
  core::SimConfig cfg;
  cfg.hw.cpus = c.cpus;
  cfg.sched.lwps = c.lwps;
  const core::SimResult r = core::simulate(t, cfg);

  // 1. The timeline is well-formed (contiguous, <= cpus running, ...).
  r.validate();

  // 2. Speed-up is bounded by both CPUs and LWPs, and by thread count.
  const double bound = std::min<double>(
      c.cpus, c.lwps == 0 ? static_cast<double>(t.threads.size()) : c.lwps);
  EXPECT_LE(r.speedup, bound + 0.01);
  EXPECT_GT(r.speedup, 0.0);

  // 3. Work conservation: total CPU time equals the compiled demand and
  //    the per-CPU busy time.
  const core::CompiledTrace compiled = core::compile(t);
  SimTime demand;
  for (const core::FlatThread& ft : compiled.flat->threads)
    demand += ft.total_cpu;
  SimTime thread_cpu;
  for (const auto& [tid, st] : r.threads) thread_cpu += st.cpu_time;
  SimTime busy;
  for (const auto& cs : r.cpu_stats) busy += cs.busy;
  EXPECT_EQ(thread_cpu, demand);
  EXPECT_EQ(busy, thread_cpu);

  // 4. Every event lands inside the run and keeps its source location.
  for (const auto& e : r.events) {
    EXPECT_LE(e.done, r.total);
    EXPECT_LT(e.loc, t.locations.size());
  }

  // 5. Each thread's lifetime covers its segments.
  for (const auto& [tid, st] : r.threads) {
    EXPECT_LE(st.created_at, st.exited_at);
    EXPECT_EQ(st.cpu_time + st.runnable_time + st.blocked_time +
                  st.sleeping_time,
              st.exited_at - st.created_at)
        << "T" << tid << " state times must tile its lifetime";
  }

  // 6. Determinism: simulating again gives the identical result.
  const core::SimResult r2 = core::simulate(t, cfg);
  EXPECT_EQ(r2.total, r.total);
  EXPECT_EQ(r2.segments.size(), r.segments.size());

  // 7. The LWP gantt is well-formed: per-LWP segments do not overlap,
  //    and the on-CPU time it shows equals the LWP's accounted running
  //    time.
  for (const core::LwpStats& ls : r.lwp_stats) {
    const auto segs = r.segments_of_lwp(ls.id);
    SimTime on_cpu;
    for (std::size_t i = 0; i < segs.size(); ++i) {
      EXPECT_LE(segs[i].start, segs[i].end);
      if (i > 0) {
        EXPECT_GE(segs[i].start, segs[i - 1].end);
      }
      if (segs[i].cpu >= 0) on_cpu += segs[i].end - segs[i].start;
    }
    EXPECT_EQ(on_cpu, ls.running) << "LWP " << ls.id;
  }
}

std::vector<EngineCase> engine_cases() {
  std::vector<EngineCase> cases;
  const auto add = [&cases](std::string name, std::function<void()> body) {
    for (int cpus : {1, 2, 3, 8}) {
      for (int lwps : {0, 2}) {
        cases.push_back(EngineCase{name, body, cpus, lwps});
      }
    }
  };
  add("forkjoin", []() { workloads::fork_join(5, SimTime::millis(7)); });
  add("imbalanced", []() {
    workloads::imbalanced(4, SimTime::millis(5), 0.8);
  });
  add("pipeline", []() { workloads::pipeline(3, 20, SimTime::micros(300)); });
  add("ocean", []() { workloads::ocean(workloads::SplashParams{3, 0.02}); });
  add("lu", []() { workloads::lu(workloads::SplashParams{3, 0.05}); });
  add("prodcons", []() {
    workloads::ProdConsParams p;
    p.producers = 10;
    p.consumers = 5;
    p.items_per_producer = 4;
    workloads::prodcons_tuned(p);
  });
  add("rwlock", []() {
    workloads::readers_writer(3, 5, SimTime::micros(500), 3,
                              SimTime::micros(800));
  });
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, EngineInvariantTest,
                         testing::ValuesIn(engine_cases()),
                         [](const testing::TestParamInfo<EngineCase>& info) {
                           return info.param.name + "_cpus" +
                                  std::to_string(info.param.cpus) + "_lwps" +
                                  std::to_string(info.param.lwps);
                         });

// ---------------------------------------------------------------------------
// Trace serialization round-trips for every workload.

class TraceRoundTripTest
    : public testing::TestWithParam<std::function<void()>> {};

TEST_P(TraceRoundTripTest, TextRoundTripIsIdentity) {
  sol::Program program;
  const trace::Trace t = rec::record_program(program, GetParam());
  const std::string text = trace::to_text(t);
  const trace::Trace back = trace::from_text(text);
  EXPECT_EQ(trace::to_text(back), text);
  EXPECT_EQ(back.records.size(), t.records.size());
  // Round-tripped traces predict identically.
  EXPECT_EQ(core::simulate(back, core::SimConfig{}).total,
            core::simulate(t, core::SimConfig{}).total);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, TraceRoundTripTest,
    testing::Values(
        std::function<void()>(
            []() { workloads::fork_join(3, SimTime::millis(2)); }),
        std::function<void()>([]() {
          workloads::radix(workloads::SplashParams{2, 0.02});
        }),
        std::function<void()>([]() {
          workloads::water_spatial(workloads::SplashParams{3, 0.02});
        }),
        std::function<void()>([]() {
          workloads::pipeline(2, 10, SimTime::micros(100));
        })));

// ---------------------------------------------------------------------------
// Speed-up sanity across the CPU axis for every SPLASH app.

class SplashMonotonicTest
    : public testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SplashMonotonicTest, EfficiencyAtMostOne) {
  const auto [app_idx, cpus] = GetParam();
  const auto suite = workloads::splash_suite();
  const auto& app = suite[static_cast<std::size_t>(app_idx)];
  sol::Program program;
  const trace::Trace t = rec::record_program(program, [&app, cpus]() {
    app.run(workloads::SplashParams{cpus, 0.05});
  });
  const double s = core::predict_speedup(t, cpus);
  EXPECT_GT(s, 0.9) << app.name;
  EXPECT_LE(s, cpus * 1.001) << app.name << ": super-linear is impossible";
}

std::string splash_case_name(
    const testing::TestParamInfo<std::tuple<int, int>>& info) {
  static const char* const kNames[5] = {"Ocean", "Water", "FFT", "Radix",
                                        "LU"};
  return std::string(kNames[std::get<0>(info.param)]) + "_cpus" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Grid, SplashMonotonicTest,
                         testing::Combine(testing::Range(0, 5),
                                          testing::Values(1, 2, 4, 8)),
                         splash_case_name);


// ---------------------------------------------------------------------------
// SimResult's batch queries against their one-at-a-time references:
// parallelism_at(times) against parallelism_at(t), the bucketed
// thread_segments(tids) and segments_of_lwps(lwps) against a filter and
// sort of the whole timeline.

/// Instants before the first segment, after the run, on a 200-point
/// grid, and exactly on (and 1 ns either side of) a spread of segment
/// starts and ends: each segment counts over [start, end).
std::vector<SimTime> probe_times(const core::SimResult& r) {
  std::vector<SimTime> times{SimTime::nanos(-1), r.total,
                             r.total + SimTime::nanos(1)};
  for (std::int64_t i = 0; i < 200; ++i) {
    times.push_back(SimTime::nanos(r.total.ns() * i / 199));
  }
  const std::size_t stride = std::max<std::size_t>(1, r.segments.size() / 64);
  for (std::size_t i = 0; i < r.segments.size(); i += stride) {
    for (const SimTime edge : {r.segments[i].start, r.segments[i].end}) {
      times.push_back(edge - SimTime::nanos(1));
      times.push_back(edge);
      times.push_back(edge + SimTime::nanos(1));
    }
  }
  return times;
}

void expect_batch_matches(const core::SimResult& r,
                          const std::vector<SimTime>& times,
                          const std::string& what) {
  const auto batch = r.parallelism_at(times);
  ASSERT_EQ(batch.size(), times.size()) << what;
  for (std::size_t i = 0; i < times.size(); ++i) {
    const core::SimResult::Parallelism one = r.parallelism_at(times[i]);
    EXPECT_TRUE(batch[i].running == one.running &&
                batch[i].runnable == one.runnable)
        << what << " at " << times[i].ns() << " ns: batch " << batch[i].running
        << "/" << batch[i].runnable << ", reference " << one.running << "/"
        << one.runnable;
  }
}

template <class Item, class Key, class KeyOf>
std::vector<Item> filter_sorted(const std::vector<Item>& items, Key key,
                                KeyOf key_of) {
  std::vector<Item> out;
  for (const Item& item : items) {
    if (key_of(item) == key) out.push_back(item);
  }
  std::sort(out.begin(), out.end(),
            [](const Item& a, const Item& b) { return a.start < b.start; });
  return out;
}

bool same_segments(const std::vector<core::Segment>& a,
                   const std::vector<core::Segment>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const core::Segment& x, const core::Segment& y) {
                      return x.tid == y.tid && x.start == y.start &&
                             x.end == y.end && x.state == y.state &&
                             x.cpu == y.cpu;
                    });
}

bool same_lwp_segments(const std::vector<core::LwpSegment>& a,
                       const std::vector<core::LwpSegment>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const core::LwpSegment& x, const core::LwpSegment& y) {
                      return x.lwp == y.lwp && x.start == y.start &&
                             x.end == y.end && x.thread == y.thread &&
                             x.cpu == y.cpu;
                    });
}

TEST(SimResultBatchTest, MatchesTheReferencesOnEveryGoldenWorkload) {
  for (const core::GoldenCase& gc : core::kGoldenCases) {
    const core::CompiledTrace compiled = core::record_compiled(gc.workload);
    for (const int cpus : {1, 2, 4, 8}) {
      core::SimConfig cfg;
      gc.configure(cfg);
      cfg.hw.cpus = cpus;
      const core::SimResult r = core::simulate(compiled, cfg);
      const std::string what = std::string(gc.name) + " at " +
                               std::to_string(cpus) + " CPUs";
      ASSERT_FALSE(r.segments.empty()) << what;

      std::vector<SimTime> times = probe_times(r);
      expect_batch_matches(r, times, what);
      std::reverse(times.begin(), times.end());  // any order
      expect_batch_matches(r, times, what + ", descending");
      expect_batch_matches(r, {}, what + ", no instants");

      // parallelism_profile(200) is the 200-point grid, as before.
      const auto profile = r.parallelism_profile(200);
      ASSERT_EQ(profile.size(), 200u);
      for (std::int64_t i = 0; i < 200; ++i) {
        const SimTime t = SimTime::nanos(r.total.ns() * i / 199);
        const auto one = r.parallelism_at(t);
        const auto& p = profile[static_cast<std::size_t>(i)];
        EXPECT_TRUE(p.at == t && p.running == one.running &&
                    p.runnable == one.runnable)
            << what << " profile point " << i;
      }

      // Every thread, one repeated and one unknown tid.
      std::vector<trace::ThreadId> tids;
      for (const auto& [tid, st] : r.threads) tids.push_back(tid);
      tids.push_back(tids.front());
      tids.push_back(-7);
      const auto by_thread = r.thread_segments(tids);
      ASSERT_EQ(by_thread.size(), tids.size());
      for (std::size_t i = 0; i < tids.size(); ++i) {
        EXPECT_TRUE(same_segments(
            by_thread[i],
            filter_sorted(r.segments, tids[i],
                          [](const core::Segment& s) { return s.tid; })))
            << what << ": T" << tids[i];
      }
      std::vector<int> lwps;
      for (const core::LwpStats& ls : r.lwp_stats) lwps.push_back(ls.id);
      lwps.push_back(-1);
      const auto by_lwp = r.segments_of_lwps(lwps);
      ASSERT_EQ(by_lwp.size(), lwps.size());
      for (std::size_t i = 0; i < lwps.size(); ++i) {
        EXPECT_TRUE(same_lwp_segments(
            by_lwp[i],
            filter_sorted(r.lwp_segments, lwps[i],
                          [](const core::LwpSegment& s) { return s.lwp; })))
            << what << ": LWP " << lwps[i];
      }
    }
  }
}

TEST(SimResultBatchTest, HandBuiltTimelineInAnyOrder) {
  // Out of time order, with zero-length and equal-start segments: the
  // batches must sort and count exactly as the references do.
  core::SimResult r;
  r.total = SimTime::nanos(100);
  const auto seg = [](trace::ThreadId tid, std::int64_t a, std::int64_t b,
                      core::SegState state, int cpu) {
    return core::Segment{tid, SimTime::nanos(a), SimTime::nanos(b), state,
                         cpu};
  };
  r.segments = {seg(2, 40, 90, core::SegState::kRunnable, -1),
                seg(1, 50, 100, core::SegState::kRunning, 1),
                seg(1, 10, 10, core::SegState::kRunning, 0),
                seg(2, 0, 40, core::SegState::kRunning, 0),
                seg(1, 10, 50, core::SegState::kBlocked, -1),
                seg(1, 0, 10, core::SegState::kRunnable, -1),
                seg(3, 20, 20, core::SegState::kRunnable, -1),
                seg(2, 90, 100, core::SegState::kSleeping, -1)};
  for (int i = 0; i < 8; ++i) {
    r.lwp_segments.push_back(core::LwpSegment{
        i % 2, SimTime::nanos(80 - 10 * i), SimTime::nanos(90 - 10 * i), i,
        i % 3 - 1});
  }
  std::vector<SimTime> times;
  for (std::int64_t t = -2; t <= 102; ++t) times.push_back(SimTime::nanos(t));
  expect_batch_matches(r, times, "hand-built");

  const std::vector<trace::ThreadId> tids{2, 1, 3, 1};
  const auto by_thread = r.thread_segments(tids);
  for (std::size_t i = 0; i < tids.size(); ++i) {
    EXPECT_TRUE(same_segments(
        by_thread[i],
        filter_sorted(r.segments, tids[i],
                      [](const core::Segment& s) { return s.tid; })))
        << "T" << tids[i];
  }
  const auto by_lwp = r.segments_of_lwps({1, 0});
  for (const int lwp : {0, 1}) {
    EXPECT_TRUE(same_lwp_segments(
        by_lwp[static_cast<std::size_t>(1 - lwp)],
        filter_sorted(r.lwp_segments, lwp,
                      [](const core::LwpSegment& s) { return s.lwp; })))
        << "LWP " << lwp;
  }
}

TEST(SimResultBatchTest, EmptyRunAnswersZeroEverywhere) {
  const core::SimResult r;
  const auto batch = r.parallelism_at(std::vector<SimTime>{
      SimTime::nanos(5), SimTime::zero(), SimTime::zero()});
  ASSERT_EQ(batch.size(), 3u);
  for (const auto& p : batch) {
    EXPECT_EQ(p.running, 0);
    EXPECT_EQ(p.runnable, 0);
  }
  EXPECT_TRUE(r.parallelism_at(std::vector<SimTime>{}).empty());
  for (const auto& p : r.parallelism_profile(200)) {
    EXPECT_EQ(p.at, SimTime::zero());
    EXPECT_EQ(p.running + p.runnable, 0);
  }
  EXPECT_TRUE(r.thread_segments(std::vector<trace::ThreadId>{1})[0].empty());
}

TEST(SimResultValidateTest, MoreRunningThreadsThanCpusAreRejected) {
  // Three staggered running segments overlap over [20, 30): each
  // thread's own timeline is contiguous, only the CPU count is wrong.
  core::SimResult r;
  r.total = SimTime::nanos(50);
  for (trace::ThreadId tid = 1; tid <= 3; ++tid) {
    const std::int64_t start = 10 * (tid - 1);
    r.segments.push_back(core::Segment{tid, SimTime::nanos(start),
                                       SimTime::nanos(start + 30),
                                       core::SegState::kRunning, tid - 1});
  }
  r.cpus = 2;
  EXPECT_THROW(r.validate(), Error);
  r.cpus = 3;
  EXPECT_NO_THROW(r.validate());
}

TEST(SimResultValidateTest, BackToBackSegmentsAtOneInstantAreAccepted) {
  // On one CPU, T1 stops running at 10 exactly when T2 starts (after a
  // zero-length running segment at the same instant): [start, end)
  // segments that only touch never run at once.
  core::SimResult r;
  r.cpus = 1;
  r.total = SimTime::nanos(20);
  const auto seg = [](trace::ThreadId tid, std::int64_t a, std::int64_t b,
                      core::SegState state) {
    return core::Segment{tid, SimTime::nanos(a), SimTime::nanos(b), state,
                         state == core::SegState::kRunning ? 0 : -1};
  };
  r.segments = {seg(1, 0, 10, core::SegState::kRunning),
                seg(1, 10, 20, core::SegState::kRunnable),
                seg(2, 0, 10, core::SegState::kRunnable),
                seg(2, 10, 10, core::SegState::kRunning),
                seg(2, 10, 20, core::SegState::kRunning)};
  EXPECT_NO_THROW(r.validate());
}

TEST(SimResultValidateTest, The736ThreadProducerConsumerRunIsValidAtFourCpus) {
  workloads::ProdConsParams p;
  p.producers = 490;
  p.consumers = 245;
  p.items_per_producer = 10;
  const core::CompiledTrace compiled =
      core::record_compiled([p] { workloads::prodcons_tuned(p); });
  core::SimConfig cfg;
  cfg.hw.cpus = 4;
  const core::SimResult r = core::simulate(compiled, cfg);
  ASSERT_EQ(r.threads.size(), 736u);
  EXPECT_NO_THROW(r.validate());
}

}  // namespace
}  // namespace vppb
