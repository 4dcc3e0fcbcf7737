// Unit tests for the trace compiler: CPU attribution from the one-LWP
// log, call/return pairing, try-op and timed-wait outcome capture.
#include <gtest/gtest.h>

#include "core/compiler.hpp"
#include "recorder/recorder.hpp"
#include "solaris/program.hpp"
#include "solaris/solaris.hpp"
#include "trace/io.hpp"
#include "util/error.hpp"

namespace vppb::core {
namespace {

using trace::Op;

trace::Trace from_lines(const std::string& body) {
  return trace::from_text(body);
}

TEST(CompilerTest, SingleThreadComputeDemand) {
  // main: start, computes 100us, locks (5us in-call), computes 50us, exits.
  const trace::Trace t = from_lines(
      "thread 1 main main 0 0\n"
      "rec 0 1 C start_collect none 0 0 0 0\n"
      "rec 100000 1 C mtx_lock mutex 1 0 0 0\n"
      "rec 105000 1 R mtx_lock mutex 1 0 0 0\n"
      "rec 155000 1 C thr_exit thread 1 0 0 0\n");
  const CompiledTrace c = compile(t);
  const FlatThread& main_ct = c.thread(1);
  ASSERT_EQ(main_ct.steps.size(), 2u);
  EXPECT_EQ(main_ct.steps[0].op, Op::kMutexLock);
  EXPECT_EQ(main_ct.steps[0].cpu, SimTime::micros(100));
  EXPECT_EQ(main_ct.steps[0].op_cost, SimTime::micros(5));
  EXPECT_EQ(main_ct.steps[1].op, Op::kThrExit);
  EXPECT_EQ(main_ct.steps[1].cpu, SimTime::micros(50));
  EXPECT_EQ(main_ct.total_cpu, SimTime::micros(155));
}

TEST(CompilerTest, InterleavedAttributionFollowsLaterRecord) {
  // T1 blocks in thr_join from 10us; T4 runs 10..40us then exits; the
  // interval 10..40 belongs to T4, and the 40..41 wakeup tail to T1.
  const trace::Trace t = from_lines(
      "thread 1 main main 0 0\n"
      "thread 4 worker worker 0 0\n"
      "rec 0 1 C start_collect none 0 0 0 0\n"
      "rec 10000 1 C thr_join thread 4 0 0 0\n"
      "rec 40000 4 C thr_exit thread 4 0 0 0\n"
      "rec 41000 1 R thr_join thread 4 4 0 0\n"
      "rec 41000 1 C thr_exit thread 1 0 0 0\n");
  const CompiledTrace c = compile(t);
  ASSERT_EQ(c.thread(4).steps.size(), 1u);
  EXPECT_EQ(c.thread(4).steps[0].cpu, SimTime::micros(30));
  ASSERT_EQ(c.thread(1).steps.size(), 2u);
  const Step& join = c.thread(1).steps[0];
  EXPECT_EQ(join.cpu, SimTime::micros(10));
  EXPECT_EQ(join.op_cost, SimTime::micros(1));  // wakeup tail only
  EXPECT_FALSE(c.thread(4).created_in_log);
}

TEST(CompilerTest, CreatedInLogFlag) {
  const trace::Trace t = from_lines(
      "thread 1 main main 0 0\n"
      "thread 4 worker worker 0 0\n"
      "rec 0 1 C start_collect none 0 0 0 0\n"
      "rec 5000 1 C thr_create thread 0 0 0 0\n"
      "rec 6000 1 R thr_create thread 0 4 0 0\n"
      "rec 7000 4 C thr_exit thread 4 0 0 0\n"
      "rec 8000 1 C thr_exit thread 1 0 0 0\n");
  const CompiledTrace c = compile(t);
  EXPECT_TRUE(c.thread(4).created_in_log);
  ASSERT_FALSE(c.thread(1).steps.empty());
  EXPECT_EQ(c.thread(1).steps[0].outcome, 4);
}

TEST(CompilerTest, TimedWaitTimeoutBecomesDelay) {
  const trace::Trace t = from_lines(
      "thread 1 main main 0 0\n"
      "rec 0 1 C start_collect none 0 0 0 0\n"
      "rec 1000 1 C mtx_lock mutex 1 0 0 0\n"
      "rec 1000 1 R mtx_lock mutex 1 0 0 0\n"
      "rec 2000 1 C cond_timedwait cond 1 1 0 0\n"
      "rec 5002000 1 R cond_timedwait cond 1 0 0 0\n"
      "rec 5002000 1 C mtx_unlock mutex 1 0 0 0\n"
      "rec 5002000 1 R mtx_unlock mutex 1 0 0 0\n"
      "rec 5002000 1 C thr_exit thread 1 0 0 0\n");
  const CompiledTrace c = compile(t);
  ASSERT_GE(c.thread(1).steps.size(), 2u);
  const Step& wait = c.thread(1).steps[1];
  EXPECT_EQ(wait.op, Op::kCondTimedwait);
  EXPECT_EQ(wait.outcome, 0);
  EXPECT_EQ(wait.delay, SimTime::millis(5));
  EXPECT_EQ(wait.op_cost, SimTime::zero())
      << "sleep time must not be charged as compute";
}

TEST(CompilerTest, MetadataCopied) {
  sol::Program program;
  const trace::Trace t = rec::record_program(program, []() {
    sol::thread_t tid = 0;
    sol::thr_create_fn([]() -> void* { return nullptr; }, sol::THR_BOUND,
                       &tid, "bound_fn");
    sol::thr_join(tid, nullptr, nullptr);
  });
  const CompiledTrace c = compile(t);
  EXPECT_FALSE(c.thread(1).bound);
  EXPECT_TRUE(c.thread(4).bound);
  EXPECT_EQ(c.recorded_duration, t.duration());
}

TEST(CompilerTest, RecordedFig2DemandsMatchWork) {
  sol::Program program;
  const trace::Trace t = rec::record_program(program, []() {
    auto worker = []() -> void* {
      sol::compute(SimTime::micros(400));
      return nullptr;
    };
    sol::thread_t a = 0, b = 0;
    sol::thr_create_fn(worker, 0, &a, "worker");
    sol::thr_create_fn(worker, 0, &b, "worker");
    sol::join_all();
  });
  const CompiledTrace c = compile(t);
  EXPECT_EQ(c.thread(4).total_cpu, SimTime::micros(400));
  EXPECT_EQ(c.thread(5).total_cpu, SimTime::micros(400));
  // Both workers' demand lies in their single thr_exit step.
  EXPECT_EQ(c.thread(4).steps.back().op, Op::kThrExit);
  EXPECT_TRUE(c.thread(4).created_in_log);
  EXPECT_TRUE(c.thread(5).created_in_log);
}

TEST(CompilerTest, TryOutcomesPreserved) {
  sol::Program program;
  const trace::Trace t = rec::record_program(program, []() {
    sol::Mutex m;
    EXPECT_TRUE(m.try_lock());
    sol::thr_create_fn(
        [&m]() -> void* {
          EXPECT_FALSE(m.try_lock());
          return nullptr;
        },
        0, nullptr);
    sol::join_all();
    m.unlock();
  });
  const CompiledTrace c = compile(t);
  const auto& main_steps = c.thread(1).steps;
  const auto it =
      std::find_if(main_steps.begin(), main_steps.end(),
                   [](const Step& s) { return s.op == Op::kMutexTrylock; });
  ASSERT_NE(it, main_steps.end());
  EXPECT_EQ(it->outcome, 1);
  const auto& w = c.thread(4).steps;
  const auto wit = std::find_if(w.begin(), w.end(), [](const Step& s) {
    return s.op == Op::kMutexTrylock;
  });
  ASSERT_NE(wit, w.end());
  EXPECT_EQ(wit->outcome, 0);
}

trace::Record record(std::int64_t us, trace::ThreadId tid, Op op,
                     trace::Phase phase) {
  trace::Record r;
  r.at = SimTime::micros(us);
  r.tid = tid;
  r.op = op;
  r.phase = phase;
  r.obj = {trace::op_obj_kind(op), 1};
  return r;
}

TEST(CompilerTest, ThreadTableFollowsTheMetadata) {
  // The binary loader appends thread metadata as written, so a tid can
  // repeat: its first entry wins.  A thread with metadata but no
  // records keeps an entry with no steps.
  trace::Trace t;
  t.threads.push_back(trace::ThreadMeta{.tid = 3, .bound = true});
  t.threads.push_back(trace::ThreadMeta{.tid = 1});
  t.threads.push_back(trace::ThreadMeta{.tid = 3, .bound = false});
  t.records.push_back(record(0, 1, Op::kThrExit, trace::Phase::kCall));
  const CompiledTrace c = compile(t);
  ASSERT_EQ(c.flat->threads.size(), 2u);
  EXPECT_EQ(c.flat->threads[0].tid, 1);
  EXPECT_EQ(c.flat->threads[1].tid, 3);
  EXPECT_TRUE(c.thread(3).bound);
  EXPECT_TRUE(c.thread(3).steps.empty());
  EXPECT_EQ(c.thread(1).steps.size(), 1u);
}

TEST(CompilerTest, RejectsDanglingCall) {
  trace::Trace t;
  t.upsert_thread(1);
  t.records.push_back(record(0, 1, Op::kMutexLock, trace::Phase::kCall));
  EXPECT_THROW(compile(t), Error);
}

// compile() trusts the loaders' structural check and does not rerun
// Trace::validate(), so these hand-built traces — which no loader would
// accept — pin the faults its own record walk must still reject.
TEST(CompilerTest, RejectsTimeGoingBackwards) {
  trace::Trace t;
  t.upsert_thread(1);
  t.records.push_back(record(10, 1, Op::kThrYield, trace::Phase::kCall));
  t.records.push_back(record(10, 1, Op::kThrYield, trace::Phase::kReturn));
  t.records.push_back(record(5, 1, Op::kThrExit, trace::Phase::kCall));
  EXPECT_THROW(compile(t), Error);
}

TEST(CompilerTest, RejectsRecordFromThreadWithoutMetadata) {
  trace::Trace t;
  t.upsert_thread(1);
  t.records.push_back(record(0, 1, Op::kStartCollect, trace::Phase::kCall));
  t.records.push_back(record(5, 2, Op::kThrExit, trace::Phase::kCall));
  EXPECT_THROW(compile(t), Error);
}

TEST(CompilerTest, RejectsReturnWithoutCall) {
  trace::Trace t;
  t.upsert_thread(1);
  t.records.push_back(record(0, 1, Op::kMutexLock, trace::Phase::kReturn));
  EXPECT_THROW(compile(t), Error);
}

TEST(CompilerTest, BroadcastOutcomeIsReleaseCount) {
  sol::Program program;
  const trace::Trace t = rec::record_program(program, []() {
    sol::Barrier barrier(3);
    for (int i = 0; i < 2; ++i) {
      sol::thr_create_fn(
          [&barrier]() -> void* {
            barrier.arrive();
            return nullptr;
          },
          0, nullptr);
    }
    sol::thr_yield();     // both workers reach the barrier and wait
    barrier.arrive();     // main is last: broadcast releases 2
    sol::join_all();
  });
  const CompiledTrace c = compile(t);
  const auto& main_steps = c.thread(1).steps;
  const auto it =
      std::find_if(main_steps.begin(), main_steps.end(),
                   [](const Step& s) { return s.op == Op::kCondBroadcast; });
  ASSERT_NE(it, main_steps.end());
  EXPECT_EQ(it->outcome, 2);
}

}  // namespace
}  // namespace vppb::core
