// Crash-safety end-to-end: a recorded target that dies — SIGKILL
// between chunks, SIGSEGV inside one — must leave a log the salvaging
// loader can recover, and a dying writer must never clobber a previous
// good log.  Each scenario forks: the child is the dying target, the
// parent the crash investigator.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "recorder/recorder.hpp"
#include "solaris/program.hpp"
#include "solaris/solaris.hpp"
#include "trace/binary.hpp"
#include "trace/chunked.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"

namespace vppb::rec {
namespace {

using trace::IssueKind;
using trace::LoadOptions;
using trace::LoadReport;
using trace::Op;
using trace::Phase;
using trace::Record;
using trace::Trace;

std::string temp_path(const char* name) {
  return testing::TempDir() + "/vppb_crashsafe_" + name + "_" +
         std::to_string(::getpid()) + ".log";
}

Record make_record(std::int64_t us, trace::ThreadId tid, Op op) {
  Record r;
  r.at = SimTime::micros(us);
  r.tid = tid;
  r.phase = Phase::kCall;
  r.op = op;
  return r;
}

/// A trace of n single-op records (user marks) from one thread.
Trace marks_trace(int n) {
  Trace t;
  t.upsert_thread(1).name = t.strings.intern("main");
  for (int i = 0; i < n; ++i)
    t.records.push_back(make_record(10 * (i + 1), 1, Op::kUserMark));
  return t;
}

void fig2_like_work() {
  auto worker = []() -> void* {
    sol::compute(SimTime::micros(200));
    return nullptr;
  };
  sol::thread_t a = 0, b = 0;
  sol::thr_create_fn(worker, 0, &a, "thread");
  sol::thr_create_fn(worker, 0, &b, "thread");
  sol::thr_join(a, nullptr, nullptr);
  sol::thr_join(b, nullptr, nullptr);
}

int wait_for(pid_t pid) {
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  return status;
}

TEST(CrashSafe, NormalFinishProducesStrictlyLoadableLog) {
  const std::string path = temp_path("finish");
  Recorder::Options opts;
  opts.live_log_path = path;
  opts.live_chunk_records = 4;
  sol::Program program;
  const Trace t = record_program(program, fig2_like_work, opts);
  ASSERT_FALSE(t.records.empty());

  // finalize() ran inside finish(): the final path loads strictly and
  // holds every record the in-memory trace holds.
  const Trace back = trace::load_any_file(path);
  EXPECT_EQ(back.records.size(), t.records.size());
  for (std::size_t i = 0; i < t.records.size(); ++i) {
    EXPECT_EQ(back.records[i].at, t.records[i].at) << i;
    EXPECT_EQ(back.records[i].op, t.records[i].op) << i;
  }
  std::remove(path.c_str());
}

TEST(CrashSafe, SigkillBetweenChunksLeavesSalvageablePartial) {
  const std::string path = temp_path("sigkill");
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: stream 10 records in 4-record chunks, then die the hardest
    // way there is — no atexit, no destructors, no signal handlers.
    trace::ChunkedWriterOptions wopt;
    wopt.chunk_records = 4;
    trace::ChunkedWriter w(path, wopt);
    const Trace t = marks_trace(10);
    w.sync_tables(t);
    for (const Record& r : t.records) w.add_record(r);
    ::kill(::getpid(), SIGKILL);
    ::_exit(99);  // unreachable
  }
  const int status = wait_for(pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  // finalize() never ran: the evidence is the ".partial" file, holding
  // the two sealed chunks (8 of 10 records).
  LoadOptions opt;
  opt.salvage = true;
  LoadReport report;
  const Trace back = trace::load_any_file(path + ".partial", opt, &report);
  EXPECT_EQ(back.records.size(), 8u);
  EXPECT_EQ(report.records_recovered, 8u);
  EXPECT_GE(report.chunks_loaded, 2u);
  EXPECT_NO_THROW(back.validate());
  std::remove((path + ".partial").c_str());
}

TEST(CrashSafe, SigsegvMidRunSealsAndPublishesLog) {
  const std::string path = temp_path("sigsegv");
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    Recorder::Options opts;
    opts.live_log_path = path;
    opts.live_chunk_records = 2;
    opts.install_crash_handlers = true;
    sol::Program program;
    record_program(program,
                   []() {
                     fig2_like_work();
                     ::raise(SIGSEGV);  // crash inside the workload
                   },
                   opts);
    ::_exit(99);  // unreachable: the re-raised SIGSEGV kills the child
  }
  const int status = wait_for(pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  // The crash handler sealed the pending chunk and renamed the log into
  // place; salvage recovers the work done before the crash.
  LoadOptions opt;
  opt.salvage = true;
  LoadReport report;
  const Trace back = trace::load_any_file(path, opt, &report);
  EXPECT_GT(back.records.size(), 0u);
  EXPECT_GT(report.records_recovered, 0u);
  EXPECT_NO_THROW(back.validate());
  // The recovered prefix contains real work, not just the header.
  bool saw_create = false;
  for (const Record& r : back.records)
    saw_create |= r.op == Op::kThrCreate;
  EXPECT_TRUE(saw_create);
  std::remove(path.c_str());
}

TEST(CrashSafe, AMarkedThreadIsWrittenAgainWhenItChanged) {
  const std::string path = temp_path("remark");
  Trace t = marks_trace(4);
  {
    trace::ChunkedWriter w(path);
    w.sync_tables(t);
    w.add_record(t.records[0]);
    w.add_record(t.records[1]);
    // The entry changes after it was written: marked, it is written
    // again (with its new string) before the next record.
    t.threads[0].name = t.strings.intern("renamed");
    t.threads[0].bound = true;
    w.mark_thread(0);
    w.sync_tables(t);
    w.add_record(t.records[2]);
    w.add_record(t.records[3]);
    w.finalize();
  }
  const Trace back = trace::load_any_file(path);
  ASSERT_EQ(back.threads.size(), 1u);
  EXPECT_EQ(back.strings.get(back.threads[0].name), "renamed");
  EXPECT_TRUE(back.threads[0].bound);
  EXPECT_EQ(back.records.size(), 4u);
  std::remove(path.c_str());
}

TEST(CrashSafe, DyingWriterNeverClobbersPreviousGoodLog) {
  const std::string path = temp_path("noclobber");
  // A previous run left a good log at `path`.
  {
    trace::ChunkedWriter w(path);
    const Trace t = marks_trace(6);
    w.sync_tables(t);
    for (const Record& r : t.records) w.add_record(r);
    w.finalize();
  }
  const Trace good = trace::load_any_file(path);
  ASSERT_EQ(good.records.size(), 6u);

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: a new recording starts over the same path but dies before
    // a single chunk is sealed.  crash_seal() must refuse to rename an
    // effectively-empty log over the good one.
    trace::ChunkedWriter w(path);
    w.crash_seal();
    ::kill(::getpid(), SIGKILL);
    ::_exit(99);
  }
  const int status = wait_for(pid);
  ASSERT_TRUE(WIFSIGNALED(status));

  // The previous good log survived; the dying run left only a stub.
  const Trace still_good = trace::load_any_file(path);
  EXPECT_EQ(still_good.records.size(), 6u);
  std::remove(path.c_str());
  std::remove((path + ".partial").c_str());
}

}  // namespace
}  // namespace vppb::rec
