// Unit tests for the trace model, its text serialization, and the
// salvaging loaders' behaviour on damaged input.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <thread>

#include "trace/binary.hpp"
#include "trace/chunked.hpp"
#include "trace/io.hpp"
#include "trace/lint.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace vppb::trace {
namespace {

Record rec(std::int64_t us, ThreadId tid, Phase phase, Op op,
           ObjectRef obj = {}, std::int64_t arg = 0) {
  Record r;
  r.at = SimTime::micros(us);
  r.tid = tid;
  r.phase = phase;
  r.op = op;
  r.obj = obj;
  r.arg = arg;
  return r;
}

Trace example_trace() {
  // The paper's fig. 2 program: main creates thr_a (T4) and thr_b (T5),
  // joins both; worker threads just exit.
  Trace t;
  t.upsert_thread(1).name = t.strings.intern("main");
  t.upsert_thread(4).name = t.strings.intern("thr_a");
  t.upsert_thread(5).name = t.strings.intern("thr_b");
  t.records.push_back(rec(0, 1, Phase::kCall, Op::kStartCollect));
  t.records.push_back(
      rec(5, 1, Phase::kCall, Op::kThrCreate, {ObjKind::kThread, 0}));
  t.records.push_back(
      rec(10, 1, Phase::kReturn, Op::kThrCreate, {ObjKind::kThread, 0}, 4));
  t.records.push_back(
      rec(12, 1, Phase::kCall, Op::kThrCreate, {ObjKind::kThread, 0}));
  t.records.push_back(
      rec(20, 1, Phase::kReturn, Op::kThrCreate, {ObjKind::kThread, 0}, 5));
  t.records.push_back(
      rec(25, 1, Phase::kCall, Op::kThrJoin, {ObjKind::kThread, 4}));
  t.records.push_back(rec(40, 4, Phase::kCall, Op::kThrExit,
                          {ObjKind::kThread, 4}));
  t.records.push_back(rec(52, 5, Phase::kCall, Op::kThrExit,
                          {ObjKind::kThread, 5}));
  t.records.push_back(
      rec(53, 1, Phase::kReturn, Op::kThrJoin, {ObjKind::kThread, 4}, 4));
  t.records.push_back(
      rec(60, 1, Phase::kCall, Op::kThrJoin, {ObjKind::kThread, 5}));
  t.records.push_back(
      rec(74, 1, Phase::kReturn, Op::kThrJoin, {ObjKind::kThread, 5}, 5));
  t.records.push_back(rec(80, 1, Phase::kCall, Op::kThrExit,
                          {ObjKind::kThread, 1}));
  t.records.push_back(rec(80, 1, Phase::kCall, Op::kEndCollect));
  return t;
}

TEST(OpNames, RoundTripEveryOp) {
  for (int i = 0; i <= static_cast<int>(Op::kIoWait); ++i) {
    const Op op = static_cast<Op>(i);
    Op back;
    ASSERT_TRUE(op_from_name(op_name(op), back)) << op_name(op);
    EXPECT_EQ(back, op);
  }
  Op dummy;
  EXPECT_FALSE(op_from_name("nonsense", dummy));
}

TEST(OpNames, Classification) {
  EXPECT_TRUE(op_may_block(Op::kMutexLock));
  EXPECT_TRUE(op_may_block(Op::kThrJoin));
  EXPECT_FALSE(op_may_block(Op::kMutexUnlock));
  EXPECT_TRUE(op_is_try(Op::kMutexTrylock));
  EXPECT_FALSE(op_is_try(Op::kMutexLock));
  EXPECT_EQ(op_obj_kind(Op::kSemaPost), ObjKind::kSema);
  EXPECT_EQ(op_obj_kind(Op::kThrCreate), ObjKind::kThread);
}

TEST(StringPoolTest, InternsAndDedupes) {
  StringPool pool;
  EXPECT_EQ(pool.intern(""), 0u);
  const auto a = pool.intern("ocean.cpp");
  const auto b = pool.intern("fft.cpp");
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.intern("ocean.cpp"), a);
  EXPECT_EQ(pool.get(a), "ocean.cpp");
  EXPECT_THROW(pool.get(999), Error);
}

TEST(TraceTest, AddLocationDedupes) {
  Trace t;
  const auto a = t.add_location("x.cpp", 10, "f");
  const auto b = t.add_location("x.cpp", 10, "f");
  const auto c = t.add_location("x.cpp", 11, "f");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(t.locations.size(), 3u);  // reserved slot 0 + two sites
}

TEST(TraceTest, DurationIsLastRecord) {
  const Trace t = example_trace();
  EXPECT_EQ(t.duration(), SimTime::micros(80));
  EXPECT_EQ(Trace{}.duration(), SimTime::zero());
}

TEST(TraceTest, ValidateAcceptsWellFormed) {
  EXPECT_NO_THROW(example_trace().validate());
}

TEST(TraceTest, ValidateRejectsTimeTravel) {
  Trace t = example_trace();
  t.records[3].at = SimTime::micros(1);  // earlier than record 2
  EXPECT_THROW(t.validate(), Error);
}

TEST(TraceTest, ValidateRejectsUnknownThread) {
  Trace t = example_trace();
  t.records[1].tid = 77;
  EXPECT_THROW(t.validate(), Error);
}

TEST(TraceTest, ValidateRejectsUnmatchedReturn) {
  Trace t = example_trace();
  t.records[2].op = Op::kMutexLock;  // return of a call never made
  EXPECT_THROW(t.validate(), Error);
}

TEST(TraceTest, SplitByThreadPreservesOrder) {
  // Paper fig. 4: the simulator sorts the log into per-thread lists.
  const Trace t = example_trace();
  const auto lists = split_by_thread(t);
  ASSERT_EQ(lists.size(), 3u);
  EXPECT_EQ(lists.at(1).size(), 11u);
  EXPECT_EQ(lists.at(4).size(), 1u);
  EXPECT_EQ(lists.at(5).size(), 1u);
  for (const auto& [tid, list] : lists) {
    for (std::size_t i = 1; i < list.size(); ++i)
      EXPECT_GE(list[i].at, list[i - 1].at);
    for (const auto& r : list) EXPECT_EQ(r.tid, tid);
  }
}

TEST(TraceTest, ComputeStats) {
  const TraceStats s = compute_stats(example_trace());
  EXPECT_EQ(s.records, 13u);
  EXPECT_EQ(s.threads, 3u);
  EXPECT_EQ(s.duration, SimTime::micros(80));
  EXPECT_EQ(s.per_op.at(Op::kThrCreate), 2u);
  EXPECT_EQ(s.per_op.at(Op::kThrJoin), 2u);
  EXPECT_EQ(s.per_op.at(Op::kThrExit), 3u);
  EXPECT_GT(s.events_per_second, 0.0);
}

TEST(TraceIo, RoundTripPreservesEverything) {
  Trace t = example_trace();
  t.add_location("demo.cpp", 42, "main");
  t.records[1].loc = 0;
  const std::string text = to_text(t);
  const Trace back = from_text(text);
  ASSERT_EQ(back.records.size(), t.records.size());
  for (std::size_t i = 0; i < t.records.size(); ++i) {
    EXPECT_EQ(back.records[i].at, t.records[i].at) << i;
    EXPECT_EQ(back.records[i].tid, t.records[i].tid) << i;
    EXPECT_EQ(back.records[i].phase, t.records[i].phase) << i;
    EXPECT_EQ(back.records[i].op, t.records[i].op) << i;
    EXPECT_EQ(back.records[i].obj, t.records[i].obj) << i;
    EXPECT_EQ(back.records[i].arg, t.records[i].arg) << i;
  }
  ASSERT_EQ(back.threads.size(), 3u);
  EXPECT_EQ(back.strings.get(back.find_thread(4)->name), "thr_a");
  // Serialization is deterministic.
  EXPECT_EQ(to_text(back), text);
}

TEST(TraceIo, RejectsMalformedInput) {
  EXPECT_THROW(from_text("garbage line\n"), Error);
  EXPECT_THROW(from_text("rec 1 2 C\n"), Error);
  EXPECT_THROW(from_text("rec 0 1 X thr_exit thread 1 0 0 0\n"), Error);
  EXPECT_THROW(from_text("rec 0 1 C no_such_op thread 1 0 0 0\n"), Error);
  EXPECT_THROW(from_text("loc 5 f.cpp 1 f\n"), Error);  // non-dense index
}

TEST(TraceIo, IgnoresCommentsAndBlankLines) {
  const Trace t = from_text(
      "# comment\n"
      "\n"
      "thread 1 main main 0 0\n"
      "rec 0 1 C start_collect none 0 0 0 0\n");
  EXPECT_EQ(t.records.size(), 1u);
}

TEST(TraceIo, FileRoundTrip) {
  const Trace t = example_trace();
  const std::string path = testing::TempDir() + "/vppb_trace_test.log";
  save_file(t, path);
  const Trace back = load_any_file(path);
  EXPECT_EQ(back.records.size(), t.records.size());
  EXPECT_THROW(load_any_file("/nonexistent/dir/x.log"), Error);
}

TEST(TraceIo, LoadsThroughAPipe) {
  // A pipe has no size up front, so the reader reads it to EOF.  The
  // trace is several times a pipe's buffer, so it arrives in many reads.
  Trace t;
  t.upsert_thread(1).name = t.strings.intern("main");
  for (int i = 0; i < 20000; ++i)
    t.records.push_back(rec(i, 1, Phase::kCall, Op::kUserMark));
  const std::string text = to_text(t);
  const std::vector<std::uint8_t> files[] = {
      {text.begin(), text.end()}, to_binary(t), to_chunked(t)};
  const std::string path = testing::TempDir() + "/vppb_trace_fifo";
  for (const std::vector<std::uint8_t>& bytes : files) {
    ::unlink(path.c_str());
    ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
    std::thread writer([&path, &bytes]() {
      std::ofstream(path, std::ios::binary)
          .write(reinterpret_cast<const char*>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()));
    });
    Trace back;
    EXPECT_NO_THROW(back = load_any_file(path));
    writer.join();
    EXPECT_EQ(to_text(back), text);
  }
  ::unlink(path.c_str());
}

TEST(TraceTest, LocationString) {
  Trace t = example_trace();
  const auto loc = t.add_location("demo.cpp", 42, "main");
  t.records[1].loc = loc;
  EXPECT_EQ(t.location_string(t.records[1]), "demo.cpp:42");
  EXPECT_EQ(t.location_string(t.records[0]), "");
}

// ---------------------------------------------------------------------------
// Damaged-input behaviour: strict loads reject, salvage loads recover the
// longest valid prefix and say exactly what was lost.

LoadOptions salvage_opt() {
  LoadOptions opt;
  opt.salvage = true;
  return opt;
}

TEST(TraceSalvage, ZeroByteInputs) {
  // Binary and chunked decoders need at least a header; even salvage
  // has nothing to work with.
  const std::uint8_t none = 0;
  EXPECT_THROW(from_binary(&none, 0), Error);
  EXPECT_THROW(from_chunked(&none, 0), Error);
  LoadReport report;
  EXPECT_THROW(from_binary(&none, 0, salvage_opt(), &report), Error);
  EXPECT_THROW(from_chunked(&none, 0, salvage_opt(), &report), Error);
}

TEST(TraceSalvage, GiantHeaderCountsRejected) {
  // "VPPB" v1 claiming ~4 billion strings: the claimed count exceeds the
  // bytes actually present, and must be rejected before any allocation
  // of that size is attempted.
  std::vector<std::uint8_t> bad = {'V', 'P', 'P', 'B', 1,
                                   0xFF, 0xFF, 0xFF, 0xFF, 0x0F};
  EXPECT_THROW(from_binary(bad.data(), bad.size()), Error);
  LoadReport report;
  EXPECT_THROW(from_binary(bad.data(), bad.size(), salvage_opt(), &report),
               Error);
}

TEST(TraceSalvage, TruncatedBinaryRecoversPrefix) {
  const Trace t = example_trace();
  const std::vector<std::uint8_t> full = to_binary(t);
  const std::size_t cut = full.size() - 5;
  EXPECT_THROW(from_binary(full.data(), cut), Error);

  LoadReport report;
  const Trace back = from_binary(full.data(), cut, salvage_opt(), &report);
  EXPECT_TRUE(report.salvaged);
  EXPECT_FALSE(report.issues.empty());
  EXPECT_LT(back.records.size(), t.records.size());
  EXPECT_EQ(report.records_recovered, back.records.size());
  EXPECT_GT(report.records_dropped, 0u);
  EXPECT_NO_THROW(back.validate());
  // The recovered prefix is byte-for-byte the original's records.
  for (std::size_t i = 0; i < back.records.size(); ++i)
    EXPECT_EQ(back.records[i].at, t.records[i].at) << i;
}

TEST(TraceSalvage, CorruptedBinaryByteRecoversPrefix) {
  const Trace t = example_trace();
  std::vector<std::uint8_t> bytes = to_binary(t);
  bytes[bytes.size() - 3] ^= 0xFF;  // damage inside the record section
  LoadReport report;
  const Trace back =
      from_binary(bytes.data(), bytes.size(), salvage_opt(), &report);
  EXPECT_LE(back.records.size(), t.records.size());
  EXPECT_NO_THROW(back.validate());
}

TEST(TraceSalvage, ChunkedRoundTripStrict) {
  const Trace t = example_trace();
  const std::vector<std::uint8_t> bytes = to_chunked(t, 4);
  const Trace back = from_chunked(bytes.data(), bytes.size());
  ASSERT_EQ(back.records.size(), t.records.size());
  for (std::size_t i = 0; i < t.records.size(); ++i) {
    EXPECT_EQ(back.records[i].at, t.records[i].at) << i;
    EXPECT_EQ(back.records[i].op, t.records[i].op) << i;
  }
  EXPECT_EQ(back.threads.size(), t.threads.size());
}

TEST(TraceSalvage, ChunkedBadChecksumDropsTail) {
  const Trace t = example_trace();
  std::vector<std::uint8_t> bytes = to_chunked(t, 4);  // several chunks
  bytes[bytes.size() - 2] ^= 0x01;  // corrupt the last chunk's payload
  EXPECT_THROW(from_chunked(bytes.data(), bytes.size()), Error);

  LoadReport report;
  const Trace back =
      from_chunked(bytes.data(), bytes.size(), salvage_opt(), &report);
  EXPECT_TRUE(report.salvaged);
  EXPECT_GE(report.chunks_loaded, 1u);
  EXPECT_GE(report.chunks_dropped, 1u);
  EXPECT_LT(back.records.size(), t.records.size());
  EXPECT_NO_THROW(back.validate());
}

TEST(TraceSalvage, ChunkedTruncatedMidChunkDropsTail) {
  const Trace t = example_trace();
  const std::vector<std::uint8_t> full = to_chunked(t, 4);
  const std::size_t cut = full.size() - 7;  // inside the last chunk
  LoadReport report;
  const Trace back = from_chunked(full.data(), cut, salvage_opt(), &report);
  EXPECT_TRUE(report.salvaged);
  EXPECT_LT(back.records.size(), t.records.size());
  EXPECT_NO_THROW(back.validate());
}

TEST(TraceSalvage, TextSalvageStopsAtBadLine) {
  const std::string text =
      "thread 1 main main 0 0\n"
      "rec 0 1 C start_collect none 0 0 0 0\n"
      "rec 5 1 C user_mark mark 0 0 0 0\n"
      "this line is garbage\n"
      "rec 9 1 C user_mark mark 0 0 0 0\n";
  EXPECT_THROW(from_text(text), Error);
  LoadReport report;
  const Trace back = from_text(text, salvage_opt(), &report);
  EXPECT_EQ(back.records.size(), 2u);
  EXPECT_TRUE(report.salvaged);
  EXPECT_EQ(report.records_dropped, 1u);  // the rec after the bad line
}

TEST(TraceSalvage, OpenCallTrimmed) {
  // A log that dies inside thr_join: salvage trims back to the last
  // point with no call in flight so the compiler accepts the result.
  const std::string text =
      "thread 1 main main 0 0\n"
      "rec 0 1 C start_collect none 0 0 0 0\n"
      "rec 5 1 C user_mark mark 0 0 0 0\n"
      "rec 9 1 C thr_join thread 1 0 0 0\n";
  LoadReport report;
  const Trace back = from_text(text, salvage_opt(), &report);
  EXPECT_EQ(back.records.size(), 2u);
  bool saw_trim = false;
  for (const auto& issue : report.issues)
    saw_trim |= issue.kind == IssueKind::kOpenCallTrimmed;
  EXPECT_TRUE(saw_trim);
}

TEST(TraceSalvage, LoadAnyFileSniffsAllFormats) {
  const Trace t = example_trace();
  const std::string dir = testing::TempDir();
  const std::string text_path = dir + "/sniff_text.log";
  const std::string bin_path = dir + "/sniff_bin.log";
  const std::string chunk_path = dir + "/sniff_chunk.log";
  save_file(t, text_path);
  save_binary_file(t, bin_path);
  {
    const std::vector<std::uint8_t> bytes = to_chunked(t);
    std::ofstream(chunk_path, std::ios::binary)
        .write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
  }
  for (const auto& p : {text_path, bin_path, chunk_path}) {
    const Trace back = load_any_file(p);
    EXPECT_EQ(back.records.size(), t.records.size()) << p;
  }
}

TEST(TraceSalvage, ReportSummaryMentionsCounts) {
  const Trace t = example_trace();
  const std::vector<std::uint8_t> full = to_binary(t);
  LoadReport report;
  (void)from_binary(full.data(), full.size() - 5, salvage_opt(), &report);
  const std::string s = report.summary();
  EXPECT_NE(s.find("recovered"), std::string::npos) << s;
}

// ---- the text reader, pinned input by input --------------------------------

// What the strict reader makes of `text`: the trace written back out,
// or the error it throws.
std::string strict_outcome(const std::string& text) {
  try {
    return to_text(from_text(text));
  } catch (const Error& e) {
    return std::string("error: ") + e.what();
  }
}

// What the salvaging reader reports for `text`.
std::string salvage_outcome(const std::string& text) {
  LoadReport report;
  (void)from_text(text, salvage_opt(), &report);
  return report.summary();
}

TEST(TextReader, EveryOutcomeIsPinned) {
  const std::string head = "thread 1 main main 0 0\n";
  const std::string head_out = "# vppb-trace v1\n" + head;
  const std::string start = "rec 0 1 C start_collect none 0 0 0 0\n";
  const std::string one_ok = "recovered 1 events, dropped 0; no issues";
  // A record whose arg field is `arg`, and what the writer makes of it.
  auto with_arg = [&](const std::string& arg) {
    return head + "rec 0 1 C start_collect none 0 " + arg + " 0 0\n";
  };
  auto arg_out = [&](const std::string& arg) {
    return head_out + "rec 0 1 C start_collect none 0 " + arg + " 0 0\n";
  };
  auto cut = [](const char* kind, int line, const char* why) {
    return strprintf(
        "recovered 0 events, dropped 0; 1 issue:\n  [%s @%d] %s — cut at "
        "record 0",
        kind, line, why);
  };
  struct Case {
    const char* name;
    std::string text;
    std::string strict;
    std::string salvage;
  };
  const std::vector<Case> cases = {
      // Each line error, with its line number.
      {"rec too short", head + "rec 0 1 C start_collect none 0 0 0\n",
       "error: trace line 2: rec needs 9 fields",
       cut("bad-field", 2, "rec needs 9 fields")},
      {"rec too long", head + "rec 0 1 C start_collect none 0 0 0 0 0\n",
       "error: trace line 2: rec needs 9 fields",
       cut("bad-field", 2, "rec needs 9 fields")},
      {"rec numbers", head + "rec 0 x C start_collect none 0 0 0 0\n",
       "error: trace line 2: bad rec numeric fields",
       cut("bad-field", 2, "bad rec numeric fields")},
      {"numbers before names", head + "rec 0 1 X no_op nothing 0 0 0 z\n",
       "error: trace line 2: bad rec numeric fields",
       cut("bad-field", 2, "bad rec numeric fields")},
      {"phase", head + "rec 0 1 X start_collect none 0 0 0 0\n",
       "error: trace line 2: phase must be C or R",
       cut("bad-field", 2, "phase must be C or R")},
      {"op", head + "rec 0 1 C no_such_op none 0 0 0 0\n",
       "error: trace line 2: unknown op",
       cut("unknown-event", 2, "unknown op")},
      {"op prefix", head + "rec 0 1 C thr_join_ none 0 0 0 0\n",
       "error: trace line 2: unknown op",
       cut("unknown-event", 2, "unknown op")},
      {"kind", head + "rec 0 1 C start_collect nothing 0 0 0 0\n",
       "error: trace line 2: unknown object kind",
       cut("unknown-event", 2, "unknown object kind")},
      {"directive", "meta clock virtual\n",
       "error: trace line 1: unknown directive",
       cut("unknown-event", 1, "unknown directive")},
      {"tab is no separator", head + "rec\t0 1 C start_collect none 0 0 0 0\n",
       "error: trace line 2: unknown directive",
       cut("unknown-event", 2, "unknown directive")},
      {"thread fields", "thread 1 main main 0\n",
       "error: trace line 1: thread needs 5 fields",
       cut("bad-field", 1, "thread needs 5 fields")},
      {"thread numbers", "thread 1 main main 0 x\n",
       "error: trace line 1: bad thread fields",
       cut("bad-field", 1, "bad thread fields")},
      {"loc fields", "loc 0 - 0\n", "error: trace line 1: loc needs 4 fields",
       cut("bad-field", 1, "loc needs 4 fields")},
      {"loc numbers", "loc 0 - x -\n", "error: trace line 1: bad loc fields",
       cut("bad-field", 1, "bad loc fields")},
      {"loc gap", "loc 0 - 0 -\nloc 2 f.cpp 3 f\n",
       "error: trace line 2: loc indices must be dense and in order",
       cut("bad-reference", 2, "loc indices must be dense and in order")},
      {"loc negative", "loc -1 - 0 -\n",
       "error: trace line 1: loc indices must be dense and in order",
       cut("bad-reference", 1, "loc indices must be dense and in order")},
      // The record check, which runs once every line is read.
      {"unknown thread", head + start + "rec 5 9 C user_mark mark 0 0 0 0\n",
       "error: text trace: record from unknown thread T9 (record 1)",
       "recovered 1 events, dropped 1; 1 issue:\n  [bad-reference @1] "
       "record from unknown thread T9 — cut at record 1"},
      {"time", head + "rec 9 1 C start_collect none 0 0 0 0\n"
                      "rec 5 1 C user_mark mark 0 0 0 0\n",
       "error: text trace: timestamp goes backwards (record 1)",
       "recovered 1 events, dropped 1; 1 issue:\n  [time-regression @1] "
       "timestamp goes backwards — cut at record 1"},
      {"location", head + "rec 0 1 C start_collect none 0 0 0 3\n",
       "error: text trace: location index 3 out of range (record 0)",
       "recovered 0 events, dropped 1; 1 issue:\n  [bad-reference @0] "
       "location index 3 out of range — cut at record 0"},
      {"unmatched return", head + "rec 0 1 R thr_join thread 2 0 0 0\n",
       "error: text trace: unmatched return of thr_join by T1 (record 0)",
       "recovered 0 events, dropped 1; 1 issue:\n  [unmatched-call @0] "
       "unmatched return of thr_join by T1 — cut at record 0"},
      {"second call", head + "rec 0 1 C thr_join thread 2 0 0 0\n"
                             "rec 1 1 C mtx_lock mutex 0 0 0 0\n",
       "error: text trace: T1 opens a second call (record 1)",
       "recovered 0 events, dropped 2; 2 issues:\n  [unmatched-call @1] T1 "
       "opens a second call — cut at record 1\n  [open-call-trimmed @0] "
       "trimmed 1 trailing record left inside an open call"},
      // Numbers.
      {"plus sign", head + "rec +5 1 C start_collect none 0 0 0 0\n",
       head_out + "rec 5 1 C start_collect none 0 0 0 0\n", one_ok},
      {"tab before digits", head + "rec \t5 1 C start_collect none 0 0 0 0\n",
       head_out + "rec 5 1 C start_collect none 0 0 0 0\n", one_ok},
      {"tab after digits", head + "rec 5\t 1 C start_collect none 0 0 0 0\n",
       "error: trace line 2: bad rec numeric fields",
       cut("bad-field", 2, "bad rec numeric fields")},
      {"sign alone", with_arg("+"),
       "error: trace line 2: bad rec numeric fields",
       cut("bad-field", 2, "bad rec numeric fields")},
      {"hex", with_arg("0x1F"), "error: trace line 2: bad rec numeric fields",
       cut("bad-field", 2, "bad rec numeric fields")},
      {"minus zero", with_arg("-0"), arg_out("0"), one_ok},
      {"int64 min", with_arg("-9223372036854775808"),
       arg_out("-9223372036854775808"), one_ok},
      {"int64 max", with_arg("9223372036854775807"),
       arg_out("9223372036854775807"), one_ok},
      {"past int64 min", with_arg("-9223372036854775809"),
       "error: trace line 2: bad rec numeric fields",
       cut("bad-field", 2, "bad rec numeric fields")},
      {"past int64 max", with_arg("9223372036854775808"),
       "error: trace line 2: bad rec numeric fields",
       cut("bad-field", 2, "bad rec numeric fields")},
      {"63 characters", with_arg(std::string(62, '0') + "7"), arg_out("7"),
       one_ok},
      {"64 characters", with_arg(std::string(63, '0') + "7"),
       "error: trace line 2: bad rec numeric fields",
       cut("bad-field", 2, "bad rec numeric fields")},
      // Lines.
      {"crlf", "thread 1 main main 0 0\r\n"
               "rec 0 1 C start_collect none 0 0 0 0\r\n",
       head_out + start, one_ok},
      {"runs of spaces", "thread  1 main   main 0 0 \n"
                         "rec 0  1 C   start_collect none 0 0 0 0   \n",
       head_out + start, one_ok},
      {"comments and blank lines count",
       "# c\n\n   \t\n  # indented\n" + head +
           "rec x 1 C start_collect none 0 0 0 0\n",
       "error: trace line 6: bad rec numeric fields",
       cut("bad-field", 6, "bad rec numeric fields")},
      {"no final newline", head + "rec 0 1 C start_collect none 0 0 0 0",
       head_out + start, one_ok},
      {"empty", "", "# vppb-trace v1\n",
       "recovered 0 events, dropped 0; no issues"},
      {"forward references",
       "rec 0 1 C start_collect none 0 0 0 1\nthread 1 main main 0 0\n"
       "loc 0 - 0 -\nloc 1 f.cpp 3 f\n",
       head_out + "loc 0 - 0 -\nloc 1 f.cpp 3 f\n"
                  "rec 0 1 C start_collect none 0 0 0 1\n",
       one_ok},
      {"thread upsert",
       "thread 1 a a 0 0\nthread 2 b%20c void%20f(int) 1 5\nthread 1 - - 0 0\n",
       "# vppb-trace v1\nthread 1 - - 0 0\nthread 2 b%20c void%20f(int) 1 5\n",
       "recovered 0 events, dropped 0; no issues"},
      // Salvage: the cut point and the census of what it dropped.
      {"cut and census",
       head + start + "rec 5 1 C user_mark mark 0 0 0 0\n"
           "this line is garbage\n# comment after the cut\n"
           "rec 9 1 C user_mark mark 0 0 0 0\n"
           "rec\t10 1 C user_mark mark 0 0 0 0\n"
           "  rec 11 1 C user_mark mark 0 0 0 0\n"
           "thread 2 x x 0 0\n",
       "error: trace line 4: unknown directive",
       "recovered 2 events, dropped 2; 1 issue:\n  [unknown-event @4] "
       "unknown directive — cut at record 2"},
      {"cut then check",
       head + start + "rec 5 9 C user_mark mark 0 0 0 0\nbad\n" +
           "rec 9 1 C user_mark mark 0 0 0 0\n",
       "error: trace line 4: unknown directive",
       "recovered 1 events, dropped 2; 2 issues:\n  [unknown-event @4] "
       "unknown directive — cut at record 2\n  [bad-reference @1] record "
       "from unknown thread T9 — cut at record 1"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(strict_outcome(c.text), c.strict);
    EXPECT_EQ(salvage_outcome(c.text), c.salvage);
  }
}

// ---- semantic lint ---------------------------------------------------------

TEST(LintTest, CleanTraceIsClean) {
  const LintReport report = lint(example_trace());
  EXPECT_TRUE(report.clean()) << report.to_string();
}

TEST(LintTest, BarrierCondWaitPatternIsClean) {
  // The SPLASH barrier shape: lock, cond_wait (the library releases and
  // reacquires the mutex), unlock.  The mutex id rides only on the
  // *call* record's arg — the return's arg is 0 — so the linter must
  // pair the edges per thread or it reports a bogus unlock-without-lock
  // on every barrier exit (a real bug this test pins).  A timed wait
  // carries its mutex in the same field.
  for (const Op wait : {Op::kCondWait, Op::kCondTimedwait}) {
    SCOPED_TRACE(std::string(op_name(wait)));
    Trace t;
    t.upsert_thread(1).name = t.strings.intern("main");
    t.records.push_back(rec(0, 1, Phase::kCall, Op::kStartCollect));
    t.records.push_back(
        rec(5, 1, Phase::kCall, Op::kMutexLock, {ObjKind::kMutex, 7}));
    t.records.push_back(
        rec(6, 1, Phase::kReturn, Op::kMutexLock, {ObjKind::kMutex, 7}));
    t.records.push_back(
        rec(7, 1, Phase::kCall, wait, {ObjKind::kCond, 3}, 7));
    t.records.push_back(
        rec(20, 1, Phase::kReturn, wait, {ObjKind::kCond, 3}));
    t.records.push_back(
        rec(21, 1, Phase::kCall, Op::kMutexUnlock, {ObjKind::kMutex, 7}));
    t.records.push_back(
        rec(22, 1, Phase::kReturn, Op::kMutexUnlock, {ObjKind::kMutex, 7}));
    const LintReport report = lint(t);
    EXPECT_TRUE(report.clean()) << report.to_string();
  }
}

TEST(LintTest, UnlockWithoutLockIsAnError) {
  Trace t;
  t.upsert_thread(1).name = t.strings.intern("main");
  t.records.push_back(
      rec(5, 1, Phase::kCall, Op::kMutexUnlock, {ObjKind::kMutex, 7}));
  const LintReport report = lint(t);
  EXPECT_EQ(report.errors, 1u) << report.to_string();
  EXPECT_NE(report.to_string().find("not held"), std::string::npos);
}

TEST(LintTest, UnlockByOtherThreadIsAWarning) {
  Trace t;
  t.upsert_thread(1);
  t.upsert_thread(4);
  t.records.push_back(
      rec(5, 1, Phase::kCall, Op::kMutexLock, {ObjKind::kMutex, 7}));
  t.records.push_back(
      rec(6, 1, Phase::kReturn, Op::kMutexLock, {ObjKind::kMutex, 7}));
  t.records.push_back(
      rec(9, 4, Phase::kCall, Op::kMutexUnlock, {ObjKind::kMutex, 7}));
  const LintReport report = lint(t);
  EXPECT_EQ(report.errors, 0u) << report.to_string();
  EXPECT_EQ(report.warnings, 1u) << report.to_string();
}

TEST(LintTest, NegativeSemaphoreCountIsAnError) {
  Trace t;
  t.upsert_thread(1);
  t.records.push_back(
      rec(1, 1, Phase::kCall, Op::kSemaInit, {ObjKind::kSema, 2}, 1));
  t.records.push_back(
      rec(2, 1, Phase::kCall, Op::kSemaWait, {ObjKind::kSema, 2}));
  t.records.push_back(
      rec(3, 1, Phase::kReturn, Op::kSemaWait, {ObjKind::kSema, 2}));
  t.records.push_back(
      rec(4, 1, Phase::kCall, Op::kSemaWait, {ObjKind::kSema, 2}));
  t.records.push_back(
      rec(5, 1, Phase::kReturn, Op::kSemaWait, {ObjKind::kSema, 2}));
  const LintReport report = lint(t);
  EXPECT_EQ(report.errors, 1u) << report.to_string();
  EXPECT_NE(report.to_string().find("driven to -1"), std::string::npos);
}

TEST(LintTest, JoinFindingsAreTyped) {
  Trace t;
  t.upsert_thread(1);
  t.records.push_back(
      rec(1, 1, Phase::kCall, Op::kThrJoin, {ObjKind::kThread, 42}));
  t.records.push_back(
      rec(2, 1, Phase::kCall, Op::kThrJoin, {ObjKind::kThread, 1}));
  const LintReport report = lint(t);
  EXPECT_EQ(report.errors, 2u) << report.to_string();
  EXPECT_NE(report.to_string().find("unknown thread 42"), std::string::npos);
  EXPECT_NE(report.to_string().find("joins itself"), std::string::npos);
}

TEST(LintTest, NonMonotonicTimestampIsAnError) {
  Trace t;
  t.upsert_thread(1);
  t.records.push_back(rec(10, 1, Phase::kCall, Op::kThrYield));
  t.records.push_back(rec(5, 1, Phase::kCall, Op::kThrYield));
  const LintReport report = lint(t);
  EXPECT_EQ(report.errors, 1u) << report.to_string();
  EXPECT_NE(report.to_string().find("goes backwards"), std::string::npos);
}

}  // namespace
}  // namespace vppb::trace
