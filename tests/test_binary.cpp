// Tests for the compact binary trace format.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <string>

#include "recorder/recorder.hpp"
#include "solaris/program.hpp"
#include "trace/binary.hpp"
#include "trace/chunked.hpp"
#include "trace/io.hpp"
#include "util/error.hpp"
#include "workloads/prodcons.hpp"
#include "workloads/splash.hpp"

namespace vppb::trace {
namespace {

Trace sample_trace() {
  workloads::ProdConsParams p;
  p.producers = 10;
  p.consumers = 5;
  sol::Program program;
  return rec::record_program(program,
                             [&p]() { workloads::prodcons_tuned(p); });
}

TEST(BinaryTrace, RoundTripIsExact) {
  const Trace t = sample_trace();
  const Trace back = from_binary(to_binary(t));
  ASSERT_EQ(back.records.size(), t.records.size());
  // The text rendering is the canonical equality check: identical text
  // means identical semantic content.
  EXPECT_EQ(to_text(back), to_text(t));
}

TEST(BinaryTrace, SubstantiallySmallerThanText) {
  const Trace t = sample_trace();
  const std::size_t text_size = to_text(t).size();
  const std::size_t bin_size = to_binary(t).size();
  EXPECT_LT(bin_size * 3, text_size)
      << "binary " << bin_size << " vs text " << text_size;
}

TEST(BinaryTrace, FileRoundTripAndSniffing) {
  const Trace t = sample_trace();
  const std::string bin_path = testing::TempDir() + "/vppb_bin.trace";
  const std::string txt_path = testing::TempDir() + "/vppb_txt.trace";
  save_binary_file(t, bin_path);
  save_file(t, txt_path);
  // load_any_file accepts both formats transparently.
  EXPECT_EQ(to_text(load_any_file(bin_path)), to_text(t));
  EXPECT_EQ(to_text(load_any_file(txt_path)), to_text(t));
}

TEST(BinaryTrace, RejectsCorruption) {
  const Trace t = sample_trace();
  std::vector<std::uint8_t> bytes = to_binary(t);
  // Bad magic.
  {
    auto bad = bytes;
    bad[0] = 'X';
    EXPECT_THROW(from_binary(bad), Error);
  }
  // Bad version.
  {
    auto bad = bytes;
    bad[4] = 99;
    EXPECT_THROW(from_binary(bad), Error);
  }
  // Truncations at various points must throw, never crash or misparse.
  for (std::size_t cut : {bytes.size() / 4, bytes.size() / 2,
                          bytes.size() - 3}) {
    EXPECT_THROW(from_binary(bytes.data(), cut), Error) << cut;
  }
  // Trailing garbage.
  {
    auto bad = bytes;
    bad.push_back(0x01);
    EXPECT_THROW(from_binary(bad), Error);
  }
}

TEST(BinaryTrace, EmptyTraceRoundTrips) {
  Trace t;
  const Trace back = from_binary(to_binary(t));
  EXPECT_TRUE(back.records.empty());
  EXPECT_TRUE(back.threads.empty());
}

TEST(BinaryTrace, LargeTimestampsSurvive) {
  Trace t;
  t.upsert_thread(1);
  Record r;
  r.tid = 1;
  r.op = Op::kStartCollect;
  r.at = SimTime::seconds(86400.0 * 365);  // a year of nanoseconds
  t.records.push_back(r);
  const Trace back = from_binary(to_binary(t));
  EXPECT_EQ(back.records.at(0).at, r.at);
}

/// A fixed trace that sets every field of every entry: two threads (one
/// bound, at a negative priority), two source locations, negative
/// arguments and a gap of several seconds between two records.
Trace pinned_trace() {
  Trace t;
  t.upsert_thread(1).name = t.strings.intern("main");
  {
    ThreadMeta& w = t.upsert_thread(7);
    w.name = t.strings.intern("worker");
    w.start_func = t.strings.intern("void work(int)");
    w.bound = true;
    w.initial_priority = -3;
  }
  const std::uint32_t at_main = t.add_location("main.cpp", 12, "main");
  const std::uint32_t at_work = t.add_location("work.cpp", 40, "work");
  auto rec = [&t](std::int64_t ns, ThreadId tid, Phase phase, Op op,
                  ObjKind kind, std::uint32_t id, std::int64_t arg,
                  std::int64_t arg2, std::uint32_t loc) {
    Record r;
    r.at = SimTime::nanos(ns);
    r.tid = tid;
    r.phase = phase;
    r.op = op;
    r.obj.kind = kind;
    r.obj.id = id;
    r.arg = arg;
    r.arg2 = arg2;
    r.loc = loc;
    t.records.push_back(r);
  };
  const Phase C = Phase::kCall, R = Phase::kReturn;
  rec(0, 1, C, Op::kStartCollect, ObjKind::kNone, 0, 0, 0, 0);
  rec(1000, 1, C, Op::kThrCreate, ObjKind::kThread, 7, 64, 0, at_main);
  rec(1500, 1, R, Op::kThrCreate, ObjKind::kThread, 7, 64, 0, at_main);
  rec(2000, 7, C, Op::kMutexLock, ObjKind::kMutex, 3, 0, 0, at_work);
  rec(2250, 7, R, Op::kMutexLock, ObjKind::kMutex, 3, 0, 0, at_work);
  rec(3'000'002'250, 7, C, Op::kUserMark, ObjKind::kMark, 5, -123456789,
      -42, at_work);
  rec(3'000'003'000, 7, C, Op::kThrExit, ObjKind::kThread, 7, 0, 0, 0);
  rec(3'000'004'000, 1, C, Op::kThrJoin, ObjKind::kThread, 7, -1, 0, at_main);
  rec(3'000'005'000, 1, R, Op::kThrJoin, ObjKind::kThread, 7, 7, 0, at_main);
  rec(3'000'006'000, 1, C, Op::kEndCollect, ObjKind::kNone, 0, 0, 0, 0);
  return t;
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(BinaryTrace, BinaryAndChunkedBytesArePinnedAtV1) {
  const Trace t = pinned_trace();
  t.validate();
  const std::vector<std::uint8_t> binary = to_binary(t);
  const std::vector<std::uint8_t> chunked = to_chunked(t);
  const std::vector<std::uint8_t> chunked2 = to_chunked(t, 2);
  EXPECT_EQ(binary.size(), 185u);
  EXPECT_EQ(fnv1a(binary), 0xd013f24b2f931169ULL);
  EXPECT_EQ(chunked.size(), 222u);
  EXPECT_EQ(fnv1a(chunked), 0x7147bb29bb6cdde9ULL);
  EXPECT_EQ(chunked2.size(), 302u);
  EXPECT_EQ(fnv1a(chunked2), 0x8af12cec2fc5ff96ULL);
  // Each decodes back to the same trace.
  EXPECT_EQ(to_binary(from_binary(binary)), binary);
  EXPECT_EQ(to_binary(from_chunked(chunked.data(), chunked.size())), binary);
  EXPECT_EQ(to_binary(from_chunked(chunked2.data(), chunked2.size())),
            binary);
}

TEST(BinaryTrace, SplashLogCompressionRatioReported) {
  sol::Program program;
  const Trace t = rec::record_program(program, []() {
    workloads::ocean(workloads::SplashParams{8, 0.05});
  });
  const double ratio = static_cast<double>(to_text(t).size()) /
                       static_cast<double>(to_binary(t).size());
  EXPECT_GT(ratio, 3.0) << "varint+delta encoding should win >3x";
}

TEST(BinaryTrace, ThreadReadsPerRecordAreFlatInTheThreadCount) {
  // The loaders' cost-slope gate as an exact count, free of host noise:
  // the thread-table entries and index slots the record check reads per
  // record must not grow with the number of threads.  The same Ocean
  // program at 16 and 1,024 threads, loaded as text, binary and
  // chunked; the per-record figure may at most double.
  const char* const formats[] = {"text", "binary", "chunked"};
  auto reads_per_record = [&formats](int threads) {
    sol::Program program;
    const Trace t = rec::record_program(program, [threads]() {
      workloads::ocean(workloads::SplashParams{threads, 0.25});
    });
    const std::string text = to_text(t);
    const std::vector<std::uint8_t> files[] = {
        {text.begin(), text.end()}, to_binary(t), to_chunked(t)};
    std::map<std::string, double> per_record;
    for (std::size_t i = 0; i < std::size(files); ++i) {
      LoadReport report;
      const Trace back =
          from_any(files[i].data(), files[i].size(), LoadOptions{}, &report);
      EXPECT_EQ(back.records.size(), t.records.size()) << formats[i];
      per_record[formats[i]] = static_cast<double>(report.thread_reads) /
                               static_cast<double>(back.records.size());
    }
    return per_record;
  };
  const std::map<std::string, double> small = reads_per_record(16);
  const std::map<std::string, double> large = reads_per_record(1024);
  for (const char* format : formats)
    EXPECT_LE(large.at(format), 2.0 * small.at(format))
        << format << ": 16 threads: " << small.at(format)
        << " reads per record, 1,024 threads: " << large.at(format);
}

}  // namespace
}  // namespace vppb::trace
