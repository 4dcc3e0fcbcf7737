// Unit tests for src/util: time arithmetic, parsing, flags, stats, rng,
// the sweep thread pool and atomic file replacement.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/atomic_file.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/time.hpp"

namespace vppb {
namespace {

TEST(SimTime, ConstructionAndConversion) {
  EXPECT_EQ(SimTime::micros(5).ns(), 5000);
  EXPECT_EQ(SimTime::millis(2).us(), 2000);
  EXPECT_DOUBLE_EQ(SimTime::seconds(1.5).seconds_d(), 1.5);
  EXPECT_TRUE(SimTime::zero().is_zero());
}

TEST(SimTime, Arithmetic) {
  const SimTime a = SimTime::micros(10);
  const SimTime b = SimTime::micros(4);
  EXPECT_EQ((a + b).us(), 14);
  EXPECT_EQ((a - b).us(), 6);
  EXPECT_EQ((a * 3).us(), 30);
  EXPECT_EQ(a / b, 2);
  EXPECT_LT(b, a);
  EXPECT_EQ(a.scaled(0.5).us(), 5);
}

TEST(SimTime, Formatting) {
  EXPECT_EQ(SimTime::nanos(12).to_string(), "12ns");
  EXPECT_EQ(SimTime::micros(3).to_string(), "3.000us");
  EXPECT_EQ(SimTime::millis(4).to_string(), "4.000ms");
  EXPECT_EQ(SimTime::seconds(2.5).to_string(), "2.500s");
}

TEST(Strings, Split) {
  const auto f = split("a b  c", ' ');
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[2], "c");
  EXPECT_EQ(split("a,,b", ',', /*keep_empty=*/true).size(), 3u);
  EXPECT_TRUE(split("", ' ').empty());
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x \t\n"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(Strings, ParseI64) {
  std::int64_t v = 0;
  EXPECT_TRUE(parse_i64("-42", v));
  EXPECT_EQ(v, -42);
  EXPECT_FALSE(parse_i64("12x", v));
  EXPECT_FALSE(parse_i64("", v));
  EXPECT_TRUE(parse_i64("9223372036854775807", v));
  EXPECT_FALSE(parse_i64("9223372036854775808", v));
}

TEST(Strings, ParseI64AcceptsExactlyWhatStrtollAccepts) {
  // The inputs a strtoll-based parser accepts, and no others: leading
  // C-locale whitespace, one sign, decimal digits, no overflow, fewer
  // than 64 characters, and nothing after the digits but a NUL.
  struct Case {
    std::string in;
    bool ok;
    std::int64_t value;
  };
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  const Case cases[] = {
      {"0", true, 0},
      {"+5", true, 5},
      {"-0", true, 0},
      {"\t5", true, 5},
      {" \n\v\f\r7", true, 7},
      {"007", true, 7},
      {"-9223372036854775808", true, min},
      {"9223372036854775807", true, max},
      {"-00000000000000000000009223372036854775808", true, min},
      {"-9223372036854775809", false, 0},
      {"9223372036854775808", false, 0},
      {"18446744073709551616", false, 0},
      {"99999999999999999999999", false, 0},
      {std::string(62, '0') + "7", true, 7},
      {std::string(63, '0') + "7", false, 0},
      {std::string(63, ' ') + "7", false, 0},
      {"", false, 0},
      {"+", false, 0},
      {"-", false, 0},
      {" ", false, 0},
      {"+-5", false, 0},
      {"- 5", false, 0},
      {"5 ", false, 0},
      {"5\t", false, 0},
      {"0x10", false, 0},
      {"1e3", false, 0},
      {std::string("12\0x", 4), true, 12},
      {std::string("\0" "5", 2), false, 0},
      {std::string(" \0" "5", 3), false, 0},
  };
  for (const Case& c : cases) {
    std::int64_t v = -1;
    EXPECT_EQ(parse_i64(c.in, v), c.ok) << '"' << c.in << '"';
    if (c.ok) {
      EXPECT_EQ(v, c.value) << '"' << c.in << '"';
    }
  }
}

TEST(Strings, ParseDouble) {
  double d = 0;
  EXPECT_TRUE(parse_double("2.5e3", d));
  EXPECT_DOUBLE_EQ(d, 2500.0);
  EXPECT_FALSE(parse_double("abc", d));
}

TEST(Flags, ParseAllKinds) {
  Flags flags;
  flags.define_i64("cpus", 1, "processor count");
  flags.define_double("delay", 0.5, "comm delay");
  flags.define_bool("verbose", false, "chatty");
  flags.define_string("out", "x.svg", "output file");
  const char* argv[] = {"prog",      "--cpus=8", "--delay", "1.25",
                        "--verbose", "--out",    "y.svg",   "pos1"};
  flags.parse(8, argv);
  EXPECT_EQ(flags.i64("cpus"), 8);
  EXPECT_DOUBLE_EQ(flags.dbl("delay"), 1.25);
  EXPECT_TRUE(flags.boolean("verbose"));
  EXPECT_EQ(flags.str("out"), "y.svg");
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "pos1");
}

TEST(Flags, NegatedBoolAndErrors) {
  Flags flags;
  flags.define_bool("record", true, "record");
  const char* argv[] = {"prog", "--no-record"};
  flags.parse(2, argv);
  EXPECT_FALSE(flags.boolean("record"));

  Flags bad;
  const char* argv2[] = {"prog", "--nope"};
  EXPECT_THROW(bad.parse(2, argv2), Error);
}

TEST(Flags, MalformedValueThrows) {
  Flags flags;
  flags.define_i64("n", 0, "count");
  const char* argv[] = {"prog", "--n=abc"};
  EXPECT_THROW(flags.parse(2, argv), Error);
}

TEST(Stats, AccumulatorMoments) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_THROW(median({}), Error);
}

TEST(Stats, PredictionErrorMatchesPaperDefinition) {
  // Paper: error = (real - predicted) / real; Ocean 8p: (6.65-6.24)/6.65.
  EXPECT_NEAR(prediction_error(6.65, 6.24), 0.0617, 1e-4);
  EXPECT_DOUBLE_EQ(prediction_error(2.0, 2.0), 0.0);
}

TEST(Stats, HistogramClampsOutOfRange) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);
  h.add(3.0);
  h.add(99.0, 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_weight(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_weight(1), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_weight(4), 2.0);
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
    const auto n = r.below(10);
    EXPECT_LT(n, 10u);
  }
}

TEST(Rng, GaussianMoments) {
  Rng r(42);
  Accumulator acc;
  for (int i = 0; i < 20000; ++i) acc.add(r.gaussian(10.0, 2.0));
  EXPECT_NEAR(acc.mean(), 10.0, 0.1);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.1);
}

TEST(Rng, JitterFactorBoundedAndCentered) {
  Rng r(5);
  Accumulator acc;
  for (int i = 0; i < 5000; ++i) {
    const double f = r.jitter_factor(0.02);
    EXPECT_GE(f, 1.0 - 0.08);
    EXPECT_LE(f, 1.0 + 0.08);
    acc.add(f);
  }
  EXPECT_NEAR(acc.mean(), 1.0, 0.01);
  EXPECT_DOUBLE_EQ(r.jitter_factor(0.0), 1.0);
}

TEST(Rng, JitterBackoffScheduleIsPinned) {
  // Seed 1, as a client retry starts (prev = base, 10..2000 ms) and as a
  // probe or restart backoff starts (prev = 0, 25..1000 ms).  Every
  // retry sleep, re-probe and crash-loop restart replays these values.
  const std::int64_t want_retry[16] = {29, 39, 29,  73, 78, 131, 139, 167,
                                       42, 33, 28,  32, 50, 84,  125, 13};
  const std::int64_t want_probe[16] = {25,  39,  95,  256, 489, 226,
                                       664, 374, 369, 414, 919, 741,
                                       889, 824, 586, 394};
  std::uint64_t retry_rng = 1, probe_rng = 1;
  std::int64_t retry = 10, probe = 0;
  for (int i = 0; i < 16; ++i) {
    retry = jitter_backoff_ms(retry, 10, 2000, retry_rng);
    probe = jitter_backoff_ms(probe, 25, 1000, probe_rng);
    EXPECT_EQ(retry, want_retry[i]) << i;
    EXPECT_EQ(probe, want_probe[i]) << i;
  }
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t;
  t.header({"App", "Speed-up"});
  t.row({"Ocean", "6.24"});
  t.row({"FFT", "2.61"});
  const std::string s = t.render();
  EXPECT_NE(s.find("App   | Speed-up"), std::string::npos);
  EXPECT_NE(s.find("------+---------"), std::string::npos);
  EXPECT_NE(s.find("Ocean | 6.24"), std::string::npos);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  util::ThreadPool pool(3);
  EXPECT_EQ(pool.workers(), 3);
  std::vector<std::atomic<int>> hits(101);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ReusableAcrossCallsAndEmptyLoop) {
  util::ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(0, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 0);
  for (int round = 0; round < 5; ++round)
    pool.parallel_for(17, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 5 * 17);
}

TEST(ThreadPool, PropagatesTheFirstException) {
  util::ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(8,
                                 [](std::size_t i) {
                                   if (i == 3) throw Error("boom");
                                 }),
               Error);
  // The pool stays usable after a throwing loop.
  std::atomic<int> total{0};
  pool.parallel_for(4, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 4);
}

/// Opened once by the test; a posted task waiting on it holds its worker.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;

  void wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return open; });
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
};

TEST(ThreadPool, SingleJobRunsInlineInOrder) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.workers(), 1);
  Gate hold;
  pool.post([&hold] { hold.wait(); });  // the only worker is held
  std::vector<std::size_t> order;
  pool.parallel_for(6, [&](std::size_t i) { order.push_back(i); });
  hold.release();
  std::vector<std::size_t> expect(6);
  std::iota(expect.begin(), expect.end(), 0u);
  EXPECT_EQ(order, expect) << "no free worker -> inline, sequential";
}

TEST(ThreadPool, ParallelForInAPostedTaskCompletesOnItsCallerWhenWorkersAreBusy) {
  util::ThreadPool pool(2);
  Gate hold;
  pool.post([&hold] { hold.wait(); });  // one worker is held...
  struct Ran {
    std::thread::id caller;
    std::vector<std::thread::id> by_index;
  };
  std::promise<Ran> ran;
  pool.post([&pool, &ran] {  // ...the other runs this task
    Ran r{std::this_thread::get_id(), std::vector<std::thread::id>(16)};
    pool.parallel_for(r.by_index.size(), [&r](std::size_t i) {
      r.by_index[i] = std::this_thread::get_id();
    });
    ran.set_value(std::move(r));
  });
  std::future<Ran> done = ran.get_future();
  const bool finished =
      done.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  hold.release();  // whatever happened, let the pool drain
  ASSERT_TRUE(finished) << "parallel_for waited for a busy worker";
  const Ran r = done.get();
  for (std::size_t i = 0; i < r.by_index.size(); ++i)
    EXPECT_EQ(r.by_index[i], r.caller) << "index " << i;
}

TEST(ThreadPool, TheCallerRunsIndexZero) {
  util::ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::thread::id> by_index(4);
    pool.parallel_for(by_index.size(), [&by_index](std::size_t i) {
      by_index[i] = std::this_thread::get_id();
    });
    EXPECT_EQ(by_index[0], std::this_thread::get_id()) << "round " << round;
  }
}

TEST(ThreadPool, ConcurrentCallsEachSeeEveryIndexExactlyOnce) {
  util::ThreadPool pool(3);
  constexpr int kRounds = 50;
  const auto loop = [&pool](std::vector<std::atomic<int>>& hits) {
    for (int round = 0; round < kRounds; ++round) {
      pool.parallel_for(hits.size(), [&hits](std::size_t i) {
        std::this_thread::yield();  // keep the two loops overlapping
        ++hits[i];
      });
    }
  };
  std::vector<std::atomic<int>> mine(257), theirs(131);
  std::thread other([&] { loop(theirs); });
  loop(mine);
  other.join();
  for (std::size_t i = 0; i < mine.size(); ++i)
    EXPECT_EQ(mine[i].load(), kRounds) << "index " << i;
  for (std::size_t i = 0; i < theirs.size(); ++i)
    EXPECT_EQ(theirs[i].load(), kRounds) << "index " << i;
}

TEST(ThreadPool, AHelperSliceStartingAfterItsLoopReturnedNeverCallsFn) {
  util::ThreadPool pool(1);
  Gate hold;
  pool.post([&hold] { hold.wait(); });  // the only worker is held
  std::atomic<int> calls{0};
  {
    const std::function<void(std::size_t)> fn = [&calls](std::size_t) {
      ++calls;
    };
    pool.parallel_for(8, fn);  // its helper slice queues behind `hold`
  }  // fn is destroyed before the slice starts
  EXPECT_EQ(calls.load(), 8);
  hold.release();
  std::promise<void> drained;
  pool.post([&drained] { drained.set_value(); });  // FIFO: after the slice
  drained.get_future().wait();
  EXPECT_EQ(calls.load(), 8);
}

TEST(ThreadPool, ResolveJobs) {
  EXPECT_GE(util::ThreadPool::resolve_jobs(0), 1);
  EXPECT_EQ(util::ThreadPool::resolve_jobs(5), 5);
  EXPECT_GE(util::ThreadPool::resolve_jobs(-3), 1);
}

// The reference the table-driven CRC is checked against: one bit at a
// time, straight from the polynomial.
std::uint32_t crc32_bitwise(const std::uint8_t* p, std::size_t n) {
  std::uint32_t c = ~0u;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

std::vector<std::uint8_t> noise(std::size_t n) {
  Rng r(99);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(r.next_u64());
  return out;
}

TEST(Crc32, KnownAnswer) {
  EXPECT_EQ(util::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(util::crc32("", 0), 0u);
  // Continuing a running CRC equals one pass over the whole.
  EXPECT_EQ(util::crc32("56789", 5, util::crc32("1234", 4)), 0xCBF43926u);
}

TEST(Crc32, SliceBy8MatchesBitwiseAtEveryLengthAndOffset) {
  const std::vector<std::uint8_t> bytes = noise((1u << 20) + 8);
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t len = 0; len <= 64; ++len)
      ASSERT_EQ(util::crc32(bytes.data() + offset, len),
                crc32_bitwise(bytes.data() + offset, len))
          << "offset " << offset << ", length " << len;
  EXPECT_EQ(util::crc32(bytes.data() + 3, 1u << 20),
            crc32_bitwise(bytes.data() + 3, 1u << 20));
}

TEST(Crc32, CombineEqualsOnePassOverTheConcatenation) {
  const std::vector<std::uint8_t> bytes = noise(70000);
  const std::size_t splits[][2] = {{0, 0},     {0, 9},      {9, 0},
                                   {1, 1},     {7, 64},     {64, 7},
                                   {1000, 1},  {3, 65536},  {69999, 1},
                                   {5, 69995}, {35000, 35000}};
  for (const auto& [len_a, len_b] : splits) {
    const std::uint8_t* a = bytes.data();
    const std::uint8_t* b = a + len_a;
    EXPECT_EQ(util::crc32_combine(util::crc32(a, len_a),
                                  util::crc32(b, len_b), len_b),
              util::crc32(a, len_a + len_b))
        << len_a << " + " << len_b;
  }
}

/// A fresh, empty directory under the system temp dir; removed with
/// everything in it on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() /
              ("vppb_util_" + tag + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directory(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

std::string read_all(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(AtomicFile, ReplacesTheTargetWhole) {
  TempDir dir("replace");
  const std::string target = (dir.path() / "out.json").string();
  util::atomic_write_file(target, std::string(4096, 'a'));
  ASSERT_EQ(read_all(target), std::string(4096, 'a'));
  // A shorter body replaces the file; no tail of the old one survives.
  util::atomic_write_file(target, std::string("{}\n"));
  EXPECT_EQ(read_all(target), "{}\n");
  util::atomic_write_file(target, std::vector<std::uint8_t>{1, 0, 2});
  EXPECT_EQ(read_all(target), std::string("\x01\x00\x02", 3));
}

TEST(AtomicFile, LeavesNoTempFileBehind) {
  TempDir dir("no_tmp");
  const std::string target = (dir.path() / "trace.vpp").string();
  util::atomic_write_file(target, std::string("first"));
  util::atomic_write_file(target, std::string("second"));
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path()))
    names.push_back(entry.path().filename().string());
  EXPECT_EQ(names, std::vector<std::string>{"trace.vpp"})
      << "a .tmp.<pid> file outlived its rename";
}

TEST(AtomicFile, MissingDirectoryThrowsNamingThePath) {
  TempDir dir("missing");
  const std::string target = (dir.path() / "no_such_dir" / "out.svg").string();
  try {
    util::atomic_write_file(target, std::string("never written"));
    FAIL() << "writing into a missing directory did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(target), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(std::filesystem::exists(dir.path() / "no_such_dir"));
}

TEST(Error, CheckMacroThrows) {
  EXPECT_THROW(VPPB_CHECK(1 == 2), Error);
  EXPECT_NO_THROW(VPPB_CHECK(1 == 1));
  try {
    VPPB_CHECK_MSG(false, "context " << 42);
    FAIL();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

}  // namespace
}  // namespace vppb
