// Resource-governance tests (`ctest -L guard`): RunGuard budget trips
// are typed and prompt, cancellation drains cleanly, an attached but
// unlimited guard is digest-invisible, the TraceCache charges the real
// compiled footprint and quarantines poison traces, the vppbd watchdog
// rescues stuck requests, each limit (deadline or wall ceiling) trips
// typed on every path the watchdog and the handlers catch it, and the
// client's retry backoff respects the request deadline budget.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/guard.hpp"
#include "core/sweep.hpp"
#include "golden_cases.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "server/trace_cache.hpp"
#include "trace/binary.hpp"
#include "trace/io.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"
#include "workloads/synthetic.hpp"

namespace vppb {
namespace {

using core::BudgetExceeded;
using core::CompiledTrace;
using core::GuardTrip;
using core::RunGuard;
using core::RunLimits;
using core::SimConfig;

/// A fresh path under the system temp dir; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& tag) {
    static std::atomic<int> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("vppb_" + tag + "_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter.fetch_add(1))))
                .string();
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

CompiledTrace small_compiled() {
  return core::record_compiled(
      [] { workloads::fork_join(4, SimTime::millis(2)); });
}

GuardTrip trip_of(const CompiledTrace& compiled, const SimConfig& cfg,
                  const RunGuard& guard) {
  try {
    core::simulate(compiled, cfg, &guard);
  } catch (const BudgetExceeded& e) {
    return e.trip();
  }
  return GuardTrip::kNone;
}

// ---- engine budgets --------------------------------------------------------

TEST(GuardTest, StepBudgetTripsTyped) {
  const CompiledTrace compiled = small_compiled();
  RunLimits limits;
  limits.max_steps = 10;
  EXPECT_EQ(trip_of(compiled, SimConfig{}, RunGuard(limits)),
            GuardTrip::kSteps);
}

TEST(GuardTest, SimTimeBudgetTripsTyped) {
  // The workload runs ~2ms of simulated time; a 1ms ceiling must stop
  // the replay before the clock passes it.
  const CompiledTrace compiled = small_compiled();
  RunLimits limits;
  limits.max_sim_ms = 1;
  EXPECT_EQ(trip_of(compiled, SimConfig{}, RunGuard(limits)),
            GuardTrip::kSimTime);
}

TEST(GuardTest, WallBudgetTripsTyped) {
  // Arm a 1ms wall budget, let it expire before the run starts: the
  // periodic wall checkpoint must notice, on a trace long enough
  // (> 1024 steps) to reach it mid-run rather than at the final check.
  const CompiledTrace compiled = core::record_compiled(
      [] { workloads::pipeline(8, 64, SimTime::micros(100)); });
  RunLimits limits;
  limits.max_wall_ms = 1;
  const RunGuard guard(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(trip_of(compiled, SimConfig{}, guard), GuardTrip::kWallTime);
}

TEST(GuardTest, DeadlineTripsTypedAheadOfTheWallCeiling) {
  // Both limits passed before the run: one clock read, and the
  // caller's deadline wins over the server's ceiling.
  const CompiledTrace compiled = small_compiled();
  RunLimits limits;
  limits.deadline_ms = 1;
  limits.max_wall_ms = 1;
  const RunGuard guard(limits);
  EXPECT_FALSE(RunGuard().deadline_passed());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(guard.deadline_passed());
  EXPECT_TRUE(guard.wall_passed());
  EXPECT_EQ(trip_of(compiled, SimConfig{}, guard), GuardTrip::kDeadline);

  RunLimits wall_only;
  wall_only.max_wall_ms = 1;
  wall_only.deadline_ms = 3600 * 1000;
  const RunGuard ceiling(wall_only);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(ceiling.deadline_passed());
  EXPECT_EQ(trip_of(compiled, SimConfig{}, ceiling), GuardTrip::kWallTime);
}

TEST(GuardTest, ResultBytesBudgetTripsTyped) {
  const CompiledTrace compiled = small_compiled();
  RunLimits limits;
  limits.max_result_bytes = 1;
  EXPECT_EQ(trip_of(compiled, SimConfig{}, RunGuard(limits)),
            GuardTrip::kResultBytes);
}

TEST(GuardTest, CancelStopsCompileAndSimulate) {
  const CompiledTrace compiled = small_compiled();
  RunGuard guard;
  guard.cancel();
  try {
    core::simulate(compiled, SimConfig{}, &guard);
    FAIL() << "cancelled simulate returned";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.trip(), GuardTrip::kCancelled);
  }
}

// ---- sweeps ----------------------------------------------------------------

TEST(GuardTest, CancelledSweepDrainsAndPoolStaysUsable) {
  const CompiledTrace compiled = small_compiled();
  const std::vector<int> cpus = {1, 2, 4, 8};
  core::SweepRunner runner;

  core::SweepOptions opt;
  opt.jobs = 2;
  RunGuard guard;
  guard.cancel();
  opt.guard = &guard;
  EXPECT_THROW(runner.sweep(compiled, cpus, SimConfig{}, opt),
               BudgetExceeded);

  // The drain left no tasks behind: the same runner's workers
  // immediately run an unguarded sweep whose results match a serial
  // reference sweep.
  std::vector<core::SimResult> pooled;
  core::SweepOptions clean;
  clean.jobs = 2;
  clean.results = &pooled;
  runner.sweep(compiled, cpus, SimConfig{}, clean);
  std::vector<core::SimResult> serial;
  core::SweepOptions ref;
  ref.jobs = 1;
  ref.results = &serial;
  core::sweep_cpus(compiled, cpus, SimConfig{}, ref);
  EXPECT_EQ(core::digest(pooled), core::digest(serial));
}

TEST(GuardTest, ConcurrentCancelMidSweepIsCleanEitherWay) {
  // The cancel races the sweep on purpose: whichever wins, the sweep
  // must either finish completely or unwind with kCancelled, and the
  // runner's workers must stay fully usable.
  const CompiledTrace compiled = core::record_compiled(
      [] { workloads::fft(workloads::SplashParams{8, 0.2}); });
  const std::vector<int> cpus = {1, 2, 4, 8};
  core::SweepRunner runner;
  RunGuard guard;
  core::SweepOptions opt;
  opt.jobs = 2;
  opt.guard = &guard;
  std::thread canceller([&guard]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    guard.cancel();
  });
  bool threw = false;
  try {
    runner.sweep(compiled, cpus, SimConfig{}, opt);
  } catch (const BudgetExceeded& e) {
    threw = true;
    EXPECT_EQ(e.trip(), GuardTrip::kCancelled);
  }
  canceller.join();
  (void)threw;  // either outcome is legal; cleanliness is what matters

  std::vector<core::SimResult> pooled;
  core::SweepOptions clean;
  clean.jobs = 2;
  clean.results = &pooled;
  runner.sweep(compiled, cpus, SimConfig{}, clean);
  std::vector<core::SimResult> serial;
  core::SweepOptions ref;
  ref.jobs = 1;
  ref.results = &serial;
  core::sweep_cpus(compiled, cpus, SimConfig{}, ref);
  EXPECT_EQ(core::digest(pooled), core::digest(serial));
}

// ---- digest parity ---------------------------------------------------------

TEST(GuardTest, UnlimitedGuardIsDigestInvisible) {
  // The acceptance gate for the whole layer: with a guard attached but
  // every budget off, all pinned golden digests are bit-identical.
  const RunGuard guard;  // attached, unarmed
  for (const core::GoldenCase& gc : core::kGoldenCases) {
    const CompiledTrace compiled = core::record_compiled(gc.workload);
    SimConfig cfg;
    gc.configure(cfg);
    EXPECT_EQ(core::digest(core::simulate(compiled, cfg, &guard)), gc.golden)
        << gc.name;
  }
}

TEST(GuardTest, GenerousLimitsAreDigestInvisible) {
  RunLimits limits;
  limits.max_steps = 1ull << 40;
  limits.max_wall_ms = 3600 * 1000;
  limits.max_sim_ms = 3600 * 1000;
  limits.max_result_bytes = 1ull << 40;
  const RunGuard guard(limits);
  const core::GoldenCase& gc = core::kGoldenCases[0];
  const CompiledTrace compiled = core::record_compiled(gc.workload);
  SimConfig cfg;
  gc.configure(cfg);
  EXPECT_EQ(core::digest(core::simulate(compiled, cfg, &guard)), gc.golden);
}

// ---- trace cache: footprint charge + quarantine ----------------------------

TEST(CacheGovernance, BudgetChargesCompiledFootprintNotJustFileBytes) {
  sol::Program program;
  const trace::Trace t = rec::record_program(program, [] {
    workloads::fork_join(6, SimTime::millis(2));
  });
  TempFile file("footprint");
  trace::save_binary_file(t, file.path());
  const auto file_bytes = std::filesystem::file_size(file.path());

  // A budget of twice the file size: under the old file-bytes-only
  // accounting this cache would keep the entry, but the parsed records
  // and compiled steps dwarf the compact binary encoding, so the honest
  // charge must exceed the budget and the entry must not be retained.
  server::TraceCache cache(8, static_cast<std::size_t>(file_bytes) * 2);
  const auto entry = cache.get(file.path());
  EXPECT_GT(entry->bytes, static_cast<std::size_t>(file_bytes));
  const server::TraceCache::Stats s = cache.stats();
  EXPECT_GT(entry->bytes, static_cast<std::size_t>(file_bytes) * 2);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.evictions, 1u);
}

TEST(CacheGovernance, QuarantineTripsThenDecays) {
  sol::Program program;
  const trace::Trace t = rec::record_program(program, [] {
    workloads::fork_join(2, SimTime::millis(1));
  });
  TempFile file("poison");
  trace::save_binary_file(t, file.path());

  server::TraceCache cache(8, 1u << 30);
  cache.configure_quarantine(2, 200);
  EXPECT_NO_THROW(cache.check_poisoned(file.path()));
  cache.record_strike(file.path());
  EXPECT_NO_THROW(cache.check_poisoned(file.path()));  // 1 strike: admissible
  cache.record_strike(file.path());
  EXPECT_THROW(cache.check_poisoned(file.path()), server::Poisoned);
  EXPECT_THROW(cache.get(file.path()), server::Poisoned);
  {
    const server::TraceCache::Stats s = cache.stats();
    EXPECT_EQ(s.poison_strikes, 2u);
    EXPECT_EQ(s.quarantine_trips, 1u);
    EXPECT_GE(s.poison_rejects, 2u);
    EXPECT_EQ(s.quarantined, 1u);
  }

  // Window over: the key decays to half its strikes and is admissible
  // again — and one more strike re-trips (1 + 1 >= 2), so a repeat
  // offender goes back behind the breaker faster than a newcomer.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_NO_THROW(cache.check_poisoned(file.path()));
  EXPECT_EQ(cache.stats().quarantined, 0u);
  cache.record_strike(file.path());
  EXPECT_THROW(cache.check_poisoned(file.path()), server::Poisoned);
}

// ---- server governance -----------------------------------------------------

server::ServerOptions unix_options(const std::string& sock) {
  server::ServerOptions opt;
  opt.unix_path = sock;
  opt.jobs = 2;
  return opt;
}

TEST(ServerGovernance, StepBudgetIsTypedAndStrikesLeadToQuarantine) {
  sol::Program program;
  const trace::Trace t = rec::record_program(program, [] {
    workloads::fork_join(4, SimTime::millis(2));
  });
  TempFile trace_file("budget");
  trace::save_binary_file(t, trace_file.path());
  TempFile sock("budget_sock");

  server::ServerOptions opt = unix_options(sock.path());
  opt.max_steps = 10;
  opt.poison_strikes = 2;
  opt.quarantine_ms = 300;
  server::Server srv(opt);
  srv.start();

  server::Client client = server::Client::connect_unix(sock.path());
  server::Request req;
  req.type = server::ReqType::kSimulate;
  req.trace_path = trace_file.path();
  req.cpus = 2;

  const auto t0 = std::chrono::steady_clock::now();
  const server::Response r1 = client.call(req);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(r1.status, server::Status::kBudgetExceeded) << r1.error;
  EXPECT_LT(elapsed, std::chrono::seconds(5));

  const server::Response r2 = client.call(req);
  EXPECT_EQ(r2.status, server::Status::kBudgetExceeded) << r2.error;

  // Two strikes tripped the breaker: answered pre-dispatch, so the
  // request counters show no new simulate dispatch outcome.
  const server::Response r3 = client.call(req);
  EXPECT_EQ(r3.status, server::Status::kPoisoned) << r3.error;

  server::Request stats;
  stats.type = server::ReqType::kStats;
  const server::Response s = client.call(stats);
  EXPECT_EQ(s.stats.budget_kills, 2u);
  EXPECT_EQ(s.stats.poisoned, 1u);
  EXPECT_EQ(s.stats.poison_strikes, 2u);
  EXPECT_EQ(s.stats.quarantined, 1u);

  // After the quarantine window the content decays back to admissible:
  // the next attempt reaches the engine again (and trips the budget
  // again) instead of being rejected at the door.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  const server::Response r4 = client.call(req);
  EXPECT_EQ(r4.status, server::Status::kBudgetExceeded) << r4.error;
  srv.stop();
}

TEST(ServerGovernance, WatchdogCancelsCooperativeDelayWithinBound) {
  sol::Program program;
  const trace::Trace t = rec::record_program(program, [] {
    workloads::fork_join(2, SimTime::millis(1));
  });
  TempFile trace_file("wdog");
  trace::save_binary_file(t, trace_file.path());
  TempFile sock("wdog_sock");

  // The injected delay would stall the worker 30 seconds; the watchdog
  // must convert it to a typed budget error at the ~50ms wall ceiling.
  util::FaultPlan plan = util::FaultPlan::parse("delay-ms:1:1:30000");
  server::ServerOptions opt = unix_options(sock.path());
  opt.faults = &plan;
  opt.max_wall_ms = 50;
  opt.watchdog_interval_ms = 5;
  server::Server srv(opt);
  srv.start();

  server::Client client = server::Client::connect_unix(sock.path());
  server::Request req;
  req.type = server::ReqType::kSimulate;
  req.trace_path = trace_file.path();
  const auto t0 = std::chrono::steady_clock::now();
  const server::Response r = client.call(req);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(r.status, server::Status::kBudgetExceeded) << r.error;
  EXPECT_LT(elapsed, std::chrono::seconds(5));

  server::Request stats;
  stats.type = server::ReqType::kStats;
  const server::Response s = client.call(stats);
  EXPECT_GE(s.stats.watchdog_cancels, 1u);
  EXPECT_GE(s.stats.budget_kills, 1u);
  EXPECT_EQ(s.stats.watchdog_replacements, 0u);
  srv.stop();
}

TEST(ServerGovernance, WedgedWorkerIsAbandonedAndReplaced) {
  sol::Program program;
  const trace::Trace t = rec::record_program(program, [] {
    workloads::fork_join(2, SimTime::millis(1));
  });
  TempFile trace_file("wedge");
  trace::save_binary_file(t, trace_file.path());

  // An uncancellable 500ms wedge with a 30ms wall ceiling and a 40ms
  // escalation grace: the cooperative rung fails, so the watchdog must
  // answer the client itself well before the wedge ends, and replace
  // the worker it wrote off.  With one worker the wedge holds the whole
  // pool, and only the replacement serves the next request.
  for (const int jobs : {1, 2}) {
    SCOPED_TRACE(testing::Message() << "jobs " << jobs);
    TempFile sock("wedge_sock");
    util::FaultPlan plan = util::FaultPlan::parse("wedge-ms:1:1:500");
    server::ServerOptions opt = unix_options(sock.path());
    opt.faults = &plan;
    opt.jobs = jobs;
    opt.max_wall_ms = 30;
    opt.watchdog_interval_ms = 5;
    opt.watchdog_escalate_ms = 40;
    opt.poison_strikes = 0;  // isolate the escalation path from quarantine
    server::Server srv(opt);
    srv.start();

    server::Client client = server::Client::connect_unix(sock.path());
    server::Request req;
    req.type = server::ReqType::kSimulate;
    req.trace_path = trace_file.path();
    const auto t0 = std::chrono::steady_clock::now();
    const server::Response r = client.call(req);
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(r.status, server::Status::kBudgetExceeded) << r.error;
    EXPECT_LT(elapsed, std::chrono::milliseconds(450));

    // The replacement worker serves the next request normally even while
    // the wedged one is still sleeping on the old task.
    const server::Response ok = client.call(req);
    EXPECT_EQ(ok.status, server::Status::kOk) << ok.error;

    server::Request stats;
    stats.type = server::ReqType::kStats;
    const server::Response s = client.call(stats);
    EXPECT_GE(s.stats.watchdog_cancels, 1u);
    EXPECT_EQ(s.stats.watchdog_replacements, 1u);
    srv.stop();
  }
}

// ---- one clock: the typed outcome of every limit on every trip path --------

/// How a request is held until its tighter limit has passed.
enum class TripPath {
  kQueueWait,  ///< behind a gated pool, watchdog off: the worker's checkpoint
  kCancel,     ///< a cooperative delay-ms stall: the watchdog's cancel
  kAbandon,    ///< an uncancellable wedge-ms stall: rung-two abandonment
};

struct Outcome {
  server::Status status;
  bool deadlines;     ///< the deadline-miss counter moved
  bool budget_kills;  ///< the budget-kill counter moved
  bool strike;        ///< a poison strike was recorded
};

/// One simulate request with `deadline_ms` on a fresh server with the
/// wall ceiling `max_wall_ms` (0 = none), held on `path`.  The counters
/// are read after stop(), which waits out a wedged worker, so its late
/// result counts too.
Outcome trip_once(const std::string& trace_path, std::int64_t deadline_ms,
                  std::int64_t max_wall_ms, TripPath path) {
  TempFile sock("clock_sock");
  util::FaultPlan plan = util::FaultPlan::parse(
      path == TripPath::kCancel    ? "delay-ms:1:1:10000"
      : path == TripPath::kAbandon ? "wedge-ms:1:1:400"
                                   : "");
  server::ServerOptions opt = unix_options(sock.path());
  opt.faults = &plan;
  opt.max_wall_ms = max_wall_ms;
  opt.watchdog_interval_ms = path == TripPath::kQueueWait ? 0 : 5;
  if (path == TripPath::kAbandon) opt.watchdog_escalate_ms = 60;

  // kQueueWait: the pool's one worker sits on a gate until the limit
  // has passed.
  util::ThreadPool pool(1);
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  if (path == TripPath::kQueueWait) {
    opt.pool = &pool;
    pool.post([&]() {
      std::unique_lock<std::mutex> lock(gate_mu);
      gate_cv.wait(lock, [&]() { return gate_open; });
    });
  }
  server::Server srv(opt);
  srv.start();
  std::thread opener([&]() {
    if (path == TripPath::kQueueWait)
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
    {
      std::lock_guard<std::mutex> lock(gate_mu);
      gate_open = true;
    }
    gate_cv.notify_all();
  });

  server::Client client = server::Client::connect_unix(sock.path());
  server::Request req;
  req.type = server::ReqType::kSimulate;
  req.trace_path = trace_path;
  req.cpus = 2;
  req.deadline_ms = deadline_ms;
  const server::Response r = client.call(req);
  opener.join();
  srv.stop();
  server::StatsBody s;
  srv.metrics().snapshot(s);
  return Outcome{r.status, s.deadlines > 0, s.budget_kills > 0,
                 srv.cache().stats().poison_strikes > 0};
}

TEST(ServerGovernance, EachLimitTripsTypedOnEveryPath) {
  sol::Program program;
  const trace::Trace t = rec::record_program(program, [] {
    workloads::fork_join(2, SimTime::millis(1));
  });
  TempFile trace_file("clock");
  trace::save_binary_file(t, trace_file.path());

  // The tighter limit passes at 60 ms; the looser one, when set, never
  // does in the test's time.
  constexpr std::int64_t kTight = 60, kLoose = 30000;
  struct Setup {
    const char* name;
    std::int64_t deadline_ms, max_wall_ms;
    bool deadline_bites;  ///< the deadline passes first
  };
  const Setup setups[] = {
      {"deadline only", kTight, 0, true},
      {"ceiling only", 0, kTight, false},
      {"both, deadline tighter", kTight, kLoose, true},
      {"both, ceiling tighter", kLoose, kTight, false},
  };
  const TripPath paths[] = {TripPath::kQueueWait, TripPath::kCancel,
                            TripPath::kAbandon};
  const char* path_names[] = {"queue wait", "watchdog cancel",
                              "rung-two abandon"};

  for (const Setup& su : setups) {
    for (int p = 0; p < 3; ++p) {
      SCOPED_TRACE(std::string(su.name) + " / " + path_names[p]);
      const Outcome o =
          trip_once(trace_file.path(), su.deadline_ms, su.max_wall_ms,
                    paths[p]);
      // A missed deadline is typed, counted as such and never struck by
      // the worker; every other trip is a budget kill and a strike.
      // Rung two strikes whichever limit it types: the worker it wrote
      // off is evidence against the trace either way.
      if (su.deadline_bites) {
        EXPECT_EQ(o.status, server::Status::kDeadlineExceeded);
        EXPECT_TRUE(o.deadlines);
        EXPECT_FALSE(o.budget_kills);
        EXPECT_EQ(o.strike, paths[p] == TripPath::kAbandon);
      } else {
        EXPECT_EQ(o.status, server::Status::kBudgetExceeded);
        EXPECT_FALSE(o.deadlines);
        EXPECT_TRUE(o.budget_kills);
        EXPECT_TRUE(o.strike);
      }
    }
  }
}

// ---- client backoff budget -------------------------------------------------

TEST(ClientRetry, BackoffNeverOutlivesTheDeadlineBudget) {
  TempFile sock("retry_sock");
  server::ServerOptions opt = unix_options(sock.path());
  opt.admission_limit = 0;  // every compute request is rejected overloaded
  server::Server srv(opt);
  srv.start();

  server::Client client = server::Client::connect_unix(sock.path());
  server::Request req;
  req.type = server::ReqType::kStats;
  req.deadline_ms = 120;
  server::RetryPolicy policy;
  policy.max_attempts = 50;
  policy.base_ms = 50;
  const auto t0 = std::chrono::steady_clock::now();
  const server::Response r = client.call_retry(req, policy);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_EQ(r.status, server::Status::kOverloaded);
  // Without the clamp, 49 sleeps of >= 50ms each would hold the caller
  // for multiple seconds past a 120ms budget.
  EXPECT_LE(policy.slept_ms, 120);
  EXPECT_LT(elapsed.count(), 2000);
  srv.stop();
}

TEST(ClientRetry, OverloadBackoffScheduleIsPinned) {
  TempFile sock("sched_sock");
  server::ServerOptions opt = unix_options(sock.path());
  opt.admission_limit = 0;
  server::Server srv(opt);
  srv.start();

  server::Client client = server::Client::connect_unix(sock.path());
  server::Request req;
  req.type = server::ReqType::kStats;
  server::RetryPolicy policy;
  policy.max_attempts = 6;
  policy.base_ms = 2;
  policy.cap_ms = 50;
  policy.seed = 1;
  EXPECT_EQ(client.call_retry(req, policy).status,
            server::Status::kOverloaded);
  // Five seeded sleeps, 2 + 4 + 11 + 31 + 28 ms: the schedule is a
  // function of the seed, so a test that replays it sees the same one.
  EXPECT_EQ(policy.slept_ms, 76);
  srv.stop();
}

}  // namespace
}  // namespace vppb
