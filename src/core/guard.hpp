// Cooperative cancellation and resource budgets for simulation runs.
//
// A RunGuard is owned by whoever starts a run (a CLI command, one
// server request) and a pointer to it is threaded through compile(),
// simulate() and sweep_cpus().  The running code polls it at natural
// checkpoints — once per engine step, once per compiled record batch,
// once per sweep point — and a tripped budget surfaces as a thrown
// BudgetExceeded carrying which budget fired.  Guards never change
// simulation *results*: a run either completes bit-identically to an
// unguarded run or throws, which is what keeps the pinned
// determinism digests valid with guards attached.
//
// A server request's guard is also its one clock: check_wall() tells
// the request's deadline from the server's wall ceiling by its trip.
//
// Cost model: a null guard pointer is one predictable branch per
// checkpoint.  An attached guard with no limits armed is one relaxed
// atomic load (the cancellation flag) plus compares against zero; the
// wall clock is only read when a deadline or wall budget is armed, and
// then only every ~1k steps.  cancel() may be called from any thread
// (the server watchdog does); everything else is written before the
// guard is shared and read-only afterwards.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "util/error.hpp"
#include "util/time.hpp"

namespace vppb::core {

/// Which budget terminated a guarded run.
enum class GuardTrip : std::uint8_t {
  kNone = 0,
  kCancelled,    ///< RunGuard::cancel() was called (watchdog, Ctrl-C, ...)
  kSteps,        ///< max_steps simulated operations exceeded
  kWallTime,     ///< max_wall_ms of real time elapsed
  kSimTime,      ///< simulated clock would pass max_sim_ms
  kResultBytes,  ///< accumulated SimResult storage exceeded max_result_bytes
  kDeadline,     ///< the request's own deadline_ms of real time elapsed
};

const char* guard_trip_name(GuardTrip trip);

/// Thrown by guard checkpoints when a budget trips.  Derives from
/// vppb::Error so unaware callers still see a formatted message;
/// aware callers (the server) switch on trip() for typed responses.
class BudgetExceeded : public Error {
 public:
  BudgetExceeded(GuardTrip trip, const std::string& what)
      : Error(what), trip_(trip) {}
  GuardTrip trip() const { return trip_; }

 private:
  GuardTrip trip_;
};

/// Budgets for one run.  Zero means unlimited; all-zero limits make the
/// guard a pure cancellation token.
struct RunLimits {
  std::uint64_t max_steps = 0;        ///< simulated operations (engine steps)
  std::int64_t max_wall_ms = 0;       ///< real time from arm() to trip
  /// The request's own deadline, real time from arm().  The caller's
  /// limit, not a server budget: it trips kDeadline, not kWallTime.
  std::int64_t deadline_ms = 0;
  std::int64_t max_sim_ms = 0;        ///< simulated milliseconds
  std::uint64_t max_result_bytes = 0; ///< approximate SimResult footprint
};

class RunGuard {
 public:
  /// A pure cancellation token (no budgets).
  RunGuard() = default;

  /// Arms `limits`; the deadline and wall-time budget start counting now.
  explicit RunGuard(const RunLimits& limits) { arm(limits); }

  RunGuard(const RunGuard&) = delete;
  RunGuard& operator=(const RunGuard&) = delete;

  /// (Re)arms the budgets.  Not safe against concurrent checks — call
  /// before the guard is shared with running code.
  void arm(const RunLimits& limits);

  /// Requests cooperative termination.  Safe from any thread.
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  // --- checkpoints; each throws BudgetExceeded when its budget trips ---

  void check_cancel() const {
    if (cancelled_.load(std::memory_order_relaxed)) trip_cancelled();
  }

  void check_steps(std::uint64_t steps) const {
    if (limits_.max_steps != 0 && steps > limits_.max_steps)
      trip_steps(steps);
  }

  /// Reads the clock once, and only when a deadline or wall budget is
  /// armed.  When both have passed the deadline wins: it is the
  /// caller's, and it owes no poison strike.
  void check_wall() const {
    if (limits_.deadline_ms == 0 && limits_.max_wall_ms == 0) return;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline_at_) trip_deadline();
    if (now >= wall_at_) trip_wall();
  }

  void check_sim_time(SimTime t) const {
    if (limits_.max_sim_ms != 0 && t > sim_deadline_) trip_sim(t);
  }

  void check_result_bytes(std::size_t bytes) const {
    if (limits_.max_result_bytes != 0 && bytes > limits_.max_result_bytes)
      trip_result_bytes(bytes);
  }

  // --- clock reads that never throw (the server watchdog's view) ---

  bool deadline_passed() const {
    return limits_.deadline_ms != 0 &&
           std::chrono::steady_clock::now() >= deadline_at_;
  }
  bool wall_passed() const {
    return limits_.max_wall_ms != 0 &&
           std::chrono::steady_clock::now() >= wall_at_;
  }

 private:
  [[noreturn]] void trip_cancelled() const;
  [[noreturn]] void trip_steps(std::uint64_t steps) const;
  [[noreturn]] void trip_deadline() const;
  [[noreturn]] void trip_wall() const;
  [[noreturn]] void trip_sim(SimTime t) const;
  [[noreturn]] void trip_result_bytes(std::size_t bytes) const;

  RunLimits limits_;
  /// time_point::max() when that limit is not armed.
  std::chrono::steady_clock::time_point deadline_at_ =
      std::chrono::steady_clock::time_point::max();
  std::chrono::steady_clock::time_point wall_at_ =
      std::chrono::steady_clock::time_point::max();
  SimTime sim_deadline_ = SimTime::max();
  std::atomic<bool> cancelled_{false};
};

}  // namespace vppb::core
