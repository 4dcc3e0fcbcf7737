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
// Cost model: a null guard pointer is one predictable branch per
// checkpoint.  An attached guard with no limits armed is one relaxed
// atomic load (the cancellation flag) plus compares against zero; the
// wall clock is only read when a wall budget is armed, and then only
// every ~1k steps.  cancel() may be called from any thread (the server
// watchdog does); everything else is written before the guard is
// shared and read-only afterwards.
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
  std::int64_t max_sim_ms = 0;        ///< simulated milliseconds
  std::uint64_t max_result_bytes = 0; ///< approximate SimResult footprint
};

class RunGuard {
 public:
  /// A pure cancellation token (no budgets).
  RunGuard() = default;

  /// Arms `limits`; the wall-time budget starts counting now.
  explicit RunGuard(const RunLimits& limits) { arm(limits); }

  RunGuard(const RunGuard&) = delete;
  RunGuard& operator=(const RunGuard&) = delete;

  /// (Re)arms the budgets.  Not safe against concurrent checks — call
  /// before the guard is shared with running code.
  void arm(const RunLimits& limits);

  /// Requests cooperative termination.  Safe from any thread.
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  const RunLimits& limits() const { return limits_; }

  /// True when any budget (not counting cancellability) is armed.
  bool has_limits() const {
    return limits_.max_steps != 0 || limits_.max_wall_ms != 0 ||
           limits_.max_sim_ms != 0 || limits_.max_result_bytes != 0;
  }

  // --- checkpoints; each throws BudgetExceeded when its budget trips ---

  void check_cancel() const {
    if (cancelled_.load(std::memory_order_relaxed)) trip_cancelled();
  }

  void check_steps(std::uint64_t steps) const {
    if (limits_.max_steps != 0 && steps > limits_.max_steps)
      trip_steps(steps);
  }

  /// Reads the clock only when a wall budget is armed.
  void check_wall() const {
    if (limits_.max_wall_ms != 0 &&
        std::chrono::steady_clock::now() >= wall_deadline_)
      trip_wall();
  }

  void check_sim_time(SimTime t) const {
    if (limits_.max_sim_ms != 0 && t > sim_deadline_) trip_sim(t);
  }

  void check_result_bytes(std::size_t bytes) const {
    if (limits_.max_result_bytes != 0 && bytes > limits_.max_result_bytes)
      trip_result_bytes(bytes);
  }

 private:
  [[noreturn]] void trip_cancelled() const;
  [[noreturn]] void trip_steps(std::uint64_t steps) const;
  [[noreturn]] void trip_wall() const;
  [[noreturn]] void trip_sim(SimTime t) const;
  [[noreturn]] void trip_result_bytes(std::size_t bytes) const;

  RunLimits limits_;
  std::chrono::steady_clock::time_point wall_deadline_{};
  SimTime sim_deadline_ = SimTime::max();
  std::atomic<bool> cancelled_{false};
};

}  // namespace vppb::core
