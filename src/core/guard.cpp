#include "core/guard.hpp"

#include "obs/metrics.hpp"
#include "util/strings.hpp"

namespace vppb::core {
namespace {

struct GuardMetrics {
  obs::Counter* trips;

  static GuardMetrics& get() {
    static GuardMetrics m = [] {
      auto& reg = obs::Registry::global();
      GuardMetrics g;
      g.trips = &reg.counter("vppb_guard_trips_total",
                             "Runs terminated by a RunGuard budget");
      return g;
    }();
    return m;
  }
};

[[noreturn]] void trip(GuardTrip kind, std::string msg) {
  GuardMetrics::get().trips->inc();
  throw BudgetExceeded(kind, msg);
}

}  // namespace

const char* guard_trip_name(GuardTrip t) {
  switch (t) {
    case GuardTrip::kNone: return "none";
    case GuardTrip::kCancelled: return "cancelled";
    case GuardTrip::kSteps: return "steps";
    case GuardTrip::kWallTime: return "wall-time";
    case GuardTrip::kSimTime: return "sim-time";
    case GuardTrip::kResultBytes: return "result-bytes";
    case GuardTrip::kDeadline: return "deadline";
  }
  return "?";
}

void RunGuard::arm(const RunLimits& limits) {
  limits_ = limits;
  // A guard with neither a deadline nor a wall budget never reads the
  // clock, here or at a checkpoint.
  const auto now = limits_.deadline_ms != 0 || limits_.max_wall_ms != 0
                       ? std::chrono::steady_clock::now()
                       : std::chrono::steady_clock::time_point{};
  const auto at = [now](std::int64_t ms) {
    return ms != 0 ? now + std::chrono::milliseconds(ms)
                   : std::chrono::steady_clock::time_point::max();
  };
  deadline_at_ = at(limits_.deadline_ms);
  wall_at_ = at(limits_.max_wall_ms);
  sim_deadline_ = limits_.max_sim_ms != 0 ? SimTime::millis(limits_.max_sim_ms)
                                          : SimTime::max();
}

void RunGuard::trip_cancelled() const {
  trip(GuardTrip::kCancelled, "run cancelled");
}

void RunGuard::trip_steps(std::uint64_t steps) const {
  trip(GuardTrip::kSteps,
       strprintf("step budget exceeded: %llu steps > max %llu",
                 static_cast<unsigned long long>(steps),
                 static_cast<unsigned long long>(limits_.max_steps)));
}

void RunGuard::trip_deadline() const {
  trip(GuardTrip::kDeadline,
       strprintf("deadline exceeded: ran past the %lld ms deadline",
                 static_cast<long long>(limits_.deadline_ms)));
}

void RunGuard::trip_wall() const {
  trip(GuardTrip::kWallTime,
       strprintf("wall-time budget exceeded: ran longer than %lld ms",
                 static_cast<long long>(limits_.max_wall_ms)));
}

void RunGuard::trip_sim(SimTime t) const {
  trip(GuardTrip::kSimTime,
       strprintf("simulated-time budget exceeded: %s > max %lld ms",
                 t.to_string().c_str(),
                 static_cast<long long>(limits_.max_sim_ms)));
}

void RunGuard::trip_result_bytes(std::size_t bytes) const {
  trip(GuardTrip::kResultBytes,
       strprintf("result-size budget exceeded: ~%zu bytes > max %llu", bytes,
                 static_cast<unsigned long long>(limits_.max_result_bytes)));
}

}  // namespace vppb::core
