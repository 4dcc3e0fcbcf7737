// The Recorder attachment point.
//
// The paper interposes an instrumented library between the program and
// libthread.so.1 via LD_PRELOAD; every call passes through a probe that
// records (time, event, object, thread, source line) and then calls the
// real routine.  Here the "real routine" is src/solaris, and the probe
// is a sink installed around it: when a sink is attached every public
// API function reports its call and return, when none is attached the
// API runs bare (the unmonitored execution).
#pragma once

#include <cstdint>
#include <source_location>
#include <string_view>

#include "trace/event.hpp"

namespace vppb::sol {

/// What a probe sees about one API call.
struct ProbeContext {
  trace::Op op;
  trace::ObjectRef obj;
  std::int64_t arg = 0;
  std::int64_t arg2 = 0;
  std::source_location loc;
  std::string_view label;  ///< only for kUserMark records
};

/// Implemented by the Recorder (src/recorder).
class ProbeSink {
 public:
  virtual ~ProbeSink() = default;

  /// Entry of a probed call, before the real routine runs.
  virtual void on_call(const ProbeContext& ctx) = 0;

  /// Return of a probed call.  `result_arg` carries outcome information
  /// (trylock success, timedwait timeout, joined thread id).
  virtual void on_return(const ProbeContext& ctx, std::int64_t result_arg) = 0;

  /// A new thread became known (records the start-routine name the
  /// paper resolves with a debugger).
  virtual void on_thread(trace::ThreadId tid, std::string_view name,
                         std::string_view start_func, bool bound,
                         int priority) = 0;
};

/// Install/remove the sink (nullptr detaches).  The substitute for
/// setting LD_PRELOAD before starting the monitored execution.
void set_probe_sink(ProbeSink* sink);
ProbeSink* probe_sink();

/// Virtual-clock cost of the thread-library calls themselves.  In real
/// clock mode the actual library code is timed, so these are unused; in
/// virtual mode they default to zero (tests stay exact) and can be set
/// to 1990s-Solaris-like magnitudes so that, e.g., the x6.7/x5.9
/// bound-thread factors of paper §3.2 have something to scale.
struct OpCostModel {
  SimTime sync;    ///< mutex/sema/cond/rwlock operations
  SimTime create;  ///< thr_create (unbound; the simulator scales bound)
  SimTime thread_mgmt;  ///< join/yield/setprio/setconcurrency
};

void set_op_cost_model(const OpCostModel& model);

namespace detail {

/// RAII helper used by every API function: reports on_call in the
/// constructor and on_return in finish() (or destructor with the last
/// set result).  Does nothing when no sink is attached.
class ProbeScope {
 public:
  ProbeScope(trace::Op op, trace::ObjectRef obj, std::int64_t arg,
             std::int64_t arg2, const std::source_location& loc);
  ~ProbeScope();

  ProbeScope(const ProbeScope&) = delete;
  ProbeScope& operator=(const ProbeScope&) = delete;

  void set_result(std::int64_t result_arg) { result_ = result_arg; }

 private:
  ProbeContext ctx_;
  std::int64_t result_ = 0;
  bool active_;
};

}  // namespace detail
}  // namespace vppb::sol
