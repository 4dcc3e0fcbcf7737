// The trace compiler: turns the Recorder's interleaved one-LWP log into
// per-thread replay programs (the paper's fig. 4 per-thread event lists,
// augmented with the CPU demand between events).
//
// CPU attribution uses the single-LWP invariant: between two consecutive
// records in the global log exactly one thread is executing — the thread
// that produces the *later* record (the earlier record's thread either
// kept running, in which case both records are its, or was descheduled
// inside the library call that produced the earlier record).  Summing
// those intervals per thread yields each thread's compute demand between
// its own events, which is exactly what the Simulator replays.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/guard.hpp"
#include "trace/trace.hpp"
#include "util/arena.hpp"
#include "util/time.hpp"

namespace vppb::core {

using trace::ThreadId;

/// One replayable step: run `cpu`, apply the operation, run `op_cost`
/// (the recorded library overhead, scaled for bound threads), continue.
struct Step {
  SimTime cpu;       ///< compute demand before the call
  SimTime op_cost;   ///< library time of the call itself
  trace::Op op = trace::Op::kThrExit;
  trace::ObjectRef obj;
  std::int64_t arg = 0;      ///< call argument (priority, flags, the mutex
                             ///< of a cond wait, …)
  std::int64_t outcome = 0;  ///< return value (created tid, try success, …)
  SimTime delay;     ///< recorded sleep length of a timed-out cond_timedwait
  std::uint32_t loc = 0;     ///< source location of the call
  SimTime logged_at;         ///< when the call happened in the recording
  /// Engine-internal dense object slots, assigned by compile():
  /// the replay keys its per-kind object tables by these (first-touch
  /// order, 0..n-1) rather than the trace's raw ids, which recorders
  /// derive from addresses and are therefore arbitrarily sparse.  `slot`
  /// remaps obj.id (for synchronization-object ops); `slot2` remaps a
  /// cond wait's recorded mutex (arg).  Results and events still carry
  /// the raw ids — slots never leak out of the engine.
  std::uint32_t slot = 0;
  std::uint32_t slot2 = 0;
};

/// One compiled thread: a dense record whose step array lives in the
/// owning FlatProgram's arena.  Everything the replay needs; names and
/// start routines stay on the Trace.
struct FlatThread {
  ThreadId tid = 0;
  std::span<const Step> steps;  ///< arena-backed, contiguous
  bool bound = false;        ///< created with THR_BOUND in the recording
  /// True when some thr_create in the log creates this thread; if not
  /// (hand-written traces), the simulator spawns it at first_record_at.
  bool created_in_log = false;
  int initial_priority = 0;
  SimTime first_record_at;
  SimTime total_cpu;  ///< sum of cpu + op_cost over all steps
};

/// The compiled form of a trace: every thread's step stream in one bump
/// arena, a dense thread table in ascending-tid order (so the engine's
/// thread indices are a pure function of the trace) and the per-kind
/// object-id bounds the engine uses to presize its slabs once per run
/// instead of growing them mid-replay.  Immutable after build; shared by
/// every simulation of the trace (all sweep points, all cached requests).
struct FlatProgram {
  util::Arena arena;
  std::span<const FlatThread> threads;  ///< arena-backed, ascending tid
  std::size_t total_steps = 0;
  /// Distinct objects of each kind (== the per-kind slot count): the
  /// engine sizes its dense object tables to exactly these.  Cond-wait
  /// steps contribute their recorded mutex (Step::arg) to the mutex
  /// count.
  std::uint32_t mutex_ids = 0;
  std::uint32_t sema_ids = 0;
  std::uint32_t cond_ids = 0;
  std::uint32_t rwlock_ids = 0;
};

struct CompiledTrace {
  /// Built once by compile() and shared (immutably) by every copy of
  /// this trace; machine::jittered builds a fresh one for its copy.
  std::shared_ptr<const FlatProgram> flat;
  SimTime recorded_duration;
  /// Every thr_setprio argument in the trace (sorted, deduplicated).
  /// Collected once here so the engine's per-run priority table does
  /// not have to rescan every step of every thread.
  std::vector<int> setprio_values;

  const FlatThread& thread(ThreadId tid) const;
};

/// Compiles a trace that a loader (or the Recorder) has already checked:
/// this does not rerun Trace::validate().  Still throws vppb::Error on
/// the structural faults its record walk meets — a record that goes back
/// in time or comes from a thread with no metadata, a second open call,
/// a return without its call, a call left open at the end.
CompiledTrace compile(const trace::Trace& trace);

/// Guarded compilation: polls `guard` (cancellation + wall budget)
/// every few thousand records, so a cancelled request does not sit
/// through the full compile of a huge trace.  Null guard = unguarded.
CompiledTrace compile(const trace::Trace& trace, const RunGuard* guard);

}  // namespace vppb::core
