// The "information describing the predicted execution" (paper fig. 1,
// box g): a full timeline of thread states, the simulated events, and
// per-thread statistics.  This is the Visualizer's input and the source
// of the speed-up numbers in Table 1.
#pragma once

#include <map>
#include <vector>

#include "trace/event.hpp"
#include "util/time.hpp"

namespace vppb::core {

using trace::ThreadId;

/// Thread state over a timeline segment, as drawn by the Visualizer:
/// running = solid line, runnable-but-not-running = grey line, blocked =
/// no line (paper §3.3).
enum class SegState : std::uint8_t {
  kRunning,
  kRunnable,
  kBlocked,
  kSleeping,
};

const char* to_string(SegState s);

struct Segment {
  ThreadId tid = 0;
  SimTime start;
  SimTime end;
  SegState state = SegState::kRunning;
  int cpu = -1;  ///< only meaningful while kRunning
};

/// One simulated thread-library event (an arrow/symbol in the execution
/// flow graph).  Carries everything the event "popup" shows: timing,
/// CPU, and the source location inherited from the recording.
struct SimEvent {
  SimTime at;    ///< when the call reached the library in the simulation
  SimTime done;  ///< when the call returned
  ThreadId tid = 0;
  trace::Op op = trace::Op::kThrExit;
  trace::ObjectRef obj;
  std::int64_t outcome = 0;
  std::uint32_t loc = 0;  ///< source-location index into the source trace
  int cpu = -1;           ///< CPU the thread ran on when the event started
};

struct ThreadStats {
  ThreadId tid = 0;
  SimTime created_at;
  SimTime exited_at;
  SimTime cpu_time;       ///< time actually working (popup: "working")
  SimTime runnable_time;  ///< ready but no LWP/CPU (red in the graph)
  SimTime blocked_time;
  SimTime sleeping_time;
};

struct CpuStats {
  int cpu = -1;
  SimTime busy;
  std::uint64_t dispatches = 0;  ///< LWP switches onto this CPU
};

/// One interval of an LWP's life: which thread it carried and whether
/// it held a CPU.  The raw material of the LWP gantt view, which makes
/// the two-level multiplexing (threads -> LWPs -> CPUs) visible.
struct LwpSegment {
  int lwp = -1;
  SimTime start;
  SimTime end;
  ThreadId thread = 0;  ///< attached thread (0 = idle LWP)
  int cpu = -1;         ///< -1 while waiting for a CPU
};

/// Per-LWP accounting (the simulated kernel threads of paper §3.2).
struct LwpStats {
  int id = -1;
  bool dedicated = false;  ///< owned by a bound thread
  SimTime running;         ///< time spent on a CPU
  std::uint64_t dispatches = 0;
  int final_ts_level = 0;  ///< TS level at the end of the run
};

/// Self-observation of one simulation run: scheduler activity counters
/// plus host-side timing.  The counters are deterministic (identical
/// for identical inputs); the wall-clock fields are not, so none of
/// this participates in digest() — adding it cannot disturb the pinned
/// regression digests.
struct EngineCounters {
  std::uint64_t steps = 0;             ///< trace operations applied
  std::uint64_t dispatches = 0;        ///< LWP→CPU placements (context switches)
  std::uint64_t migrations = 0;        ///< placements onto a different CPU
  std::uint64_t preemptions = 0;       ///< running LWPs evicted by priority
  std::uint64_t timer_wakeups = 0;     ///< sleep/timeout expirations processed
  std::uint64_t sched_passes = 0;      ///< dispatch sweeps over the ready queues
  std::uint64_t max_runq_depth = 0;    ///< most LWPs ever waiting for a CPU
  /// Kernel dispatch-queue entries the engine read to keep and consult
  /// its queue of waiting LWPs: selection, insertion, starvation relief
  /// and lazily deleted entries dropped.  Divided by sched_passes, it
  /// shows whether a dispatch pass costs O(1) or O(waiters).
  std::uint64_t waiters_scanned = 0;
  double wall_seconds = 0.0;           ///< host time inside Engine::run
  double steps_per_sec = 0.0;          ///< steps / wall_seconds (0 if instant)
};

struct SimResult {
  SimTime total;              ///< predicted execution time
  SimTime recorded_duration;  ///< the monitored uni-processor time
  double speedup = 0.0;       ///< recorded_duration / total
  int cpus = 1;
  int lwps = 1;
  EngineCounters engine;      ///< self-observation; excluded from digest()

  std::vector<Segment> segments;  ///< time-ordered per emission
  std::vector<SimEvent> events;   ///< time-ordered
  std::map<ThreadId, ThreadStats> threads;
  std::vector<CpuStats> cpu_stats;
  std::vector<LwpStats> lwp_stats;
  std::vector<LwpSegment> lwp_segments;  ///< when build_timeline is set

  /// Segments of one LWP, in time order.
  std::vector<LwpSegment> segments_of_lwp(int lwp) const;
  /// segments_of_lwp(lwps[i]) for every i, in one pass over lwp_segments.
  std::vector<std::vector<LwpSegment>> segments_of_lwps(
      const std::vector<int>& lwps) const;

  /// Segments of one thread, in time order.
  std::vector<Segment> thread_segments(ThreadId tid) const;
  /// thread_segments(tids[i]) for every i, in one pass over segments.
  std::vector<std::vector<Segment>> thread_segments(
      const std::vector<ThreadId>& tids) const;

  /// Number of running / runnable threads at an instant.
  struct Parallelism {
    int running = 0;
    int runnable = 0;
  };
  Parallelism parallelism_at(SimTime t) const;
  /// parallelism_at(t) for every t in `times`, in one pass over the
  /// segments: O(segments × log times) instead of a scan per instant.
  std::vector<Parallelism> parallelism_at(
      const std::vector<SimTime>& times) const;

  /// Sampled parallelism profile over [0, total] with the given number
  /// of sample points — the data behind the paper's parallelism graph.
  struct ProfilePoint {
    SimTime at;
    int running = 0;
    int runnable = 0;
  };
  std::vector<ProfilePoint> parallelism_profile(std::size_t samples) const;

  /// Validates timeline invariants: segments per thread are contiguous
  /// and non-overlapping, running counts never exceed cpus, events lie
  /// within the run.  Throws vppb::Error on violation.
  void validate() const;
};

/// Order-sensitive FNV-1a fingerprint of everything in the result:
/// totals, every segment, event, thread/CPU/LWP stat and LWP segment.
/// Two results digest equally iff the predicted schedules are
/// byte-identical — the regression tests use this to pin the engine's
/// output across scheduler rewrites.
std::uint64_t digest(const SimResult& r);

/// Order-sensitive combined fingerprint of a batch of results (FNV-1a
/// over the per-result digests).  A sweep digests the per-CPU-count
/// results in `cpu_counts` order; the prediction service proves its
/// responses bit-identical to the offline path by comparing this value.
std::uint64_t digest(const std::vector<SimResult>& results);

}  // namespace vppb::core
