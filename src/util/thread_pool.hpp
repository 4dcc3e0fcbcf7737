// A small reusable worker pool for embarrassingly parallel loops and
// independent tasks.
//
// The Simulator's processor sweeps run one independent core::simulate
// per machine configuration (paper §3.2: "run the simulator once per
// candidate configuration"); the pool lets those runs use every
// hardware thread.  Workers are started once and reused: each
// core::SweepRunner starts its pool on its first parallel sweep and
// every later sweep posts to it, and a server starts its pool with the
// server.  All work goes through one FIFO task queue: post() appends a
// task, and parallel_for appends helper slices that join the caller's
// loop, at most as many as the caller's cap allows.  A pool always has
// at least one worker: an owner sizes it for the threads that compute,
// so a server that only posts asks for `jobs` workers, and a loop
// whose caller claims indices too asks for one fewer.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vppb::util {

class ThreadPool {
 public:
  /// Starts exactly resolve_jobs(workers) workers: `workers <= 0`
  /// selects all hardware threads.
  explicit ThreadPool(int workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker threads started, replacements from grow() included.
  int workers() const {
    return worker_count_.load(std::memory_order_acquire);
  }

  /// Starts `n` additional workers.  Used by the server watchdog to
  /// restore pool capacity after abandoning a request whose worker is
  /// wedged (the stuck worker keeps its thread, the replacement keeps
  /// the pool serving), and by core::SweepRunner when a sweep asks for
  /// more points in flight than its workers allow.  Safe from any
  /// thread; a no-op once the pool is stopping.
  void grow(int n);

  /// Runs fn(0) .. fn(n-1) across the calling thread and up to
  /// min(workers, n - 1, max_helpers) helper slices posted to the task
  /// queue, which claim indices through a shared counter; returns when
  /// every index has finished.  So at most max_helpers + 1 indices run
  /// at once.  The first exception thrown by any index is rethrown
  /// on the caller (remaining indices are skipped).  The caller claims
  /// indices too, index 0 always among them, so the loop completes even
  /// when every worker is busy, and calls from several threads run side
  /// by side.  A helper slice that starts after the call returned finds
  /// no index left and never touches `fn`.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    std::size_t max_helpers = SIZE_MAX);

  /// Enqueues an independent task and returns immediately; a free
  /// worker runs it (FIFO order, shared with parallel_for's helper
  /// slices).  Queued tasks are drained, not dropped, before the
  /// destructor returns.  Tasks must handle their own errors: an
  /// exception escaping a posted task terminates the process.
  void post(std::function<void()> task);

  /// `jobs` <= 0 -> hardware_concurrency (at least 1); else `jobs`.
  static int resolve_jobs(int jobs);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;  ///< mutated under mu_ (grow) until stop
  std::atomic<int> worker_count_{0};  ///< lock-free mirror of workers_.size()

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< signals a queued task or stopping_
  bool stopping_ = false;
  std::deque<std::function<void()>> tasks_;  ///< queued, not yet started
};

}  // namespace vppb::util
