#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <utility>

#include "obs/metrics.hpp"

namespace vppb::util {

namespace {

/// Registry handles for the pool's task path, registered once.  Every
/// pool in the process shares them, so the gauge moves by one per push
/// and pop: it reads the tasks queued across all pools.
struct PoolMetrics {
  obs::Counter& tasks;
  obs::Gauge& depth;
  obs::Histogram& wait_us;
  obs::Histogram& run_us;

  static PoolMetrics& get() {
    static PoolMetrics m{
        obs::Registry::global().counter("vppb_pool_tasks_total",
                                        "Tasks accepted by ThreadPool::post"),
        obs::Registry::global().gauge("vppb_pool_queue_depth",
                                      "Posted tasks waiting for a worker"),
        obs::Registry::global().histogram(
            "vppb_pool_task_wait_us",
            "Queue wait from post() to task start, microseconds",
            obs::latency_us_bounds()),
        obs::Registry::global().histogram(
            "vppb_pool_task_run_us", "Task execution time, microseconds",
            obs::latency_us_bounds()),
    };
    return m;
  }
};

double us_since(std::chrono::steady_clock::time_point t0,
                std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
             t1 - t0)
      .count();
}

/// One parallel_for call: its claim counter and its completion block.
/// The caller and its helper slices share it, so a slice that starts
/// after the call returned still reads a live counter, finds no index
/// left, and never touches `fn`.
struct Loop {
  Loop(const std::function<void(std::size_t)>& f, std::size_t count)
      : fn(&f), n(count) {}

  const std::function<void(std::size_t)>* const fn;
  const std::size_t n;
  std::atomic<std::size_t> next{0};  ///< next unclaimed index
  std::atomic<bool> failed{false};
  std::exception_ptr error;  ///< set by the index that set `failed`

  std::mutex mu;
  std::condition_variable cv;  ///< signals done == n
  std::size_t done = 0;        ///< finished indices

  /// Claims and runs indices until none remain.
  void run() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      run_claimed(i);
    }
  }

  /// Runs claimed index i and counts it done.  After a failure the
  /// remaining indices are claimed and counted without running: the
  /// caller waits for every index to be counted done.
  void run_claimed(std::size_t i) {
    if (!failed.load(std::memory_order_relaxed)) {
      try {
        (*fn)(i);
      } catch (...) {
        if (!failed.exchange(true)) error = std::current_exception();
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    if (++done == n) cv.notify_all();
  }
};

}  // namespace

int ThreadPool::resolve_jobs(int jobs) {
  if (jobs > 0) return jobs;
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(int workers) { grow(resolve_jobs(workers)); }

void ThreadPool::grow(int n) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) return;  // too late: the destructor owns workers_ now
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this]() { worker_loop(); });
    worker_count_.fetch_add(1, std::memory_order_acq_rel);
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&]() { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping_, and the queue is drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
      PoolMetrics::get().depth.sub(1);
    }
    task();
  }
}

void ThreadPool::post(std::function<void()> task) {
  PoolMetrics& m = PoolMetrics::get();
  m.tasks.inc();
  const auto posted = std::chrono::steady_clock::now();
  auto timed = [task = std::move(task), posted, &m]() {
    const auto started = std::chrono::steady_clock::now();
    m.wait_us.observe(us_since(posted, started));
    task();
    m.run_us.observe(us_since(started, std::chrono::steady_clock::now()));
  };
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(timed));
    m.depth.add(1);
  }
  work_cv_.notify_one();
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t max_helpers) {
  const std::size_t helpers = std::min({
      static_cast<std::size_t>(worker_count_.load(std::memory_order_acquire)),
      n > 0 ? n - 1 : 0, max_helpers});
  if (helpers == 0) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto loop = std::make_shared<Loop>(fn, n);
  // The caller claims index 0 before any helper slice exists, so the
  // loop's first index never waits for a worker to wake.
  const std::size_t first = loop->next.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t k = 0; k < helpers; ++k) post([loop]() { loop->run(); });
  loop->run_claimed(first);
  loop->run();
  std::unique_lock<std::mutex> lock(loop->mu);
  loop->cv.wait(lock, [&]() { return loop->done == n; });
  // The error leaves the block before it is rethrown, so the caller
  // holds its last reference: a late helper slice may drop the block on
  // its worker, and a free there reads to the thread sanitizer as a
  // race with the caller's handler (the exception's refcount lives in
  // uninstrumented libstdc++).
  if (loop->error) std::rethrow_exception(std::exchange(loop->error, nullptr));
}

}  // namespace vppb::util
