// Lock-cheap process-wide metrics: counters, gauges, and fixed-bucket
// histograms, collected in a named Registry and exportable as
// Prometheus text exposition.
//
// Design constraints, in order:
//   1. The write path must be safe to call from the hottest layers we
//      instrument (dispatch loop flushes, cache lookups, pool posts):
//      no mutex, no allocation, one relaxed atomic RMW.
//   2. Reads (snapshots, exposition) are rare and may be slow.
//   3. Metric objects live forever once registered — instrumentation
//      sites hold plain references and never re-look-up by name.
//
// Counters spread their increments over a small fixed array of
// cache-line-padded atomic cells; each thread hashes to a cell, so
// concurrent writers on different cells never contend and the summed
// value is exact (reads sum all cells).  Gauges are single atomics
// (set-dominated, not increment-dominated).  Histograms keep one
// atomic per bucket plus packed-double sum; bounds are inclusive
// upper edges with Prometheus `le` semantics and an implicit +Inf
// overflow bucket.  Every latency histogram shares one set of
// log-linear edges, so bucket counts from different histograms or
// processes add up, and quantile() reads a percentile from the sum.
//
// This library is the bottom layer of the tree (linked by util and
// everything above); it depends only on the standard library.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace vppb::obs {

/// Number of per-counter shards.  Power of two; 16 cells × 64 bytes =
/// 1 KiB per counter, enough to keep a few dozen writer threads off
/// each other's lines.
inline constexpr std::size_t kCounterShards = 16;

/// Index of the calling thread's shard.  Threads are numbered in
/// creation order and folded into the shard range; the assignment is
/// stable for a thread's lifetime.
inline std::size_t shard_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t idx =
      next.fetch_add(1, std::memory_order_relaxed);
  return idx & (kCounterShards - 1);
}

/// Monotonic counter.  inc() is one relaxed fetch_add on the calling
/// thread's shard; value() sums the shards (exact, but only
/// monotonically consistent — concurrent increments may or may not be
/// included).
class Counter {
 public:
  Counter(std::string name, std::string help)
      : name_(std::move(name)), help_(std::move(help)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::uint64_t n = 1) {
    cells_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }
  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::string name_;
  std::string help_;
  Cell cells_[kCounterShards];
};

/// Last-write-wins signed gauge (queue depths, cache bytes, in-flight
/// requests).  A single atomic: gauges are set/add from few sites, not
/// hammered from every thread.
class Gauge {
 public:
  Gauge(std::string name, std::string help)
      : name_(std::move(name)), help_(std::move(help)) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void sub(std::int64_t n) { v_.fetch_sub(n, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  std::string name_;
  std::string help_;
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket histogram.  `bounds` are inclusive upper edges in
/// ascending order (Prometheus `le`); observations above the last edge
/// land in the implicit +Inf bucket.  observe() is a binary search
/// over the edges plus one relaxed RMW (bucket) and one CAS loop
/// (packed-double sum).  The buckets are the only count, so a reader
/// can never see a total that disagrees with them.
class Histogram {
 public:
  Histogram(std::string name, std::string help, std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// `exemplar_trace_id`, when nonzero, is captured as the bucket's
  /// exemplar (last writer wins): the exposition links the bucket to a
  /// concrete distributed trace an operator can pull with trace-collect.
  void observe(double v, std::uint64_t exemplar_trace_id = 0);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Non-cumulative count of bucket i; index bounds().size() is +Inf.
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Last captured exemplar trace id for bucket i (0 = none) and the
  /// observation it came from.  The pair is racy across writers —
  /// id and value may briefly disagree — which is fine for a debugging
  /// breadcrumb.
  std::uint64_t exemplar_trace_id(std::size_t i) const {
    return exemplar_ids_[i].load(std::memory_order_relaxed);
  }
  double exemplar_value(std::size_t i) const;
  /// Sum of the buckets.
  std::uint64_t count() const;
  double sum() const;
  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  std::string name_;
  std::string help_;
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds+1 cells
  std::unique_ptr<std::atomic<std::uint64_t>[]> exemplar_ids_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> exemplar_bits_;  // double
  std::atomic<std::uint64_t> sum_bits_{0};  // bit-packed double
};

/// Buckets of a latency histogram: the edges of latency_us_bounds()
/// plus +Inf.  The stats wire format carries this many counts.
inline constexpr std::size_t kLatencyBuckets = 138;

/// Microsecond-latency edges shared by every latency histogram (server,
/// pool), so their counts add up across histograms and processes: 8
/// linear steps per power of two from 32 us to 2^22 us (about 4.2 s).
/// For a sample above 32 us, its bucket's edge is less than 1/8 above
/// it.
const std::vector<double>& latency_us_bounds();

/// The upper edge of the bucket that holds the q-quantile (q in [0, 1]:
/// the sample of rank ceil(q * n), at least 1) of the samples counted
/// in `counts`, non-cumulative, one per edge of latency_us_bounds() then
/// +Inf.  An upper bound on the true quantile.  0 when no sample is
/// counted; +inf when the rank falls past the last edge.
double quantile(std::span<const std::uint64_t, kLatencyBuckets> counts,
                double q);

/// Named home for every metric in the process.  Registration takes a
/// mutex and allocates; do it once at an instrumentation site (e.g. a
/// function-local static holding the returned reference) and keep the
/// reference.  Re-registering a name returns the existing metric; a
/// name may be registered as only one kind.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name, std::string_view help);
  Gauge& gauge(std::string_view name, std::string_view help);
  /// `bounds` is consulted only on first registration.
  Histogram& histogram(std::string_view name, std::string_view help,
                       std::vector<double> bounds);

  /// Prometheus text exposition (version 0.0.4): HELP/TYPE comments,
  /// cumulative `_bucket{le=...}` lines, `_sum`/`_count`, families
  /// sorted by name.
  std::string prometheus_text() const;

  /// The process-wide registry, for the layers a process has one of
  /// (engine, loader, pool, guard, tracer, proxy).  An object a process
  /// may hold several of (a server's Metrics, a TraceCache) owns its own
  /// Registry instead, so two of them never share a counter.
  static Registry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace vppb::obs
