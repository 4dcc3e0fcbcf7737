// Span tracer: scoped RAII timers and instant events, ring-buffered
// per thread, exportable as Chrome trace-event JSON (load the file at
// https://ui.perfetto.dev or chrome://tracing).
//
// Cost model: when tracing is disabled — the default — constructing a
// Span is one relaxed atomic load and a branch, and nothing is ever
// recorded, so instrumentation can stay compiled into release builds.
// When enabled, ending a span appends one POD event to a fixed-size
// thread-local ring with no locks on the hot path (the ring is
// registered once per thread under a mutex).  A ring's slots come
// zeroed from calloc, so the kernel backs a page only when the first
// event lands on it: a thread that records a few spans keeps a few
// pages resident, not the whole ring.  Rings overwrite their oldest
// events when full; the export notes how many were dropped.
// A thread that exits hands its ring, events included, to the next
// thread that needs one, so a process keeps as many rings as it ever
// had tracing threads alive at once, not one per thread it started.
//
// Event names and categories must be string literals (or otherwise
// immortal): rings store `const char*` and events may be exported long
// after the emitting scope returned.
//
// Exporting while other threads still emit is safe in the sense that
// each published event is read consistently (single writer per ring,
// release/acquire on the published count); a ring that wraps *during*
// the export can surface a stale mix of old and new events, which is
// acceptable for a profiler.  The CLI exports after the traced work
// completes.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace vppb::obs {

/// One completed span ("ph":"X") or instant event ("ph":"i").  POD so
/// ring slots can be overwritten freely.
struct SpanEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  std::int64_t start_ns = 0;  ///< steady-clock ns since tracer epoch
  std::int64_t dur_ns = -1;   ///< -1 = instant event
  const char* arg_name = nullptr;  ///< optional single numeric arg
  std::int64_t arg_value = 0;
  /// Distributed-trace id propagated from the request that was being
  /// served when the span was recorded (0 = not request-scoped).
  std::uint64_t trace_id = 0;
};

/// Scoped thread-local trace context: while alive, every Span/instant
/// recorded on this thread is tagged with `trace_id`, so spans emitted
/// deep inside the engine/cache are attributable to the distributed
/// trace of the request being served.  Nests (restores the previous id
/// on destruction); crossing threads means installing a new context on
/// the worker, which is what the server's dispatch path does.
class TraceContext {
 public:
  explicit TraceContext(std::uint64_t trace_id);
  ~TraceContext();
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  /// The calling thread's current trace id (0 = none).
  static std::uint64_t current();

 private:
  std::uint64_t saved_;
};

class Tracer {
 public:
  /// Events kept per ring; oldest overwritten beyond this.
  static constexpr std::size_t kRingCapacity = 1 << 16;

  /// The process-wide tracer all Spans record into.
  static Tracer& global();

  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drops all recorded events (rings stay registered to their
  /// threads).  Not safe concurrently with emitting threads.
  void clear();

  /// ns since the tracer's epoch (process start), on the steady clock.
  std::int64_t now_ns() const;

  void record(const SpanEvent& ev);

  /// Registers the calling thread's ring, allocating its slots on first
  /// use.  Span calls it before taking its start time, so a thread's
  /// first span does not time the allocation of its ring.
  void attach_this_thread() { (void)ring_for_this_thread(); }

  /// Number of events currently held across all rings, plus the count
  /// overwritten since the last clear().
  std::size_t event_count() const;
  std::size_t dropped_count() const;

  /// System-clock (unix) ns corresponding to tracer timestamp 0.
  /// Lets a collector place this process's events on a host-wide
  /// timeline: absolute time of an event = epoch_unix_ns() + start_ns.
  std::int64_t epoch_unix_ns() const { return epoch_unix_ns_; }

  /// One event as seen by snapshot(): the ring's stable export tid
  /// plus the event itself.
  struct SnapshotEvent {
    std::uint32_t tid = 0;
    SpanEvent ev;
  };

  /// Copies every currently-held event (oldest surviving first per
  /// ring), up to `max_events` most-recent per ring (0 = no cap).
  /// Safe concurrently with emitting threads, same caveat as the JSON
  /// export: a ring that wraps mid-copy can yield a stale mix.
  std::vector<SnapshotEvent> snapshot(std::size_t max_events = 0) const;

  /// Chrome trace-event JSON: {"traceEvents":[...]}.  Timestamps are
  /// fractional microseconds; `pid` labels this process's lane (the
  /// cluster collector passes the shard id).
  std::string chrome_json(std::uint64_t pid = 1) const;

 private:
  struct FreeSlots {
    void operator()(SpanEvent* p) const { std::free(p); }
  };
  struct Ring {
    std::uint32_t tid = 0;  ///< stable per-ring export id
    bool leased = false;    ///< held by a live thread (under rings_mu_)
    std::atomic<std::uint64_t> n{0};  ///< events ever written
    /// kRingCapacity slots; those at or beyond `n` are never read.
    std::unique_ptr<SpanEvent[], FreeSlots> slots;
  };

  Tracer();
  Ring& ring_for_this_thread();

  std::atomic<bool> enabled_{false};
  std::int64_t epoch_ns_ = 0;  ///< steady-clock origin of timestamps
  std::int64_t epoch_unix_ns_ = 0;  ///< system-clock time of timestamp 0
  mutable std::mutex rings_mu_;
  // Ring pointers are immortal once registered: emitting threads hold
  // raw pointers in thread-local storage.
  std::vector<std::unique_ptr<Ring>> rings_;
};

/// Scoped timer.  Records one "X" event covering construction to
/// destruction, on the constructing thread's ring.  Must be ended on
/// the thread that created it (stack scoped — the normal use).
class Span {
 public:
  explicit Span(const char* name, const char* cat = "vppb") {
    Tracer& t = Tracer::global();
    if (t.enabled()) {
      t.attach_this_thread();
      ev_.name = name;
      ev_.cat = cat;
      ev_.start_ns = t.now_ns();
      ev_.trace_id = TraceContext::current();
      active_ = true;
    }
  }
  ~Span() { finish(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches one numeric argument, shown in the event's detail pane.
  /// `name` must be immortal.  Last call wins.
  void arg(const char* name, std::int64_t value) {
    ev_.arg_name = name;
    ev_.arg_value = value;
  }

  /// Ends the span early (idempotent).
  void finish() {
    if (!active_) return;
    active_ = false;
    Tracer& t = Tracer::global();
    ev_.dur_ns = t.now_ns() - ev_.start_ns;
    t.record(ev_);
  }

 private:
  SpanEvent ev_;
  bool active_ = false;
};

/// Zero-duration marker at the current time.  `name`, `cat`, and
/// `arg_name` must be immortal.
void instant(const char* name, const char* cat = "vppb",
             const char* arg_name = nullptr, std::int64_t arg_value = 0);

}  // namespace vppb::obs
