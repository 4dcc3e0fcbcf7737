#include "obs/span.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <new>

#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace vppb::obs {

namespace {
// Thread-local distributed-trace id stamped onto recorded events.
thread_local std::uint64_t tl_trace_id = 0;
}  // namespace

TraceContext::TraceContext(std::uint64_t trace_id) : saved_(tl_trace_id) {
  tl_trace_id = trace_id;
}

TraceContext::~TraceContext() { tl_trace_id = saved_; }

std::uint64_t TraceContext::current() { return tl_trace_id; }

Tracer::Tracer() {
  epoch_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now().time_since_epoch())
                  .count();
  epoch_unix_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::system_clock::now().time_since_epoch())
                       .count();
}

Tracer& Tracer::global() {
  // Leaked so emitting threads may outlive static destruction.
  static Tracer* g = new Tracer();
  return *g;
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count() -
         epoch_ns_;
}

Tracer::Ring& Tracer::ring_for_this_thread() {
  // The lease gives the ring back when the thread exits.
  struct Lease {
    Ring* ring = nullptr;
    ~Lease() {
      if (ring == nullptr) return;
      std::lock_guard<std::mutex> lk(Tracer::global().rings_mu_);
      ring->leased = false;
    }
  };
  thread_local Lease lease;
  if (lease.ring == nullptr) {
    std::lock_guard<std::mutex> lk(rings_mu_);
    // The lowest-numbered free ring, so export lanes keep the order in
    // which their threads started tracing.
    for (const auto& r : rings_) {
      if (!r->leased) {
        lease.ring = r.get();
        break;
      }
    }
    if (lease.ring == nullptr) {
      auto ring = std::make_unique<Ring>();
      ring->tid = static_cast<std::uint32_t>(rings_.size() + 1);
      ring->slots.reset(static_cast<SpanEvent*>(
          std::calloc(kRingCapacity, sizeof(SpanEvent))));
      if (!ring->slots) throw std::bad_alloc();
      lease.ring = ring.get();
      rings_.push_back(std::move(ring));
    }
    lease.ring->leased = true;
  }
  return *lease.ring;
}

void Tracer::record(const SpanEvent& ev) {
  Ring& r = ring_for_this_thread();
  const std::uint64_t n = r.n.load(std::memory_order_relaxed);
  if (n >= kRingCapacity) {
    // Overwriting the oldest surviving event: account the drop where
    // operators look (the metrics registry), not only in the export
    // footnote, so trace-collect can warn about truncated rings.
    static Counter& drops = Registry::global().counter(
        "vppb_trace_dropped_total",
        "Span events overwritten in full tracer rings");
    drops.inc();
  }
  r.slots[n % kRingCapacity] = ev;
  // Publish after the slot write so a concurrent export never reads an
  // unwritten slot (single writer per ring).
  r.n.store(n + 1, std::memory_order_release);
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lk(rings_mu_);
  for (auto& r : rings_) r->n.store(0, std::memory_order_relaxed);
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lk(rings_mu_);
  std::size_t total = 0;
  for (const auto& r : rings_) {
    total += static_cast<std::size_t>(
        std::min<std::uint64_t>(r->n.load(std::memory_order_acquire),
                                kRingCapacity));
  }
  return total;
}

std::size_t Tracer::dropped_count() const {
  std::lock_guard<std::mutex> lk(rings_mu_);
  std::size_t total = 0;
  for (const auto& r : rings_) {
    const std::uint64_t n = r->n.load(std::memory_order_acquire);
    if (n > kRingCapacity) total += static_cast<std::size_t>(n - kRingCapacity);
  }
  return total;
}

namespace {

void append_event(std::string& out, const SpanEvent& ev, std::uint64_t pid,
                  std::uint32_t tid, bool* first) {
  if (!*first) out += ",\n";
  *first = false;
  char buf[160];
  out += R"({"name":")";
  append_json_escaped(out, ev.name != nullptr ? ev.name : "?");
  out += R"(","cat":")";
  append_json_escaped(out, ev.cat != nullptr ? ev.cat : "vppb");
  // Chrome trace timestamps are microseconds; keep ns precision via
  // the fractional part.
  if (ev.dur_ns >= 0) {
    std::snprintf(buf, sizeof(buf),
                  R"(","ph":"X","ts":%.3f,"dur":%.3f,"pid":%)" PRIu64
                  R"(,"tid":%u)",
                  static_cast<double>(ev.start_ns) / 1e3,
                  static_cast<double>(ev.dur_ns) / 1e3, pid, tid);
  } else {
    std::snprintf(buf, sizeof(buf),
                  R"(","ph":"i","s":"t","ts":%.3f,"pid":%)" PRIu64
                  R"(,"tid":%u)",
                  static_cast<double>(ev.start_ns) / 1e3, pid, tid);
  }
  out += buf;
  if (ev.arg_name != nullptr || ev.trace_id != 0) {
    out += R"(,"args":{)";
    bool first_arg = true;
    if (ev.trace_id != 0) {
      std::snprintf(buf, sizeof(buf), R"("trace_id":"%016)" PRIx64 "\"",
                    ev.trace_id);
      out += buf;
      first_arg = false;
    }
    if (ev.arg_name != nullptr) {
      if (!first_arg) out += ',';
      out += '"';
      append_json_escaped(out, ev.arg_name);
      std::snprintf(buf, sizeof(buf), R"(":%)" PRId64, ev.arg_value);
      out += buf;
    }
    out += '}';
  }
  out += '}';
}

}  // namespace

std::vector<Tracer::SnapshotEvent> Tracer::snapshot(
    std::size_t max_events) const {
  std::lock_guard<std::mutex> lk(rings_mu_);
  std::vector<SnapshotEvent> out;
  for (const auto& r : rings_) {
    const std::uint64_t n = r->n.load(std::memory_order_acquire);
    std::uint64_t kept = std::min<std::uint64_t>(n, kRingCapacity);
    if (max_events != 0) kept = std::min<std::uint64_t>(kept, max_events);
    for (std::uint64_t i = n - kept; i < n; ++i) {
      out.push_back({r->tid, r->slots[i % kRingCapacity]});
    }
  }
  return out;
}

std::string Tracer::chrome_json(std::uint64_t pid) const {
  std::lock_guard<std::mutex> lk(rings_mu_);
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  std::uint64_t dropped = 0;
  for (const auto& r : rings_) {
    const std::uint64_t n = r->n.load(std::memory_order_acquire);
    const std::uint64_t kept = std::min<std::uint64_t>(n, kRingCapacity);
    if (n > kept) dropped += n - kept;
    // Oldest surviving event first.
    for (std::uint64_t i = n - kept; i < n; ++i) {
      append_event(out, r->slots[i % kRingCapacity], pid, r->tid, &first);
    }
  }
  if (dropped > 0) {
    SpanEvent note;
    note.name = "obs.dropped_events";
    note.cat = "obs";
    note.start_ns = 0;
    note.dur_ns = -1;
    note.arg_name = "dropped";
    note.arg_value = static_cast<std::int64_t>(dropped);
    append_event(out, note, pid, 0, &first);
  }
  out += "\n]}\n";
  return out;
}

void instant(const char* name, const char* cat, const char* arg_name,
             std::int64_t arg_value) {
  Tracer& t = Tracer::global();
  if (!t.enabled()) return;
  SpanEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.start_ns = t.now_ns();
  ev.dur_ns = -1;
  ev.arg_name = arg_name;
  ev.arg_value = arg_value;
  ev.trace_id = TraceContext::current();
  t.record(ev);
}

}  // namespace vppb::obs
