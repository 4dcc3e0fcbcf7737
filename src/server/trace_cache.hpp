// The compiled-trace cache: the reason a resident daemon beats the
// one-shot CLI for the paper's interactive what-if loop.
//
// Keying is content-addressed: the key is an FNV-1a digest of the raw
// trace file bytes, so renaming a file, serving the same trace from two
// paths, or re-recording an identical run all share one entry, while a
// changed file can never serve stale predictions.  The expensive work —
// parsing and core::compile — happens at most once per content digest:
// concurrent requests for a not-yet-loaded trace are single-flighted
// (the first requester loads, the rest wait on the slot and count as
// hits), which is what makes "N clients, 1 compile" an invariant rather
// than a fast-path.
//
// Eviction is LRU over ready entries, bounded by entry count and by the
// entry's *charged* size: the raw file bytes plus an estimate of the
// parsed + compiled in-memory footprint (records, steps, locations).
// Charging only file bytes — the original accounting — let a compact
// binary trace that expands ~10x in memory blow far past max_bytes_.
// Entries are handed out as shared_ptr, so an eviction never
// invalidates an in-flight request — the entry dies when the last
// request using it finishes.
//
// The cache is also the poison-trace circuit breaker: the server calls
// record_strike(path) whenever a request over that content crashes a
// worker or is killed by a resource budget.  After `strikes_to_trip`
// strikes the content key is quarantined for `quarantine_ms`: get() and
// check_poisoned() throw a typed Poisoned error without any parse or
// dispatch.  Quarantine decays rather than lasting forever — when the
// window expires the key is admissible again but keeps half its strike
// count, so a repeat offender re-trips quickly while a trace that was
// killed by transient overload works its way back to a clean record.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/compiler.hpp"
#include "core/guard.hpp"
#include "obs/metrics.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace vppb::server {

/// Typed rejection for quarantined trace content; the dispatcher turns
/// it into Status::kPoisoned.
class Poisoned : public Error {
 public:
  explicit Poisoned(const std::string& what) : Error(what) {}
};

/// The FNV-1a content digest the cache keys by.  Exposed so the cluster
/// routing tier hashes trace content with the *same* function: a trace's
/// routing shard and its cache key agree by construction, which is what
/// makes each shard's cache see a disjoint, stable slice of traces.
std::uint64_t content_key(const std::uint8_t* data, std::size_t n);

/// content_key over the raw bytes of the file at `path`.  Throws
/// vppb::Error when the file cannot be read.
std::uint64_t content_key_of_file(const std::string& path);

class TraceCache {
 public:
  struct Entry {
    std::uint64_t key = 0;  ///< FNV-1a of the file bytes
    trace::Trace trace;
    core::CompiledTrace compiled;
    /// Charged size: raw file bytes + estimated parsed/compiled
    /// footprint (budget accounting).
    std::size_t bytes = 0;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t waits = 0;  ///< requests that waited out another's load
    std::size_t entries = 0;
    std::size_t bytes = 0;
    std::uint64_t poison_strikes = 0;    ///< strikes recorded
    std::uint64_t quarantine_trips = 0;  ///< keys entering quarantine
    std::uint64_t poison_rejects = 0;    ///< lookups rejected as Poisoned
    std::size_t quarantined = 0;         ///< keys quarantined right now
  };

  /// `faults` (optional, unowned) injects deterministic cache failures
  /// — kCacheEnomem (std::bad_alloc) and kCacheEio (vppb::Error) — on
  /// the load path, for recovery testing.
  TraceCache(std::size_t max_entries, std::size_t max_bytes,
             util::FaultPlan* faults = nullptr);

  /// Returns the cached entry for the trace at `path`, loading (parse +
  /// compile) on first sight of its content.  Waiting out another
  /// request's in-flight load counts as a hit.  Throws vppb::Error on
  /// unreadable or malformed traces, Poisoned on quarantined content.
  /// `guard` (optional) is polled during parse + compile so a cancelled
  /// request abandons even the load stage.  `loaded` (optional) reports
  /// whether this call paid the parse+compile (request timelines name
  /// the stage "compile" instead of "cache-lookup" when it did).
  std::shared_ptr<const Entry> get(const std::string& path,
                                   const core::RunGuard* guard = nullptr,
                                   bool* loaded = nullptr);

  /// Arms the circuit breaker: `strikes_to_trip` strikes quarantine a
  /// content key for `quarantine_ms`.  strikes_to_trip <= 0 disables it
  /// (the default).
  void configure_quarantine(int strikes_to_trip, std::int64_t quarantine_ms);

  /// Records one crash/budget-kill strike against the content at
  /// `path`.  Reads and digests the file; an unreadable file is ignored
  /// (there is nothing to quarantine).  Never throws.
  void record_strike(const std::string& path) noexcept;

  /// Throws Poisoned when the content at `path` is quarantined.  Cheap
  /// when no key has ever been struck (one atomic load, no file read),
  /// which is what lets the server call it on every request's pre-
  /// dispatch path.
  void check_poisoned(const std::string& path);

  /// Reads the counters and refreshes the time-dependent `quarantined`
  /// gauge, so a registry() exposition taken after it is current.
  Stats stats() const;

  /// This cache's families (vppb_cache_*), the same objects stats()
  /// reads; a vppbd's metricsdump prints them last.
  const obs::Registry& registry() const { return registry_; }

 private:
  struct PoisonState {
    int strikes = 0;  ///< strikes since the last decay
    std::uint64_t trips = 0;
    /// Quarantined while now < until; default = not quarantined.
    std::chrono::steady_clock::time_point until{};
  };

  /// Enforces quarantine for `key` and applies lazy decay.  Throws
  /// Poisoned.  Caller holds mu_.
  void check_poisoned_locked(std::uint64_t key);
  struct Slot {
    std::shared_ptr<const Entry> entry;  ///< null while loading
    std::list<std::uint64_t>::iterator lru;  ///< valid when ready
  };

  void evict_locked();

  const std::size_t max_entries_;
  const std::size_t max_bytes_;
  util::FaultPlan* faults_ = nullptr;

  // Every counter and gauge is kept once, here; the references point
  // into registry_, which is therefore declared first.
  obs::Registry registry_;
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& evictions_;
  obs::Counter& waits_;
  obs::Counter& poison_strikes_;
  obs::Counter& quarantine_trips_;
  obs::Counter& poison_rejects_;
  obs::Gauge& entries_;      ///< ready entries; set after every insert
  obs::Gauge& bytes_;        ///< charged bytes resident: the budget ledger
  obs::Gauge& quarantined_;  ///< refreshed by stats()

  mutable std::mutex mu_;
  std::condition_variable loaded_cv_;  ///< a load finished (or failed)
  std::unordered_map<std::uint64_t, Slot> slots_;
  std::list<std::uint64_t> lru_;  ///< most-recent first, ready keys only

  int strikes_to_trip_ = 0;  ///< <= 0: circuit breaker disabled
  std::int64_t quarantine_ms_ = 30000;
  /// Lock-free gate for check_poisoned's fast path: number of keys with
  /// any strike history.  0 means no file read is ever needed.
  std::atomic<std::size_t> poison_keys_{0};
  std::unordered_map<std::uint64_t, PoisonState> poison_;
};

}  // namespace vppb::server
