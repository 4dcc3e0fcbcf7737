#include "server/trace_cache.hpp"

#include <vector>

#include "obs/span.hpp"
#include "trace/binary.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace vppb::server {

std::uint64_t content_key(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t content_key_of_file(const std::string& path) {
  const std::vector<std::uint8_t> bytes = trace::read_file_bytes(path);
  return content_key(bytes.data(), bytes.size());
}

namespace {

/// Estimated in-memory footprint of a parsed + compiled trace.  The
/// budget must charge this on top of the file bytes: a compact binary
/// log expands roughly tenfold into Records and Steps, so file-bytes
/// accounting alone let the cache hold an order of magnitude more than
/// max_bytes_ promised.
std::size_t approx_footprint(const trace::Trace& t,
                             const core::CompiledTrace& c) {
  return t.records.size() * sizeof(trace::Record) +
         c.flat->total_steps * sizeof(core::Step) +
         t.locations.size() * sizeof(trace::SourceLoc) +
         t.threads.size() * (sizeof(trace::ThreadMeta) + 64);
}

}  // namespace

TraceCache::TraceCache(std::size_t max_entries, std::size_t max_bytes,
                       util::FaultPlan* faults)
    : max_entries_(max_entries),
      max_bytes_(max_bytes),
      faults_(faults),
      hits_(registry_.counter("vppb_cache_hits_total",
                              "Trace-cache lookups served from memory")),
      misses_(registry_.counter("vppb_cache_misses_total",
                                "Trace-cache lookups that loaded from disk")),
      evictions_(registry_.counter("vppb_cache_evictions_total",
                                   "LRU evictions")),
      waits_(registry_.counter(
          "vppb_cache_waits_total",
          "Lookups that waited out another request's load")),
      poison_strikes_(registry_.counter(
          "vppb_cache_poison_strikes_total",
          "Crash/budget-kill strikes recorded against traces")),
      quarantine_trips_(registry_.counter("vppb_cache_quarantine_trips_total",
                                          "Content keys entering quarantine")),
      poison_rejects_(registry_.counter(
          "vppb_cache_poison_rejects_total",
          "Lookups rejected because the content is quarantined")),
      entries_(registry_.gauge("vppb_cache_entries", "Ready entries resident")),
      bytes_(registry_.gauge(
          "vppb_cache_bytes",
          "Charged trace bytes resident (file + footprint)")),
      quarantined_(registry_.gauge("vppb_cache_quarantined",
                                   "Content keys quarantined right now")) {}

std::shared_ptr<const TraceCache::Entry> TraceCache::get(
    const std::string& path, const core::RunGuard* guard, bool* loaded) {
  obs::Span get_span("cache.get", "cache");
  if (loaded != nullptr) *loaded = false;
  // Injected faults surface as the same exception types the real
  // failures would: allocation failure and I/O error.  Both are thrown
  // before any shared state changes, so a faulted request leaves the
  // cache exactly as it found it.
  if (faults_ != nullptr) {
    if (faults_->should_fire(util::FaultSite::kCacheEnomem))
      throw std::bad_alloc();
    if (faults_->should_fire(util::FaultSite::kCacheEio))
      throw Error("injected I/O error reading trace file: " + path);
  }
  // Reading and digesting the bytes is per-request work by design: it
  // is what notices a changed file.  Parsing and compiling are not.
  const std::vector<std::uint8_t> bytes = trace::read_file_bytes(path);
  const std::uint64_t key = content_key(bytes.data(), bytes.size());

  std::unique_lock<std::mutex> lock(mu_);
  check_poisoned_locked(key);
  bool waited = false;
  for (;;) {
    auto it = slots_.find(key);
    if (it == slots_.end()) break;  // nobody has (or is loading) it
    if (it->second.entry) {
      hits_.inc();
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      return it->second.entry;
    }
    // Another request is compiling this content right now; wait for it
    // rather than compiling a second copy.  A failed load erases the
    // slot, in which case this request retries as the loader.
    if (!waited) {
      waited = true;
      waits_.inc();
    }
    loaded_cv_.wait(lock);
  }

  misses_.inc();
  if (loaded != nullptr) *loaded = true;
  slots_.emplace(key, Slot{});  // loading marker
  lock.unlock();

  std::shared_ptr<Entry> entry;
  try {
    obs::Span load_span("cache.load", "cache");
    load_span.arg("bytes", static_cast<std::int64_t>(bytes.size()));
    entry = std::make_shared<Entry>();
    entry->key = key;
    entry->bytes = bytes.size();
    // Sniffs text, "VPPB" and crash-safe "VPPC" logs alike, so the
    // daemon serves whatever the recorder managed to leave behind.
    entry->trace =
        trace::from_any(bytes.data(), bytes.size(), trace::LoadOptions{},
                        nullptr);
    if (guard != nullptr) guard->check_cancel();
    entry->compiled = core::compile(entry->trace, guard);
    entry->bytes = bytes.size() + approx_footprint(entry->trace,
                                                   entry->compiled);
  } catch (...) {
    lock.lock();
    slots_.erase(key);
    loaded_cv_.notify_all();
    throw;
  }

  lock.lock();
  Slot& slot = slots_[key];
  slot.entry = entry;
  lru_.push_front(key);
  slot.lru = lru_.begin();
  bytes_.add(static_cast<std::int64_t>(entry->bytes));
  evict_locked();
  entries_.set(static_cast<std::int64_t>(lru_.size()));
  loaded_cv_.notify_all();
  return entry;
}

void TraceCache::evict_locked() {
  // Only ready entries are on the LRU list; the entry just inserted is
  // at the front and is never evicted by its own insertion unless it
  // alone exceeds the budget (then the cache simply does not retain it).
  while (!lru_.empty() &&
         (lru_.size() > max_entries_ ||
          static_cast<std::size_t>(bytes_.value()) > max_bytes_)) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    auto it = slots_.find(victim);
    bytes_.sub(static_cast<std::int64_t>(it->second.entry->bytes));
    slots_.erase(it);
    evictions_.inc();
  }
}

void TraceCache::configure_quarantine(int strikes_to_trip,
                                      std::int64_t quarantine_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  strikes_to_trip_ = strikes_to_trip;
  if (quarantine_ms > 0) quarantine_ms_ = quarantine_ms;
}

void TraceCache::record_strike(const std::string& path) noexcept {
  std::uint64_t key = 0;
  try {
    const std::vector<std::uint8_t> bytes = trace::read_file_bytes(path);
    key = content_key(bytes.data(), bytes.size());
  } catch (...) {
    return;  // unreadable content cannot recur, so nothing to quarantine
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (strikes_to_trip_ <= 0) return;
  PoisonState& ps = poison_[key];
  poison_keys_.store(poison_.size(), std::memory_order_release);
  ++ps.strikes;
  poison_strikes_.inc();
  if (ps.strikes >= strikes_to_trip_) {
    // Strikes are kept (not reset) through the trip: after the window
    // expires the decay halves them, so a repeat offender re-trips on
    // fewer new strikes than a first-time one.
    ++ps.trips;
    quarantine_trips_.inc();
    ps.until = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(quarantine_ms_);
  }
}

void TraceCache::check_poisoned(const std::string& path) {
  if (poison_keys_.load(std::memory_order_acquire) == 0) return;
  const std::vector<std::uint8_t> bytes = trace::read_file_bytes(path);
  const std::uint64_t key = content_key(bytes.data(), bytes.size());
  std::lock_guard<std::mutex> lock(mu_);
  check_poisoned_locked(key);
}

void TraceCache::check_poisoned_locked(std::uint64_t key) {
  auto it = poison_.find(key);
  if (it == poison_.end()) return;
  PoisonState& ps = it->second;
  if (ps.until == std::chrono::steady_clock::time_point{}) return;
  const auto now = std::chrono::steady_clock::now();
  if (now < ps.until) {
    poison_rejects_.inc();
    throw Poisoned(strprintf(
        "trace content %016llx is quarantined after %d strikes "
        "(crashes or budget kills); retry after the quarantine decays",
        static_cast<unsigned long long>(key), ps.strikes));
  }
  // Quarantine window over: decay.  The key becomes admissible with
  // half its strike history; a fully decayed key is forgotten.
  ps.until = {};
  ps.strikes /= 2;
  if (ps.strikes == 0) {
    poison_.erase(it);
    poison_keys_.store(poison_.size(), std::memory_order_release);
  }
}

TraceCache::Stats TraceCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_.value();
  s.misses = misses_.value();
  s.evictions = evictions_.value();
  s.waits = waits_.value();
  s.entries = lru_.size();
  s.bytes = static_cast<std::size_t>(bytes_.value());
  s.poison_strikes = poison_strikes_.value();
  s.quarantine_trips = quarantine_trips_.value();
  s.poison_rejects = poison_rejects_.value();
  const auto now = std::chrono::steady_clock::now();
  for (const auto& [key, ps] : poison_) {
    if (ps.until != std::chrono::steady_clock::time_point{} && now < ps.until)
      ++s.quarantined;
  }
  quarantined_.set(static_cast<std::int64_t>(s.quarantined));
  return s;
}

}  // namespace vppb::server
