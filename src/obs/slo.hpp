// SLO burn-rate tracking: turns a stream of per-request outcomes into
// the multi-window burn rates an operator alerts on.
//
// An objective defines an error budget: a p99 latency target allows 1%
// of requests over the target, an availability target of 0.999 allows
// 0.1% failed requests.  The burn rate over a window is the fraction
// of budget-violating requests divided by the allowed fraction — 1.0
// means spending the budget exactly as fast as the objective permits,
// 10 means ten times too fast.  Following the multi-window pattern, a
// breach is declared only when a short AND a long window both burn
// (fast: 1m and 5m above 14.4; slow: 5m and 1h above 6), so a single
// slow request cannot page but a sustained regression cannot hide.
//
// The tracker keeps one bucket per second in a fixed ring (1h of
// history, ~40 KiB); record() is a mutex-guarded handful of integer
// increments, negligible next to the request it accounts for.  Both
// record() and burn() accept an explicit second stamp so tests drive
// time deterministically.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

namespace vppb::obs {

struct SloOptions {
  double p99_ms = 0.0;        ///< latency objective: p99 <= this (0 = off)
  double availability = 0.0;  ///< success-fraction objective, e.g. 0.999
                              ///< (0 = off)
  bool enabled() const { return p99_ms > 0.0 || availability > 0.0; }
};

/// Burn rates per objective per window, plus the combined multi-window
/// breach verdict.
struct BurnRates {
  double lat_1m = 0.0;
  double lat_5m = 0.0;
  double lat_1h = 0.0;
  double avail_1m = 0.0;
  double avail_5m = 0.0;
  double avail_1h = 0.0;
  bool burning = false;
};

class SloTracker {
 public:
  /// Fast-burn threshold over the 1m+5m windows, slow-burn over 5m+1h.
  static constexpr double kFastBurn = 14.4;
  static constexpr double kSlowBurn = 6.0;

  SloTracker() = default;
  explicit SloTracker(const SloOptions& opt) : opt_(opt) {}

  /// Replaces the objectives (startup-time configuration).
  void configure(const SloOptions& opt);
  const SloOptions& options() const { return opt_; }
  bool enabled() const { return opt_.enabled(); }

  /// Accounts one completed request.  `ok` is the availability verdict
  /// (admission rejections are not failures; errors and deadline
  /// misses are — the caller decides).  `now_s` overrides the clock
  /// for tests (-1 = steady clock).
  void record(double latency_us, bool ok, std::int64_t now_s = -1);

  /// Burn rates over the trailing 1m / 5m / 1h windows ending now.
  /// Cheap enough to call on every stats request.
  BurnRates burn(std::int64_t now_s = -1) const;

 private:
  struct Bucket {
    std::int64_t sec = -1;  ///< stamp owning this slot (-1 = empty)
    std::uint32_t total = 0;
    std::uint32_t slow = 0;    ///< over the latency target
    std::uint32_t failed = 0;  ///< not ok
  };
  static constexpr std::size_t kBuckets = 3600;

  std::int64_t steady_s() const;
  /// Sums buckets with stamps in (now_s - window_s, now_s].
  void window_sum(std::int64_t now_s, std::int64_t window_s,
                  std::uint64_t* total, std::uint64_t* slow,
                  std::uint64_t* failed) const;

  SloOptions opt_;
  mutable std::mutex mu_;
  std::vector<Bucket> slots_ = std::vector<Bucket>(kBuckets);
};

}  // namespace vppb::obs
