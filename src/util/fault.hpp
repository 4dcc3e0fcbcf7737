// Deterministic fault injection for resilience testing.
//
// A FaultPlan is a set of rules, one per injection site, parsed from a
// spec string (the `VPPB_FAULT` environment variable for the daemon, or
// built programmatically in tests):
//
//   VPPB_FAULT="corrupt-frame:5,short-read:7:2,delay-ms:3:0:40"
//
// Each entry is `site:period[:limit[:param]]` — the site fires on every
// `period`-th hit, at most `limit` times (0 = unlimited), with an
// optional integer parameter (e.g. the delay in milliseconds).  There
// is no randomness anywhere: the same request sequence always injects
// the same faults, so a recovery test that passes is a proof, not a
// coin flip.
//
// Sites (where the server consults the plan):
//   corrupt-frame  flip a byte of an incoming request payload
//   short-read     drop the connection after reading a frame, as if the
//                  peer vanished mid-stream
//   delay-ms       stall a worker before it runs a request (param = ms);
//                  the stall is cooperative — it polls the request's
//                  RunGuard, so a watchdog cancel cuts it short
//   cache-enomem   throw std::bad_alloc inside the trace-cache load
//   cache-eio      fail the trace file read with an I/O error
//   wedge-ms       stall a worker *uncancellably* (param = ms), as if it
//                  were stuck in a tight native loop — exercises the
//                  watchdog's abandon-and-replace escalation
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

namespace vppb::util {

enum class FaultSite : int {
  kCorruptFrame = 0,
  kShortRead,
  kDelayResponse,
  kCacheEnomem,
  kCacheEio,
  kWedge,
  kCount,
};

class FaultPlan {
 public:
  FaultPlan() = default;  ///< no rules: nothing ever fires

  /// Parses a spec string (see file comment).  Throws vppb::Error on
  /// unknown sites or malformed entries.  Empty spec = no rules.
  static FaultPlan parse(const std::string& spec);

  /// The process-wide plan, parsed once from $VPPB_FAULT (empty or
  /// unset = inert).  A bad spec in the environment throws on first use
  /// rather than silently running without faults.
  static FaultPlan& global();

  /// Counts a hit at `site`; returns true when the rule says this hit
  /// fires (every period-th hit, up to the limit).  Thread-safe.
  bool should_fire(FaultSite site);

  /// The rule's parameter (0 when absent or the site has no rule).
  std::int64_t param(FaultSite site) const;

  /// True when any rule is configured.
  bool armed() const;

  /// Total faults injected so far, across all sites.
  std::uint64_t fired_total() const;

  /// Human-readable description of the configured rules ("off" when
  /// inert), for the daemon's startup banner.
  std::string summary() const;

 private:
  struct Rule {
    std::uint64_t period = 0;  ///< 0 = site disabled
    std::uint64_t limit = 0;   ///< 0 = unlimited
    std::int64_t param = 0;
    std::uint64_t hits = 0;
    std::uint64_t fired = 0;
  };

  mutable std::mutex mu_;
  Rule rules_[static_cast<int>(FaultSite::kCount)];

 public:
  // Copyable so parse() can return by value; the mutex is per-instance
  // state, not shared.
  FaultPlan(const FaultPlan& other);
  FaultPlan& operator=(const FaultPlan& other);
};

}  // namespace vppb::util
