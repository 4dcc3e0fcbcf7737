// Deterministic pseudo-random numbers for the reference machine's noise
// models and for the workload generators.  xoshiro256** seeded via
// SplitMix64: fast, high quality, and identical across platforms (unlike
// std::normal_distribution, whose output is implementation-defined).
//
// Below it, the one-word xorshift64* step and the decorrelated-jitter
// backoff built on it, shared by every retry, re-probe and restart
// schedule and by the netem relay's seeded faults.
#pragma once

#include <algorithm>
#include <cstdint>

namespace vppb {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double next_double();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n).  n must be > 0.
  std::uint64_t below(std::uint64_t n);

  /// Standard normal via Box–Muller (deterministic across platforms).
  double gaussian();

  /// Normal with the given mean and standard deviation.
  double gaussian(double mean, double stddev);

  /// Multiplicative jitter: a positive factor with mean ~1 and the given
  /// relative standard deviation, clamped to [1-4σ, 1+4σ] and ≥ 0.01.
  double jitter_factor(double rel_stddev);

  /// Split off an independent stream (for per-thread determinism).
  Rng split();

 private:
  std::uint64_t s_[4] = {};
  bool have_spare_ = false;
  double spare_ = 0.0;
};

/// xorshift64*: one step of a tiny generator for jitter and fault
/// schedules, where a sequence replayable from its seed matters and
/// statistical quality does not.  `state` must be nonzero.
inline std::uint64_t xorshift64s(std::uint64_t& state) {
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 2685821657736338717ULL;
}

/// Decorrelated jitter: the sleep after `prev_ms` is uniform in
/// [base, min(cap, 3 x prev)] (just base when prev is 0, the first
/// sleep).  Spreads concurrent retriers apart instead of letting them
/// re-collide in synchronized waves.
inline std::int64_t jitter_backoff_ms(std::int64_t prev_ms,
                                      std::int64_t base_ms,
                                      std::int64_t cap_ms,
                                      std::uint64_t& state) {
  const std::int64_t hi = std::max(base_ms, std::min(cap_ms, prev_ms * 3));
  const std::uint64_t span = static_cast<std::uint64_t>(hi - base_ms) + 1;
  return base_ms + static_cast<std::int64_t>(xorshift64s(state) % span);
}

}  // namespace vppb
