// Global per-client admission for the routing tier: one token bucket
// per caller identity, refilled continuously at `rps` with capacity
// `burst`.
//
// This is the cluster-wide complement of the shard's per-client
// *in-flight* limit.  The shard limit bounds concurrency per shard, so
// a client spraying requests across K shards still gets K times its
// budget; the proxy sits in front of every shard and enforces *rate*
// exactly once.  A rejected request gets a typed kQuotaExceeded with a
// retry_after_ms hint: the time until the caller's next token refills,
// so a well-behaved client can sleep precisely instead of hammering.
//
// Time is passed in by the caller (steady_clock points), never read
// here — unit tests drive the bucket with synthetic clocks and the
// refill math stays deterministic.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>

namespace vppb::cluster {

struct QuotaOptions {
  /// Sustained tokens per second per client; <= 0 disables the quota
  /// entirely (admit() always admits).
  double rps = 0.0;
  /// Bucket capacity: how many requests a client may burst after an
  /// idle period before the sustained rate applies.
  double burst = 8.0;
};

/// Thread-safe per-client token-bucket map.
class ClientQuota {
 public:
  explicit ClientQuota(QuotaOptions opt);

  struct Verdict {
    bool admitted = true;
    /// When rejected: milliseconds until one token refills for this
    /// client (always >= 1, so a client that honors the hint cannot
    /// spin on a zero wait).
    std::int64_t retry_after_ms = 0;
  };

  /// Charges one token to `client` at time `now`.  `client` is the
  /// resolved identity: Request::client_id, or the proxy's connection
  /// key for anonymous callers.
  Verdict admit(std::uint64_t client,
                std::chrono::steady_clock::time_point now);

  bool enabled() const { return opt_.rps > 0.0; }
  std::uint64_t rejections() const;

 private:
  struct Bucket {
    double tokens = 0.0;
    std::chrono::steady_clock::time_point last;
  };

  void evict_idle_locked(std::chrono::steady_clock::time_point now);

  const QuotaOptions opt_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Bucket> buckets_;
  std::uint64_t rejections_ = 0;
};

}  // namespace vppb::cluster
