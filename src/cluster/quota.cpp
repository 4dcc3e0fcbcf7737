#include "cluster/quota.hpp"

#include <algorithm>
#include <cmath>

namespace vppb::cluster {
namespace {

/// Bound on tracked identities; beyond it, fully-refilled (idle)
/// buckets are evicted first.  An idle bucket and a fresh one behave
/// identically, so eviction never changes an admission decision.
constexpr std::size_t kMaxClients = 4096;

}  // namespace

ClientQuota::ClientQuota(QuotaOptions opt) : opt_(opt) {}

ClientQuota::Verdict ClientQuota::admit(
    std::uint64_t client, std::chrono::steady_clock::time_point now) {
  Verdict v;
  if (!enabled()) return v;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = buckets_.find(client);
  if (it == buckets_.end()) {
    if (buckets_.size() >= kMaxClients) evict_idle_locked(now);
    Bucket fresh;
    fresh.tokens = std::max(opt_.burst, 1.0);
    fresh.last = now;
    it = buckets_.emplace(client, fresh).first;
  }
  Bucket& b = it->second;
  const double elapsed_s =
      std::chrono::duration<double>(now - b.last).count();
  if (elapsed_s > 0) {
    b.tokens = std::min(std::max(opt_.burst, 1.0),
                        b.tokens + elapsed_s * opt_.rps);
    b.last = now;
  }
  if (b.tokens >= 1.0) {
    b.tokens -= 1.0;
    return v;
  }
  ++rejections_;
  v.admitted = false;
  v.retry_after_ms = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil((1.0 - b.tokens) / opt_.rps * 1000.0)));
  return v;
}

void ClientQuota::evict_idle_locked(
    std::chrono::steady_clock::time_point now) {
  const double full = std::max(opt_.burst, 1.0);
  for (auto it = buckets_.begin(); it != buckets_.end();) {
    const double elapsed_s =
        std::chrono::duration<double>(now - it->second.last).count();
    const double refilled =
        std::min(full, it->second.tokens + elapsed_s * opt_.rps);
    if (refilled >= full) {
      it = buckets_.erase(it);
    } else {
      ++it;
    }
  }
  // When every bucket is mid-spend the map may briefly exceed the cap
  // (bounded by concurrently *active* identities, which admission
  // itself bounds); never evicting a non-full bucket keeps decisions
  // exact — dropping one would hand its owner a fresh burst.
}

std::uint64_t ClientQuota::rejections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejections_;
}

}  // namespace vppb::cluster
