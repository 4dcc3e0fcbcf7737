#include "obs/slo.hpp"

#include <algorithm>
#include <chrono>

namespace vppb::obs {

namespace {

/// Per-window burn: violating fraction over the allowed fraction.
double burn_of(std::uint64_t total, std::uint64_t bad, double allowed) {
  if (total == 0 || allowed <= 0.0) return 0.0;
  return (static_cast<double>(bad) / static_cast<double>(total)) / allowed;
}

}  // namespace

void SloTracker::configure(const SloOptions& opt) {
  std::lock_guard<std::mutex> lk(mu_);
  opt_ = opt;
}

std::int64_t SloTracker::steady_s() const {
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SloTracker::record(double latency_us, bool ok, std::int64_t now_s) {
  if (now_s < 0) now_s = steady_s();
  std::lock_guard<std::mutex> lk(mu_);
  if (!opt_.enabled()) return;
  Bucket& b = slots_[static_cast<std::size_t>(now_s) % kBuckets];
  if (b.sec != now_s) b = Bucket{now_s, 0, 0, 0};
  ++b.total;
  if (opt_.p99_ms > 0.0 && latency_us > opt_.p99_ms * 1000.0) ++b.slow;
  if (!ok) ++b.failed;
}

void SloTracker::window_sum(std::int64_t now_s, std::int64_t window_s,
                            std::uint64_t* total, std::uint64_t* slow,
                            std::uint64_t* failed) const {
  *total = *slow = *failed = 0;
  const std::int64_t lo = now_s - window_s;  // exclusive
  const std::int64_t span = std::min<std::int64_t>(
      window_s, static_cast<std::int64_t>(kBuckets));
  for (std::int64_t s = now_s; s > now_s - span && s > lo; --s) {
    if (s < 0) break;
    const Bucket& b = slots_[static_cast<std::size_t>(s) % kBuckets];
    if (b.sec != s) continue;  // slot empty or recycled for another stamp
    *total += b.total;
    *slow += b.slow;
    *failed += b.failed;
  }
}

BurnRates SloTracker::burn(std::int64_t now_s) const {
  if (now_s < 0) now_s = steady_s();
  std::lock_guard<std::mutex> lk(mu_);
  BurnRates r;
  if (!opt_.enabled()) return r;

  // The latency objective is a p99: 1% of requests may exceed the
  // target.  The availability budget is 1 - objective.
  const double lat_allowed = opt_.p99_ms > 0.0 ? 0.01 : 0.0;
  const double avail_allowed =
      opt_.availability > 0.0
          ? std::max(1.0 - opt_.availability, 1e-9)
          : 0.0;

  const std::int64_t windows[3] = {60, 300, 3600};
  double lat[3] = {0, 0, 0};
  double avail[3] = {0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    std::uint64_t total, slow, failed;
    window_sum(now_s, windows[i], &total, &slow, &failed);
    lat[i] = burn_of(total, slow, lat_allowed);
    avail[i] = burn_of(total, failed, avail_allowed);
  }
  r.lat_1m = lat[0];
  r.lat_5m = lat[1];
  r.lat_1h = lat[2];
  r.avail_1m = avail[0];
  r.avail_5m = avail[1];
  r.avail_1h = avail[2];

  const auto multiwindow = [](const double b[3]) {
    const bool fast = b[0] >= kFastBurn && b[1] >= kFastBurn;
    const bool slow = b[1] >= kSlowBurn && b[2] >= kSlowBurn;
    return fast || slow;
  };
  r.burning = multiwindow(lat) || multiwindow(avail);
  return r;
}

}  // namespace vppb::obs
