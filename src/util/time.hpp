// Simulation time.
//
// The paper records wall-clock time with 1 µs resolution.  We keep all
// times as integer nanoseconds (SimTime), which gives deterministic
// arithmetic, microsecond-compatible formatting, and ~292 years of
// headroom in 64 bits.
#pragma once

#include <chrono>
#include <compare>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <limits>
#include <string>

namespace vppb {

/// A point in (or duration of) simulated time, in integer nanoseconds.
/// Value-semantic wrapper so times and plain integers cannot be mixed up.
class SimTime {
 public:
  constexpr SimTime() = default;
  constexpr explicit SimTime(std::int64_t ns) : ns_(ns) {}

  static constexpr SimTime zero() { return SimTime{0}; }
  static constexpr SimTime max() {
    return SimTime{std::numeric_limits<std::int64_t>::max()};
  }
  static constexpr SimTime nanos(std::int64_t n) { return SimTime{n}; }
  static constexpr SimTime micros(std::int64_t u) { return SimTime{u * 1000}; }
  static constexpr SimTime millis(std::int64_t m) {
    return SimTime{m * 1'000'000};
  }
  static constexpr SimTime seconds(double s) {
    return SimTime{static_cast<std::int64_t>(s * 1e9)};
  }
  static SimTime from(std::chrono::nanoseconds d) { return SimTime{d.count()}; }

  constexpr std::int64_t ns() const { return ns_; }
  constexpr std::int64_t us() const { return ns_ / 1000; }
  constexpr double seconds_d() const { return static_cast<double>(ns_) / 1e9; }

  constexpr bool is_zero() const { return ns_ == 0; }

  friend constexpr SimTime operator+(SimTime a, SimTime b) {
    return SimTime{a.ns_ + b.ns_};
  }
  friend constexpr SimTime operator-(SimTime a, SimTime b) {
    return SimTime{a.ns_ - b.ns_};
  }
  constexpr SimTime& operator+=(SimTime o) {
    ns_ += o.ns_;
    return *this;
  }
  constexpr SimTime& operator-=(SimTime o) {
    ns_ -= o.ns_;
    return *this;
  }
  friend constexpr SimTime operator*(SimTime a, std::int64_t k) {
    return SimTime{a.ns_ * k};
  }
  friend constexpr SimTime operator*(std::int64_t k, SimTime a) { return a * k; }
  /// Scale by a real factor (e.g. the paper's ×6.7 bound-thread cost).
  constexpr SimTime scaled(double f) const {
    return SimTime{static_cast<std::int64_t>(static_cast<double>(ns_) * f)};
  }
  friend constexpr std::int64_t operator/(SimTime a, SimTime b) {
    return a.ns_ / b.ns_;
  }
  friend constexpr SimTime operator/(SimTime a, std::int64_t k) {
    return SimTime{a.ns_ / k};
  }

  friend constexpr auto operator<=>(SimTime, SimTime) = default;

  /// Render as a human-readable quantity, e.g. "12.345ms" or "1.5s".
  std::string to_string() const;

 private:
  std::int64_t ns_ = 0;
};

inline std::ostream& operator<<(std::ostream& os, SimTime t) {
  return os << t.to_string();
}

inline std::string SimTime::to_string() const {
  char buf[48];
  const double a = ns_ < 0 ? -static_cast<double>(ns_) : static_cast<double>(ns_);
  if (a >= 1e9) {
    std::snprintf(buf, sizeof buf, "%.3fs", static_cast<double>(ns_) / 1e9);
  } else if (a >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.3fms", static_cast<double>(ns_) / 1e6);
  } else if (a >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.3fus", static_cast<double>(ns_) / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%lldns", static_cast<long long>(ns_));
  }
  return buf;
}

}  // namespace vppb
