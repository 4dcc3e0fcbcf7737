#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace vppb {

void Accumulator::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Accumulator::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double median(std::vector<double> xs) {
  VPPB_CHECK_MSG(!xs.empty(), "median of empty sample");
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  if (n % 2 == 1) return xs[n / 2];
  return 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double prediction_error(double real, double predicted) {
  VPPB_CHECK_MSG(real != 0.0, "prediction_error with zero real value");
  return (real - predicted) / real;
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), weights_(buckets, 0.0) {
  VPPB_CHECK_MSG(hi > lo, "histogram range is empty");
  VPPB_CHECK_MSG(buckets > 0, "histogram needs at least one bucket");
}

void Histogram::add(double x, double weight) {
  const double width = (hi_ - lo_) / static_cast<double>(weights_.size());
  auto idx = static_cast<std::ptrdiff_t>((x - lo_) / width);
  idx = std::clamp<std::ptrdiff_t>(idx, 0,
                                   static_cast<std::ptrdiff_t>(weights_.size()) - 1);
  weights_[static_cast<std::size_t>(idx)] += weight;
  total_ += weight;
}

}  // namespace vppb
