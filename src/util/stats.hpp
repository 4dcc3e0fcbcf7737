// Summary statistics used by the validation harness (Table 1 reports the
// middle value and (min–max) of five real executions) and by the benches.
#pragma once

#include <cstddef>
#include <vector>

namespace vppb {

/// Streaming accumulator (Welford) for mean/variance plus min/max.
class Accumulator {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< Sample variance (n-1 denominator).
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Median (the paper's "middle value of five executions").  Copies and
/// sorts; fine for the handful of repetitions we run.
double median(std::vector<double> xs);

/// The paper's error definition: (real - predicted) / real.
double prediction_error(double real, double predicted);

/// Fixed-width histogram over [lo, hi); values outside are clamped into
/// the first/last bucket.  Used by the parallelism-graph tests.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x, double weight = 1.0);
  double bucket_weight(std::size_t i) const { return weights_.at(i); }
  std::size_t buckets() const { return weights_.size(); }
  double total() const { return total_; }

 private:
  double lo_, hi_;
  std::vector<double> weights_;
  double total_ = 0.0;
};

}  // namespace vppb
