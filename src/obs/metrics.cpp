#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace vppb::obs {

Histogram::Histogram(std::string name, std::string help,
                     std::vector<double> bounds)
    : name_(std::move(name)), help_(std::move(help)),
      bounds_(std::move(bounds)) {
  // Strictly ascending: an equal pair would be a bucket no observation
  // can ever land in, which is a bug at the registration site.
  if (std::adjacent_find(bounds_.begin(), bounds_.end(),
                         [](double a, double b) { return a >= b; }) !=
      bounds_.end()) {
    throw std::invalid_argument("histogram bounds must be strictly "
                                "ascending: " + name_);
  }
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  exemplar_ids_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  exemplar_bits_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0);
    exemplar_ids_[i].store(0);
    exemplar_bits_[i].store(0);
  }
}

void Histogram::observe(double v, std::uint64_t exemplar_trace_id) {
  // First edge >= v; past-the-end means the +Inf overflow bucket.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  if (exemplar_trace_id != 0) {
    exemplar_bits_[idx].store(std::bit_cast<std::uint64_t>(v),
                              std::memory_order_relaxed);
    exemplar_ids_[idx].store(exemplar_trace_id, std::memory_order_relaxed);
  }
  std::uint64_t old = sum_bits_.load(std::memory_order_relaxed);
  while (true) {
    const std::uint64_t want = std::bit_cast<std::uint64_t>(
        std::bit_cast<double>(old) + v);
    if (sum_bits_.compare_exchange_weak(old, want, std::memory_order_relaxed))
      break;
  }
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) total += bucket_count(i);
  return total;
}

double Histogram::sum() const {
  return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
}

double Histogram::exemplar_value(std::size_t i) const {
  return std::bit_cast<double>(exemplar_bits_[i].load(
      std::memory_order_relaxed));
}

namespace {
// 2^kMinLog2 .. 2^kMaxLog2 microseconds in kSteps equal steps per power
// of two.
constexpr int kMinLog2 = 5, kMaxLog2 = 22, kSteps = 8;
static_assert((kMaxLog2 - kMinLog2) * kSteps + 2 == kLatencyBuckets);
}  // namespace

const std::vector<double>& latency_us_bounds() {
  static const std::vector<double> kBounds = [] {
    std::vector<double> b;
    for (int p = kMinLog2; p < kMaxLog2; ++p)
      for (int j = 0; j < kSteps; ++j)
        b.push_back(std::ldexp(1.0 + static_cast<double>(j) / kSteps, p));
    b.push_back(std::ldexp(1.0, kMaxLog2));
    return b;
  }();
  return kBounds;
}

double quantile(std::span<const std::uint64_t, kLatencyBuckets> counts,
                double q) {
  const std::vector<double>& bounds = latency_us_bounds();
  const std::uint64_t n =
      std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
  if (n == 0) return 0.0;
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n))));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    cum += counts[i];
    if (cum >= rank) return bounds[i];
  }
  return std::numeric_limits<double>::infinity();
}

Counter& Registry::counter(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name), std::make_unique<Counter>(
                                             std::string(name),
                                             std::string(help)))
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name), std::make_unique<Gauge>(
                                             std::string(name),
                                             std::string(help)))
             .first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name, std::string_view help,
                               std::vector<double> bounds) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::string(name),
                                                  std::string(help),
                                                  std::move(bounds)))
             .first;
  }
  return *it->second;
}

namespace {

void append_help_type(std::string& out, const std::string& name,
                      const std::string& help, const char* type) {
  out += "# HELP ";
  out += name;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

/// The shortest text that parses back to exactly `v` (a bucket edge of
/// 2359296 prints as "2359296", not "2.3593e+06").
std::string format_double(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

std::string Registry::prometheus_text() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out;
  char buf[128];
  for (const auto& [name, c] : counters_) {
    append_help_type(out, name, c->help(), "counter");
    std::snprintf(buf, sizeof(buf), "%s %" PRIu64 "\n", name.c_str(),
                  c->value());
    out += buf;
  }
  for (const auto& [name, g] : gauges_) {
    append_help_type(out, name, g->help(), "gauge");
    std::snprintf(buf, sizeof(buf), "%s %" PRId64 "\n", name.c_str(),
                  g->value());
    out += buf;
  }
  for (const auto& [name, h] : histograms_) {
    append_help_type(out, name, h->help(), "histogram");
    // `_count` is the +Inf bucket of this same pass, so the two agree
    // however many writers are observing meanwhile.
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i <= h->bounds().size(); ++i) {
      cum += h->bucket_count(i);
      const std::string le = i < h->bounds().size()
                                 ? format_double(h->bounds()[i])
                                 : std::string("+Inf");
      std::snprintf(buf, sizeof(buf), "%s_bucket{le=\"%s\"} %" PRIu64,
                    name.c_str(), le.c_str(), cum);
      out += buf;
      // OpenMetrics-style exemplar: the last trace id observed into
      // this (non-cumulative) bucket, linking the latency band to a
      // concrete distributed trace.
      if (const std::uint64_t ex = h->exemplar_trace_id(i); ex != 0) {
        std::snprintf(buf, sizeof(buf), " # {trace_id=\"%016" PRIx64
                      "\"} %s", ex,
                      format_double(h->exemplar_value(i)).c_str());
        out += buf;
      }
      out += '\n';
    }
    std::snprintf(buf, sizeof(buf), "%s_sum %s\n", name.c_str(),
                  format_double(h->sum()).c_str());
    out += buf;
    std::snprintf(buf, sizeof(buf), "%s_count %" PRIu64 "\n", name.c_str(),
                  cum);
    out += buf;
  }
  return out;
}

Registry& Registry::global() {
  // Leaked on purpose: instrumentation sites hold references that must
  // outlive every static destructor.
  static Registry* g = new Registry();
  return *g;
}

}  // namespace vppb::obs
