#include "core/sweep.hpp"

#include <algorithm>
#include <numeric>

#include "core/engine.hpp"
#include "obs/span.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace vppb::core {

SpeedupCurve::SpeedupCurve(std::vector<SweepPoint> points)
    : points_(std::move(points)) {
  VPPB_CHECK_MSG(!points_.empty(), "empty speed-up curve");
  std::sort(points_.begin(), points_.end(),
            [](const SweepPoint& a, const SweepPoint& b) {
              return a.cpus < b.cpus;
            });
}

double SpeedupCurve::amdahl_serial_fraction() const {
  // Linear regression of y = 1/S against x = 1/p:  y = f + (1-f)x,
  // i.e. slope m = 1-f and intercept c = f; we recover f from the
  // slope of the least-squares line.
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double n = static_cast<double>(points_.size());
  for (const SweepPoint& p : points_) {
    const double x = 1.0 / p.cpus;
    const double y = 1.0 / std::max(1e-9, p.speedup);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double denom = n * sxx - sx * sx;
  double f;
  if (std::abs(denom) < 1e-12) {
    // Degenerate sweep (single point): attribute everything that is not
    // explained by the point itself to serial work.
    const SweepPoint& p = points_.front();
    f = p.cpus > 1
            ? (static_cast<double>(p.cpus) / p.speedup - 1.0) / (p.cpus - 1)
            : 0.0;
  } else {
    const double slope = (n * sxy - sx * sy) / denom;
    f = 1.0 - slope;  // intercept form: c = f, slope = 1 - f
  }
  return std::clamp(f, 0.0, 1.0);
}

double SpeedupCurve::amdahl_speedup(int cpus) const {
  VPPB_CHECK_MSG(cpus >= 1, "need at least one CPU");
  const double f = amdahl_serial_fraction();
  return 1.0 / (f + (1.0 - f) / cpus);
}

int SpeedupCurve::knee(double efficiency_threshold) const {
  // Only the leading prefix that stays above the threshold counts: a
  // curve that dips below and later recovers (possible with cache or
  // contention artifacts) must not report the recovered count as the
  // knee — the planner would buy CPUs across an efficiency hole.
  int best_cpus = points_.front().cpus;
  for (const SweepPoint& p : points_) {
    if (p.efficiency < efficiency_threshold) break;
    best_cpus = p.cpus;
  }
  return best_cpus;
}

const SweepPoint& SpeedupCurve::best() const {
  return *std::max_element(points_.begin(), points_.end(),
                           [](const SweepPoint& a, const SweepPoint& b) {
                             return a.speedup < b.speedup;
                           });
}

SimEngine SweepRunner::acquire() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!idle_.empty()) {
    SimEngine engine = std::move(idle_.back());
    idle_.pop_back();
    return engine;
  }
  return SimEngine{};
}

void SweepRunner::release(SimEngine engine) {
  std::lock_guard<std::mutex> lock(mu_);
  idle_.push_back(std::move(engine));
}

SimResult SweepRunner::run(const CompiledTrace& compiled,
                           const SimConfig& config, const RunGuard* guard) {
  SimEngine engine = acquire();
  // A throwing run (cancel, tripped budget) abandons the engine: its
  // workspace would reset fine on the next run, but never pooling a
  // half-run workspace keeps the invariant trivially auditable.
  SimResult result = engine.run(compiled, config, guard);
  release(std::move(engine));
  return result;
}

SweepRunner::SweepRunner() = default;
SweepRunner::~SweepRunner() = default;

int SweepRunner::default_jobs() {
  return std::max(2, util::ThreadPool::resolve_jobs(0) / 2);
}

util::ThreadPool& SweepRunner::pool(int helpers) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!pool_) {
    pool_ = std::make_unique<util::ThreadPool>(helpers);
  } else if (pool_->workers() < helpers) {
    pool_->grow(helpers - pool_->workers());
  }
  return *pool_;
}

SweepRunner& SweepRunner::shared() {
  // Leaked on purpose: a helper slice that starts after its sweep
  // returned may still be running when static destructors run.
  static SweepRunner* runner = new SweepRunner();
  return *runner;
}

SpeedupCurve sweep_cpus(const CompiledTrace& compiled,
                        std::span<const int> cpu_counts,
                        const SimConfig& base) {
  return sweep_cpus(compiled, cpu_counts, base, SweepOptions{});
}

SpeedupCurve sweep_cpus(const CompiledTrace& compiled,
                        std::span<const int> cpu_counts,
                        const SimConfig& base, const SweepOptions& options) {
  return SweepRunner::shared().sweep(compiled, cpu_counts, base, options);
}

SpeedupCurve SweepRunner::sweep(const CompiledTrace& compiled,
                                std::span<const int> cpu_counts,
                                const SimConfig& base,
                                const SweepOptions& options) {
  VPPB_CHECK_MSG(!cpu_counts.empty(), "empty CPU sweep");
  obs::Span sweep_span("core.sweep", "engine");
  sweep_span.arg("points", static_cast<std::int64_t>(cpu_counts.size()));
  const std::size_t n = cpu_counts.size();
  std::vector<SweepPoint> points(n);
  if (options.results != nullptr) {
    options.results->clear();
    options.results->resize(n);
  }

  // Every point reads the shared immutable CompiledTrace and owns its
  // SimConfig and SimResult, so the points are freely parallel; slot
  // `i` of points/results belongs to cpu_counts[i], which keeps the
  // output deterministic whatever order the pool finishes in.
  auto simulate_point = [&](std::size_t i) {
    if (options.guard != nullptr) options.guard->check_cancel();
    const int cpus = cpu_counts[i];
    obs::Span point_span("sweep.point", "engine");
    point_span.arg("cpus", cpus);
    SimConfig cfg = base;
    cfg.hw.cpus = cpus;
    cfg.build_timeline = false;
    SimResult r = run(compiled, cfg, options.guard);
    SweepPoint& p = points[i];
    p.cpus = cpus;
    p.speedup = r.speedup;
    p.efficiency = r.speedup / cpus;
    p.total = r.total;
    if (options.results != nullptr) (*options.results)[i] = std::move(r);
  };
  auto run_point = [&](std::size_t i) {
    if (options.each_point)
      options.each_point(cpu_counts[i], [&] { simulate_point(i); });
    else
      simulate_point(i);
  };

  const int jobs =
      options.jobs > 0
          ? std::min(options.jobs,
                     std::max(2, util::ThreadPool::resolve_jobs(0)))
          : default_jobs();
  const std::size_t in_flight =
      std::min<std::size_t>(static_cast<std::size_t>(jobs), n);
  if (in_flight > 1) {
    // The caller claims points too: in_flight - 1 helper slices make
    // in_flight simulations at most.  Points are claimed most CPUs
    // first, which is costliest first where CPUs add dispatches and
    // migrations to replay (the 736-thread producer-consumer trace:
    // 3.3, 3.7, 5.0 and 6.8 ms at 1, 2, 4 and 8 CPUs; SPLASH points
    // cost within 15% of each other, so there the order costs
    // nothing).  The caller starts the longest point at once and the
    // shorter ones fill in beside it, so a helper that wakes late can
    // only leave a short point over.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return cpu_counts[a] > cpu_counts[b];
                     });
    pool(static_cast<int>(in_flight) - 1)
        .parallel_for(
            n, [&](std::size_t k) { run_point(order[k]); }, in_flight - 1);
  } else {
    for (std::size_t i = 0; i < n; ++i) run_point(i);
  }
  return SpeedupCurve(std::move(points));
}

}  // namespace vppb::core
