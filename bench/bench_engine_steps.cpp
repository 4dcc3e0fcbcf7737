// Engine-throughput benchmark: how many replayed trace steps per second
// does the engine sustain, and how long does a processor sweep take
// serially vs. on the util::ThreadPool?
//
// Two throughput numbers are reported:
//
//  * steps_per_sec — the headline: repeated runs on one reused
//    core::SimEngine, i.e. the batched-driver path every sweep point
//    and every vppbd request takes.  Allocation-free in steady state.
//  * steps_per_sec_oneshot — repeated core::simulate() calls, paying
//    the full engine construction per run (the cold-start path).
//
// The sweep is timed twice: serially (jobs=1) and on the shared
// SweepRunner's workers, which its first parallel sweep starts and every
// later one reuses, with jobs sized to the hardware (at least 2, so the
// pool path is exercised even on a single-core host, where jobs=1 vs
// jobs=1 would compare nothing).  Both job counts are emitted.
//
// A slope leg replays the paper's §5 producer-consumer program (tuned
// version) at 61 and 736 threads on 1 CPU, one reused engine each —
// the configuration where every waiting LWP sits in one kernel queue —
// and reports the steps/sec of each trace's fastest run.
// prodcons736_c1_steps_per_sec / prodcons61_c1_steps_per_sec is the
// inverse of the engine's per-step cost slope; bench_gate_slope
// requires it to stay >= 0.5 (slope <= 2).
//
// Results go to a JSON file (BENCH_engine.json by default) so the perf
// trajectory of the scheduler is comparable across PRs:
//
//   build/bench/bench_engine_steps [--threads 64] [--scale 0.2]
//       [--cpus 8] [--min-ms 500] [--jobs 0] [--out BENCH_engine.json]
//       [--min-steps-per-sec N]
//
// --min-steps-per-sec turns the benchmark into a regression assertion:
// a headline below the floor exits non-zero (tools/bench_gate compares
// against the checked-in baseline instead, with a relative margin).
//
// The `bench`-labelled CTest target runs exactly this (see
// bench/CMakeLists.txt); it is excluded from the default `ctest` run.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/sweep.hpp"
#include "recorder/recorder.hpp"
#include "solaris/program.hpp"
#include "util/flags.hpp"
#include "util/thread_pool.hpp"
#include "workloads/prodcons.hpp"
#include "workloads/splash.hpp"

namespace {

using namespace vppb;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  // 64 trace threads on 8 simulated CPUs keeps long run queues live, so
  // the benchmark exercises the scheduler, not just the replay machinery
  // (with threads == cpus the ready list never grows and any scheduler
  // looks fast).
  flags.define_i64("threads", 64, "worker threads of the SPLASH-like trace");
  flags.define_double("scale", 0.2, "problem scale of the trace");
  flags.define_i64("cpus", 8, "simulated CPU count for the steps/sec run");
  flags.define_i64("min-ms", 500, "minimum wall time per measurement");
  flags.define_i64("jobs", 0,
                   "parallel-sweep points in flight (0 = hardware threads, "
                   "min 2)");
  flags.define_i64("min-steps-per-sec", 0,
                   "fail (exit 1) if the headline falls below this floor");
  flags.define_string("out", "BENCH_engine.json", "JSON output file");
  flags.parse(argc, argv);

  const int threads = static_cast<int>(flags.i64("threads"));
  const double scale = flags.dbl("scale");
  const int cpus = static_cast<int>(flags.i64("cpus"));
  const double min_s = static_cast<double>(flags.i64("min-ms")) / 1e3;
  const int jobs_flag = static_cast<int>(flags.i64("jobs"));
  const int jobs =
      jobs_flag > 0
          ? jobs_flag
          : std::max(2, static_cast<int>(std::thread::hardware_concurrency()));

  // The paper's clearly-sublinear SPLASH kernel: serial transpose phases
  // between parallel row FFTs, i.e. plenty of scheduler traffic.
  sol::Program program;
  const trace::Trace t = rec::record_program(program, [&]() {
    workloads::fft(workloads::SplashParams{threads, scale});
  });
  const core::CompiledTrace compiled = core::compile(t);
  const std::size_t steps_per_run = compiled.flat->total_steps;

  core::SimConfig cfg;
  cfg.hw.cpus = cpus;
  cfg.build_timeline = false;

  // Headline: steps/sec on one reused engine, repeated until min-ms.
  int runs = 0;
  double speedup = 0.0;
  double elapsed = 0.0;
  {
    core::SimEngine engine;
    const Clock::time_point t0 = Clock::now();
    do {
      speedup = engine.run(compiled, cfg).speedup;
      ++runs;
      elapsed = seconds_since(t0);
    } while (elapsed < min_s);
  }
  const double steps_per_sec =
      static_cast<double>(steps_per_run) * runs / elapsed;

  // Cold-start reference: a fresh engine per run via simulate().
  int runs_oneshot = 0;
  double elapsed_oneshot = 0.0;
  {
    const Clock::time_point t0 = Clock::now();
    do {
      (void)core::simulate(compiled, cfg);
      ++runs_oneshot;
      elapsed_oneshot = seconds_since(t0);
    } while (elapsed_oneshot < min_s);
  }
  const double steps_per_sec_oneshot =
      static_cast<double>(steps_per_run) * runs_oneshot / elapsed_oneshot;

  // 8-point sweep: serial wall time vs. thread-pool wall time.  Both go
  // through the batched SweepRunner; the serial leg shows the per-point
  // cost, the parallel leg what the pool adds or recovers on this host.
  std::vector<int> counts(8);
  std::iota(counts.begin(), counts.end(), 1);
  double serial_s = 0.0, parallel_s = 0.0;
  {
    core::SweepOptions opt;
    opt.jobs = 1;
    int reps = 0;
    const Clock::time_point s0 = Clock::now();
    do {
      core::sweep_cpus(compiled, counts, cfg, opt);
      ++reps;
      serial_s = seconds_since(s0);
    } while (serial_s < min_s);
    serial_s /= reps;
  }
  {
    core::SweepOptions opt;
    opt.jobs = jobs;
    int reps = 0;
    const Clock::time_point p0 = Clock::now();
    do {
      core::sweep_cpus(compiled, counts, cfg, opt);
      ++reps;
      parallel_s = seconds_since(p0);
    } while (parallel_s < min_s);
    parallel_s /= reps;
  }

  // Slope leg: steps/sec on the 1-CPU producer-consumer program at 61
  // and 736 threads (40 and 490 producers, half as many consumers), one
  // reused engine each.  The two traces alternate run by run and each
  // keeps its fastest run, so a slowdown of the shared host hits both
  // sides alike instead of skewing their ratio.
  struct SlopeLeg {
    core::CompiledTrace compiled;
    core::SimEngine engine;
    std::uint64_t steps = 0;
    double best_s = 0.0;
  };
  auto prodcons_leg = [](int producers) {
    workloads::ProdConsParams p;
    p.producers = producers;
    p.consumers = producers / 2;
    sol::Program prog;
    SlopeLeg leg;
    leg.compiled = core::compile(rec::record_program(
        prog, [p]() { workloads::prodcons_tuned(p); }));
    return leg;
  };
  SlopeLeg slope[] = {prodcons_leg(40), prodcons_leg(490)};
  core::SimConfig c1;
  c1.hw.cpus = 1;
  c1.build_timeline = false;
  {
    const Clock::time_point t0 = Clock::now();
    do {
      for (SlopeLeg& leg : slope) {
        const Clock::time_point r0 = Clock::now();
        leg.steps = leg.engine.run(leg.compiled, c1).engine.steps;
        const double s = seconds_since(r0);
        if (leg.best_s == 0.0 || s < leg.best_s) leg.best_s = s;
      }
    } while (seconds_since(t0) < 2 * min_s);
  }
  const double prodcons61 =
      static_cast<double>(slope[0].steps) / slope[0].best_s;
  const double prodcons736 =
      static_cast<double>(slope[1].steps) / slope[1].best_s;

  std::ofstream out(flags.str("out"));
  out << "{\n"
      << "  \"trace\": \"fft\",\n"
      << "  \"trace_threads\": " << threads << ",\n"
      << "  \"trace_scale\": " << scale << ",\n"
      << "  \"steps_per_run\": " << steps_per_run << ",\n"
      << "  \"sim_cpus\": " << cpus << ",\n"
      << "  \"runs\": " << runs << ",\n"
      << "  \"runs_oneshot\": " << runs_oneshot << ",\n"
      << "  \"speedup\": " << speedup << ",\n"
      << "  \"steps_per_sec\": " << static_cast<std::int64_t>(steps_per_sec)
      << ",\n"
      << "  \"steps_per_sec_oneshot\": "
      << static_cast<std::int64_t>(steps_per_sec_oneshot) << ",\n"
      << "  \"sweep_points\": " << counts.size() << ",\n"
      << "  \"sweep_serial_ms\": " << serial_s * 1e3 << ",\n"
      << "  \"sweep_serial_jobs\": 1,\n"
      << "  \"sweep_parallel_ms\": " << parallel_s * 1e3 << ",\n"
      << "  \"sweep_jobs\": " << jobs << ",\n"
      << "  \"prodcons61_c1_steps_per_sec\": "
      << static_cast<std::int64_t>(prodcons61) << ",\n"
      << "  \"prodcons736_c1_steps_per_sec\": "
      << static_cast<std::int64_t>(prodcons736) << "\n"
      << "}\n";
  std::printf(
      "engine: %zu steps/run, %d runs, %.0f steps/sec batched, "
      "%.0f steps/sec one-shot (cpus=%d)\n"
      "sweep:  %zu points, serial %.1f ms, parallel %.1f ms (jobs=%d)\n"
      "slope:  prodcons 1 CPU, %.0f steps/sec at 61 threads, %.0f at 736 "
      "(ratio %.2f)\n"
      "wrote %s\n",
      steps_per_run, runs, steps_per_sec, steps_per_sec_oneshot, cpus,
      counts.size(), serial_s * 1e3, parallel_s * 1e3, jobs, prodcons61,
      prodcons736, prodcons736 / prodcons61, flags.str("out").c_str());

  const double floor = static_cast<double>(flags.i64("min-steps-per-sec"));
  if (floor > 0.0 && steps_per_sec < floor) {
    std::fprintf(stderr,
                 "FAIL: steps_per_sec %.0f below required floor %.0f\n",
                 steps_per_sec, floor);
    return 1;
  }
  return 0;
}
