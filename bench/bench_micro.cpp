// Micro-benchmarks (google-benchmark): probe cost, trace serialization,
// compilation, simulation event throughput, and visualizer rendering.
#include <benchmark/benchmark.h>

#include "core/engine.hpp"
#include "machine/machine.hpp"
#include "recorder/recorder.hpp"
#include "solaris/program.hpp"
#include "solaris/solaris.hpp"
#include "trace/io.hpp"
#include "viz/visualizer.hpp"
#include "workloads/prodcons.hpp"
#include "workloads/splash.hpp"

namespace {

using namespace vppb;

trace::Trace lock_heavy_trace(int producers) {
  workloads::ProdConsParams p;
  p.producers = producers;
  p.consumers = producers / 2;
  sol::Program program;
  return rec::record_program(program,
                             [&p]() { workloads::prodcons_tuned(p); });
}

void BM_RecordLockHeavy(benchmark::State& state) {
  const int producers = static_cast<int>(state.range(0));
  std::size_t records = 0;
  for (auto _ : state) {
    const trace::Trace t = lock_heavy_trace(producers);
    records = t.records.size();
    benchmark::DoNotOptimize(t.records.data());
  }
  state.counters["records"] = static_cast<double>(records);
  state.counters["records/s"] = benchmark::Counter(
      static_cast<double>(records), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_RecordLockHeavy)->Arg(20)->Arg(50);

void BM_ProbeOverheadBareVsRecorded(benchmark::State& state) {
  // The per-call cost of the probe layer itself: a tight mutex
  // lock/unlock loop with a recorder attached.
  const bool recorded = state.range(0) != 0;
  for (auto _ : state) {
    sol::Program program;
    rec::Recorder recorder;
    auto body = []() {
      sol::Mutex m;
      for (int i = 0; i < 2000; ++i) {
        m.lock();
        m.unlock();
      }
    };
    if (recorded) {
      rec::Recorder::Scope scope(recorder);
      program.run(body);
      benchmark::DoNotOptimize(recorder.records_so_far());
      (void)recorder.finish(program.last_duration());
    } else {
      program.run(body);
    }
  }
  state.SetItemsProcessed(state.iterations() * 4000);  // 2 calls per loop
}
BENCHMARK(BM_ProbeOverheadBareVsRecorded)->Arg(0)->Arg(1);

void BM_TraceTextRoundTrip(benchmark::State& state) {
  const trace::Trace t = lock_heavy_trace(40);
  for (auto _ : state) {
    const std::string text = trace::to_text(t);
    const trace::Trace back = trace::from_text(text);
    benchmark::DoNotOptimize(back.records.size());
  }
  state.counters["records"] = static_cast<double>(t.records.size());
}
BENCHMARK(BM_TraceTextRoundTrip);

void BM_Compile(benchmark::State& state) {
  const trace::Trace t = lock_heavy_trace(40);
  for (auto _ : state) {
    const core::CompiledTrace c = core::compile(t);
    benchmark::DoNotOptimize(c.flat->total_steps);
  }
  state.counters["records/s"] = benchmark::Counter(
      static_cast<double>(t.records.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Compile);

void BM_SimulateEvents(benchmark::State& state) {
  const trace::Trace t = lock_heavy_trace(40);
  const core::CompiledTrace c = core::compile(t);
  core::SimConfig cfg;
  cfg.hw.cpus = static_cast<int>(state.range(0));
  cfg.build_timeline = false;
  for (auto _ : state) {
    const core::SimResult r = core::simulate(c, cfg);
    benchmark::DoNotOptimize(r.speedup);
  }
  state.counters["records/s"] = benchmark::Counter(
      static_cast<double>(t.records.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_SimulateEvents)->Arg(1)->Arg(8);

void BM_MachineExecution(benchmark::State& state) {
  sol::Program program;
  const trace::Trace t = rec::record_program(program, []() {
    workloads::radix(workloads::SplashParams{8, 0.2});
  });
  const core::CompiledTrace c = core::compile(t);
  machine::MachineConfig mc;
  mc.repetitions = 1;
  for (auto _ : state) {
    const machine::MachineResult r = machine::execute(c, mc);
    benchmark::DoNotOptimize(r.speedup_mid);
  }
}
BENCHMARK(BM_MachineExecution);

void BM_RenderSvg(benchmark::State& state) {
  sol::Program program;
  const trace::Trace t = rec::record_program(program, []() {
    workloads::ocean(workloads::SplashParams{4, 0.02});
  });
  core::SimConfig cfg;
  cfg.hw.cpus = 4;
  const core::SimResult result = core::simulate(t, cfg);
  for (auto _ : state) {
    viz::Visualizer v(result, t);
    const std::string svg = viz::render_svg(v, viz::RenderOptions{});
    benchmark::DoNotOptimize(svg.size());
  }
}
BENCHMARK(BM_RenderSvg);

}  // namespace

BENCHMARK_MAIN();
