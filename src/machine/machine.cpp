#include "machine/machine.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace vppb::machine {

core::CompiledTrace jittered(const core::CompiledTrace& compiled,
                             double rel_stddev, std::uint64_t seed) {
  VPPB_CHECK_MSG(compiled.flat != nullptr, "trace was never compiled");
  const core::FlatProgram& src = *compiled.flat;
  auto fp = std::make_shared<core::FlatProgram>();
  fp->total_steps = src.total_steps;
  fp->mutex_ids = src.mutex_ids;
  fp->sema_ids = src.sema_ids;
  fp->cond_ids = src.cond_ids;
  fp->rwlock_ids = src.rwlock_ids;
  core::FlatThread* table = fp->arena.make_array<core::FlatThread>(
      src.threads.size());
  fp->threads = {table, src.threads.size()};
  Rng rng(seed);
  for (std::size_t i = 0; i < src.threads.size(); ++i) {
    core::FlatThread& ft = table[i];
    ft = src.threads[i];
    // Per-thread streams (ascending tid) keep each thread's jitter
    // independent of the others' step counts.
    Rng thread_rng(rng.next_u64() ^ static_cast<std::uint64_t>(ft.tid));
    core::Step* steps = fp->arena.make_array<core::Step>(ft.steps.size());
    ft.total_cpu = SimTime::zero();
    for (std::size_t k = 0; k < ft.steps.size(); ++k) {
      core::Step& s = steps[k];
      s = ft.steps[k];
      s.cpu = s.cpu.scaled(thread_rng.jitter_factor(rel_stddev));
      s.op_cost = s.op_cost.scaled(thread_rng.jitter_factor(rel_stddev));
      ft.total_cpu += s.cpu + s.op_cost;
    }
    ft.steps = {steps, ft.steps.size()};
  }
  core::CompiledTrace out = compiled;
  out.flat = std::move(fp);
  return out;
}

MachineResult execute(const core::CompiledTrace& compiled,
                      const MachineConfig& config) {
  VPPB_CHECK_MSG(config.repetitions >= 1, "need at least one repetition");
  VPPB_CHECK_MSG(config.cpus >= 1, "need at least one CPU");

  core::SimConfig ncpu;
  ncpu.hw.cpus = config.cpus;
  ncpu.hw.comm_delay = config.comm_delay;
  ncpu.hw.migration_penalty = config.migration_penalty;
  ncpu.hw.memory_contention_alpha = config.memory_contention_alpha;
  ncpu.sched.lwps = config.lwps;
  ncpu.cost.context_switch_cost = config.context_switch_cost;
  ncpu.build_timeline = false;

  core::SimConfig onecpu = ncpu;
  onecpu.hw.cpus = 1;
  onecpu.hw.comm_delay = SimTime::zero();
  onecpu.hw.migration_penalty = SimTime::zero();

  MachineResult result;
  Rng seeds(config.seed);
  for (int rep = 0; rep < config.repetitions; ++rep) {
    const core::CompiledTrace run_trace =
        jittered(compiled, config.cpu_jitter, seeds.next_u64());
    MachineRun run;
    run.total_1cpu = core::simulate(run_trace, onecpu).total;
    run.total_ncpu = core::simulate(run_trace, ncpu).total;
    run.speedup = static_cast<double>(run.total_1cpu.ns()) /
                  static_cast<double>(run.total_ncpu.ns());
    result.runs.push_back(run);
  }

  std::vector<double> speedups;
  speedups.reserve(result.runs.size());
  for (const MachineRun& r : result.runs) speedups.push_back(r.speedup);
  result.speedup_mid = median(speedups);
  result.speedup_min = *std::min_element(speedups.begin(), speedups.end());
  result.speedup_max = *std::max_element(speedups.begin(), speedups.end());
  return result;
}

MachineResult execute(const trace::Trace& trace, const MachineConfig& config) {
  return execute(core::compile(trace), config);
}

}  // namespace vppb::machine
