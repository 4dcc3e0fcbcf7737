// The pinned golden workloads, shared by the determinism suite (which
// proves scheduler rewrites bit-identical) and the guard suite (which
// proves an attached-but-unlimited RunGuard changes nothing).  The
// first twelve digests were captured from the original sort-per-step
// scheduler; the deep-queue cases after them (more than 64 LWPs waiting
// for a CPU at once) from the scheduler that still rebuilt its kernel
// queue on every pass.  If an intentional semantic change ever
// invalidates them, re-capture by running test_determinism and copying
// the "actual" values it prints.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/compiler.hpp"
#include "core/config.hpp"
#include "core/engine.hpp"
#include "recorder/recorder.hpp"
#include "solaris/program.hpp"
#include "solaris/solaris.hpp"
#include "util/time.hpp"
#include "workloads/prodcons.hpp"
#include "workloads/splash.hpp"
#include "workloads/synthetic.hpp"

namespace vppb::core {

inline CompiledTrace record_compiled(const std::function<void()>& fn) {
  sol::Program program;
  return compile(rec::record_program(program, fn));
}

struct GoldenCase {
  const char* name;
  std::function<void()> workload;
  std::function<void(SimConfig&)> configure;
  std::uint64_t golden;
  /// When non-zero, the run must reach at least this many LWPs waiting
  /// for a CPU at one dispatch pass (EngineCounters::max_runq_depth):
  /// the deep-queue cases pin the kernel queue beyond 64 waiters.
  std::uint64_t min_runq_depth = 0;
};

/// The paper's §5 producer-consumer program at `producers` producers and
/// half as many consumers, ten items each (`vppb gen prodcons-*` and the
/// benchmark build it the same way: 490 producers make a 736-thread log).
inline std::function<void()> prodcons(bool tuned, int producers) {
  return [tuned, producers] {
    workloads::ProdConsParams p;
    p.producers = producers;
    p.consumers = producers / 2;
    p.items_per_producer = 10;
    if (tuned) {
      workloads::prodcons_tuned(p);
    } else {
      workloads::prodcons_naive(p);
    }
  };
}

inline ThreadPolicy bound_to_cpu(int cpu) {
  ThreadPolicy pol;
  pol.override_binding = true;
  pol.binding = Binding::kBoundCpu;
  pol.cpu = cpu;
  return pol;
}

// clang-format off
inline const GoldenCase kGoldenCases[] = {
    {"fft8_cpus4",
     [] { workloads::fft(workloads::SplashParams{8, 0.2}); },
     [](SimConfig& c) { c.hw.cpus = 4; },
     0xd0b58a60b47736cd},
    {"fft8_cpus1",
     [] { workloads::fft(workloads::SplashParams{8, 0.2}); },
     [](SimConfig& c) { c.hw.cpus = 1; },
     0xca002eec407fa7b1},
    {"ocean4_cpus2",
     [] { workloads::ocean(workloads::SplashParams{4, 0.1}); },
     [](SimConfig& c) { c.hw.cpus = 2; },
     0x597dae827327fc1e},
    {"radix4_cpus4_lwps2",
     [] { workloads::radix(workloads::SplashParams{4, 0.15}); },
     [](SimConfig& c) {
       c.hw.cpus = 4;
       c.sched.lwps = 2;
     },
     0x34930723ef731109},
    {"lu4_cpus8_static_ts",
     [] { workloads::lu(workloads::SplashParams{4, 0.1}); },
     [](SimConfig& c) {
       c.hw.cpus = 8;
       c.sched.ts_dynamics = false;
     },
     0x686ab0ed0edbcd2b},
    {"water4_cpus3_costs",
     [] { workloads::water_spatial(workloads::SplashParams{4, 0.1}); },
     [](SimConfig& c) {
       c.hw.cpus = 3;
       c.hw.comm_delay = SimTime::micros(5);
       c.hw.migration_penalty = SimTime::micros(2);
       c.cost.context_switch_cost = SimTime::micros(1);
     },
     0x79b735c99969553e},
    {"fork_join6_cpus4_lwps3",
     [] { workloads::fork_join(6, SimTime::millis(2)); },
     [](SimConfig& c) {
       c.hw.cpus = 4;
       c.sched.lwps = 3;
     },
     0x469a84b0a31d7529},
    {"pipeline4_cpus2",
     [] { workloads::pipeline(4, 12, SimTime::micros(500)); },
     [](SimConfig& c) { c.hw.cpus = 2; },
     0x48a970bff1c73ad2},
    {"readers_writer_cpus4",
     [] {
       workloads::readers_writer(4, 6, SimTime::micros(300), 3,
                                 SimTime::micros(800));
     },
     [](SimConfig& c) { c.hw.cpus = 4; },
     0x338f4f3b0e749754},
    {"imbalanced5_cpus2_lwps2",
     [] { workloads::imbalanced(5, SimTime::millis(1), 1.0); },
     [](SimConfig& c) {
       c.hw.cpus = 2;
       c.sched.lwps = 2;
       c.hw.comm_delay = SimTime::micros(1);
     },
     0x7faed9c1ea05d49e},
    {"priority_classes_cpus2",
     [] { workloads::priority_classes(2, 3, SimTime::millis(1)); },
     [](SimConfig& c) { c.hw.cpus = 2; },
     0xa5ba8e73da62c4c7},
    {"fork_join3_policies",
     [] { workloads::fork_join(3, SimTime::millis(1)); },
     [](SimConfig& c) {
       c.hw.cpus = 2;
       ThreadPolicy to_cpu;
       to_cpu.override_binding = true;
       to_cpu.binding = Binding::kBoundCpu;
       to_cpu.cpu = 1;
       c.sched.thread_policy[2] = to_cpu;
       ThreadPolicy to_lwp;
       to_lwp.override_binding = true;
       to_lwp.binding = Binding::kBoundLwp;
       c.sched.thread_policy[3] = to_lwp;
       ThreadPolicy fixed_prio;
       fixed_prio.override_priority = true;
       fixed_prio.priority = 5;
       c.sched.thread_policy[4] = fixed_prio;
     },
     0xa5305a520b24c0f1},
    // ---- deep kernel queues: more than 64 LWPs waiting for a CPU ----
    {"prodcons_tuned736_cpus1", prodcons(true, 490),
     [](SimConfig& c) { c.hw.cpus = 1; },
     0x6dfe870a2cef59dd, 65},
    {"prodcons_tuned736_cpus8", prodcons(true, 490),
     [](SimConfig& c) { c.hw.cpus = 8; },
     0x7d2c3f1aa6d4291c, 65},
    {"prodcons_naive736_cpus1", prodcons(false, 490),
     [](SimConfig& c) { c.hw.cpus = 1; },
     0x98d7d32048ee2bc0, 65},
    {"prodcons_tuned196_cpus1_flat_ts", prodcons(true, 130),
     [](SimConfig& c) {
       c.hw.cpus = 1;
       c.sched.ts_table = TsTable::flat(SimTime::millis(100));
     },
     0x95774aa692a71dd3, 65},
    // 96 × 50 ms on 2 CPUs: waits pass the 1 s ts_maxwait, so
    // starvation relief fires on queued LWPs.
    {"fork_join96_cpus2_relief",
     [] { workloads::fork_join(96, SimTime::millis(50)); },
     [](SimConfig& c) { c.hw.cpus = 2; },
     0xca6f85f0dbe35554, 65},
    // thr_setprio lands on threads whose LWPs are already queued: main
    // runs at a fixed priority above both classes, so nothing it
    // creates preempts it and the workers pile up behind one CPU.
    {"priority_classes80_cpus2",
     [] { workloads::priority_classes(40, 40, SimTime::millis(1)); },
     [](SimConfig& c) {
       c.hw.cpus = 2;
       ThreadPolicy fixed_main;
       fixed_main.override_priority = true;
       fixed_main.priority = 20;
       c.sched.thread_policy[1] = fixed_main;
     },
     0xcff3124cf185cb0d, 65},
    // CPU-bound readers (tids 4..11; the recorder numbers the first
    // created thread 4), an LWP-bound writer that yields (tid 84) and
    // comm-delayed wakeups.  Dedicated LWPs all start at disp_seq 0, so
    // the bound readers get distinct fixed priorities: no two waiters
    // ever tie on (priority, TS level, disp_seq).
    {"readers_writer80_cpus4_bound",
     [] {
       workloads::readers_writer(80, 3, SimTime::micros(300), 4,
                                 SimTime::micros(800));
     },
     [](SimConfig& c) {
       c.hw.cpus = 4;
       c.hw.comm_delay = SimTime::micros(5);
       for (ThreadId tid = 4; tid <= 11; ++tid) {
         ThreadPolicy& pol = c.sched.thread_policy[tid];
         pol = bound_to_cpu(static_cast<int>(tid % 4));
         pol.override_priority = true;
         pol.priority = static_cast<int>(tid) - 3;
       }
       ThreadPolicy to_lwp;
       to_lwp.override_binding = true;
       to_lwp.binding = Binding::kBoundLwp;
       c.sched.thread_policy[84] = to_lwp;
     },
     0x0b8b96291f67c18d, 65},
    // A worker whose LWP is queued gets suspended, then continued.
    {"suspend_queued80_cpus2",
     [] {
       std::vector<sol::thread_t> tids(80);
       for (sol::thread_t& tid : tids) {
         sol::thr_create_fn(
             []() -> void* {
               sol::compute(SimTime::millis(2));
               return nullptr;
             },
             0, &tid, "worker");
       }
       sol::thr_suspend(tids[40]);
       sol::compute(SimTime::millis(3));
       sol::thr_continue(tids[40]);
       sol::join_all();
     },
     [](SimConfig& c) { c.hw.cpus = 2; },
     0x50ffcd1f3116fec7, 65},
    // 72 workers bound to one CPU: their dedicated LWPs all keep
    // disp_seq 0 and tie on (priority, TS level, disp_seq), so the LWP
    // id alone orders them.
    {"fork_join72_bound_one_cpu_ties",
     [] { workloads::fork_join(72, SimTime::millis(1)); },
     [](SimConfig& c) {
       c.hw.cpus = 2;
       for (ThreadId tid = 4; tid < 4 + 72; ++tid)
         c.sched.thread_policy[tid] = bound_to_cpu(1);
     },
     0x7533cf38cb976571, 65},
};
// clang-format on

}  // namespace vppb::core
