// Regenerates the paper's fig. 2 (the example program and the Recorder's
// output) and fig. 4 (the Simulator's per-thread sorting of that log).
//
// The program is fig. 2's: main creates thr_a and thr_b (both running
// `thread`), joins them in order, and exits.  We print the recorded
// event list in the paper's format, then the per-thread lists.
#include <cstdio>

#include "core/compiler.hpp"
#include "recorder/recorder.hpp"
#include "solaris/program.hpp"
#include "solaris/solaris.hpp"
#include "trace/trace.hpp"
#include "util/strings.hpp"

namespace {

using namespace vppb;

void* thread_fn(void*) {
  sol::compute(SimTime::micros(400));  // work();
  return nullptr;
}

void fig2_main() {
  sol::thread_t thr_a = 0, thr_b = 0;
  sol::thr_create(nullptr, 0, thread_fn, nullptr, 0, &thr_a);
  sol::thr_create(nullptr, 0, thread_fn, nullptr, 0, &thr_b);
  sol::thr_join(thr_a, nullptr, nullptr);
  sol::thr_join(thr_b, nullptr, nullptr);
}

std::string describe(const trace::Trace& t, const trace::Record& r) {
  (void)t;  // kept in the signature for symmetry with richer renderers
  std::string out = strprintf("%6.2f  T%d  %s%s", r.at.seconds_d() * 1000.0,
                              r.tid, r.phase == trace::Phase::kReturn ? "ok " : "",
                              std::string(trace::op_name(r.op)).c_str());
  if (r.obj.kind == trace::ObjKind::kThread && r.obj.id != 0)
    out += strprintf(" T%u", r.obj.id);
  if (r.op == trace::Op::kThrCreate && r.phase == trace::Phase::kReturn)
    out += strprintf(" -> T%lld", static_cast<long long>(r.arg));
  return out;
}

}  // namespace

int main() {
  sol::register_start_routine(thread_fn, "thread");
  sol::Program program;
  const trace::Trace t = rec::record_program(program, fig2_main);

  std::printf("Fig. 2 — the Recorder's output (times in ms):\n");
  std::printf("  (thread ids as in the paper: main = 1, thr_a = 4, thr_b = 5)\n\n");
  for (const auto& r : t.records) std::printf("  %s\n", describe(t, r).c_str());

  std::printf("\nFig. 4 — the Simulator's per-thread event lists:\n");
  for (const auto& [tid, list] : trace::split_by_thread(t)) {
    const trace::ThreadMeta* meta = t.find_thread(tid);
    std::printf("\n  T%d (%s) event list:\n", tid,
                meta != nullptr ? t.strings.get(meta->name).c_str() : "?");
    for (const auto& r : list) std::printf("    %s\n", describe(t, r).c_str());
  }

  const core::CompiledTrace c = core::compile(t);
  std::printf("\nCompiled demand per thread:\n");
  for (const core::FlatThread& ft : c.flat->threads) {
    std::printf("  T%d (%s): %zu steps, %s CPU\n", ft.tid,
                t.strings.get(t.find_thread(ft.tid)->name).c_str(),
                ft.steps.size(), ft.total_cpu.to_string().c_str());
  }
  std::printf("\nRecorded uni-processor duration: %s\n",
              t.duration().to_string().c_str());
  return 0;
}
