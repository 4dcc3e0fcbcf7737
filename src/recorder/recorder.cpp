#include "recorder/recorder.hpp"

#include <csignal>
#include <cstdlib>
#include <cstring>

#include <atomic>

#include "ult/runtime.hpp"
#include "util/error.hpp"

namespace vppb::rec {
namespace {

/// Pre-allocated record capacity (events are buffered in memory).
constexpr std::size_t kReserveRecords = 1 << 16;

/// Basename of a __FILE__-style path, for paper-like "file:line" display.
std::string_view basename_of(const char* path) {
  std::string_view sv(path == nullptr ? "" : path);
  const std::size_t pos = sv.find_last_of('/');
  return pos == std::string_view::npos ? sv : sv.substr(pos + 1);
}

// Crash finalization.  A dying target gets one chance to seal its live
// log; the exchange below makes every exit path (signal, abort, exit)
// claim the writer at most once, so handlers racing each other or the
// destructor cannot double-seal.
std::atomic<trace::ChunkedWriter*> g_live_writer{nullptr};

void crash_handler(int sig) {
  trace::ChunkedWriter* w = g_live_writer.exchange(nullptr);
  if (w != nullptr) w->crash_seal();
  // Re-deliver with the default action so the process still dies (and
  // dumps core) the way it would have without us.
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

void atexit_seal() {
  trace::ChunkedWriter* w = g_live_writer.exchange(nullptr);
  if (w != nullptr) w->crash_seal();
}

void install_crash_handlers_once() {
  static bool installed = [] {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = crash_handler;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGSEGV, &sa, nullptr);
    ::sigaction(SIGABRT, &sa, nullptr);
    ::sigaction(SIGBUS, &sa, nullptr);
    std::atexit(atexit_seal);
    return true;
  }();
  (void)installed;
}

}  // namespace

Recorder::Recorder() : Recorder(Options{}) {}

Recorder::Recorder(Options opts) : opts_(std::move(opts)) {
  trace_.records.reserve(kReserveRecords);
  if (!opts_.live_log_path.empty()) {
    trace::ChunkedWriterOptions wopts;
    wopts.chunk_records = opts_.live_chunk_records;
    live_ = std::make_unique<trace::ChunkedWriter>(opts_.live_log_path, wopts);
    if (opts_.install_crash_handlers) {
      install_crash_handlers_once();
      g_live_writer.store(live_.get());
    }
  }
}

Recorder::Scope::Scope(Recorder& r) {
  VPPB_CHECK_MSG(sol::probe_sink() == nullptr,
                 "another recorder is already attached");
  sol::set_probe_sink(&r);
}

Recorder::Scope::~Scope() { sol::set_probe_sink(nullptr); }

std::uint32_t Recorder::location_of(const sol::ProbeContext& ctx) {
  if (!opts_.capture_locations) return 0;
  return trace_.add_location(basename_of(ctx.loc.file_name()), ctx.loc.line(),
                             ctx.loc.function_name());
}

Recorder::~Recorder() {
  // Un-register from the crash path before the writer dies with us.
  trace::ChunkedWriter* mine = live_.get();
  if (mine != nullptr) g_live_writer.compare_exchange_strong(mine, nullptr);
}

void Recorder::mirror(const trace::Record& r) {
  if (live_ == nullptr) return;
  live_->sync_tables(trace_);
  live_->add_record(r);
}

void Recorder::append(SimTime at, trace::ThreadId tid, trace::Phase phase,
                      const sol::ProbeContext& ctx, std::int64_t arg) {
  trace::Record r;
  r.at = at;
  r.tid = tid;
  r.phase = phase;
  r.op = ctx.op;
  r.obj = ctx.obj;
  r.arg = arg;
  r.arg2 = ctx.arg2;
  r.loc = location_of(ctx);
  if (ctx.op == trace::Op::kUserMark)
    r.arg = trace_.strings.intern(ctx.label);
  if (opts_.ring_capacity != 0 &&
      trace_.records.size() >= opts_.ring_capacity) {
    // TNF-style overwrite of the oldest record (see Options comment).
    trace_.records.erase(trace_.records.begin());
    ++dropped_;
  }
  trace_.records.push_back(r);
  mirror(r);
}

void Recorder::on_call(const sol::ProbeContext& ctx) {
  auto& rt = ult::Runtime::current();
  const SimTime at = rt.stamp_now();
  if (!started_) {
    started_ = true;
    trace::Record start;
    start.at = at;
    start.tid = rt.current_tid();
    start.op = trace::Op::kStartCollect;
    trace_.records.push_back(start);
    mirror(start);
  }
  append(at, rt.current_tid(), trace::Phase::kCall, ctx, ctx.arg);
}

void Recorder::on_return(const sol::ProbeContext& ctx,
                         std::int64_t result_arg) {
  auto& rt = ult::Runtime::current();
  append(rt.stamp_now(), rt.current_tid(), trace::Phase::kReturn, ctx,
         result_arg);
}

void Recorder::on_thread(trace::ThreadId tid, std::string_view name,
                         std::string_view start_func, bool bound,
                         int priority) {
  trace::ThreadMeta& meta = trace_.upsert_thread(tid);
  meta.name = trace_.strings.intern(name);
  meta.start_func = trace_.strings.intern(start_func);
  meta.bound = bound;
  meta.initial_priority = priority;
  if (live_ != nullptr)
    live_->mark_thread(static_cast<std::size_t>(&meta - trace_.threads.data()));
}

trace::Trace Recorder::finish(SimTime program_end) {
  if (started_) {
    trace::Record end;
    end.at = program_end;
    end.tid = 1;
    end.op = trace::Op::kEndCollect;
    trace_.records.push_back(end);
    mirror(end);
  }
  if (live_ != nullptr) {
    // Claim the writer back from the crash path, then publish cleanly.
    trace::ChunkedWriter* mine = live_.get();
    g_live_writer.compare_exchange_strong(mine, nullptr);
    live_->sync_tables(trace_);
    live_->finalize();
    live_.reset();
  }
  // A ring-truncated log has lost its prefix (dangling returns etc.);
  // it cannot promise the validation invariants the full log has.
  if (dropped_ == 0) trace_.validate();
  trace::Trace out = std::move(trace_);
  trace_ = trace::Trace{};
  trace_.records.reserve(kReserveRecords);
  dropped_ = 0;
  started_ = false;
  return out;
}

trace::Trace record_program(sol::Program& program,
                            const std::function<void()>& main_fn,
                            Recorder::Options opts) {
  Recorder recorder(opts);
  {
    Recorder::Scope attach(recorder);
    program.run(main_fn);
  }
  return recorder.finish(program.last_duration());
}

}  // namespace vppb::rec
