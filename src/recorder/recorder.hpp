// The Recorder: the paper's instrumented encapsulating thread library.
//
// Attached around the solaris API (the LD_PRELOAD substitute), it
// records every thread-library call — when it happened, the event type,
// the object concerned, the calling thread and the source line — into
// an in-memory buffer, "kept in memory until the program terminates" to
// keep intrusion minimal, then handed over as a trace::Trace.
#pragma once

#include <functional>
#include <memory>

#include "solaris/probe.hpp"
#include "solaris/program.hpp"
#include "trace/chunked.hpp"
#include "trace/trace.hpp"

namespace vppb::rec {

class Recorder final : public sol::ProbeSink {
 public:
  struct Options {
    /// Record file:line for every event (the paper's %i7 capture).
    /// Disabling it shrinks logs; the Visualizer then has no source
    /// mapping for this trace.
    bool capture_locations = true;
    /// TNF-style circular buffer: keep only the newest N records
    /// (0 = unbounded, the VPPB default).  The paper rejects TNF
    /// precisely because "information may be overwritten if the buffer
    /// is too small" — with a bound set, finish() reports how many
    /// records were lost and the truncated log generally cannot be
    /// replayed.
    std::size_t ring_capacity = 0;
    /// When non-empty, mirror every event to a crash-safe chunked log
    /// (trace/chunked.hpp) at this path as the program runs.  However
    /// the target dies — SIGKILL included — every sealed chunk is
    /// recoverable with the salvaging loader.  The ring bound does not
    /// apply to the live log: it keeps everything that happened.
    std::string live_log_path;
    /// Seal a live-log chunk after this many records.
    std::size_t live_chunk_records = 1024;
    /// Install SIGSEGV/SIGABRT/SIGBUS and atexit finalizers that seal
    /// the live log (async-signal-safely) before the process dies.
    /// Process-global: one live-logging recorder at a time.
    bool install_crash_handlers = false;
  };

  Recorder();  // default Options
  explicit Recorder(Options opts);
  ~Recorder() override;

  /// RAII attachment: installs the recorder as the probe sink for its
  /// lifetime, like setting LD_PRELOAD for the monitored execution.
  class Scope {
   public:
    explicit Scope(Recorder& r);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
  };

  // ProbeSink interface -----------------------------------------------------
  void on_call(const sol::ProbeContext& ctx) override;
  void on_return(const sol::ProbeContext& ctx,
                 std::int64_t result_arg) override;
  void on_thread(trace::ThreadId tid, std::string_view name,
                 std::string_view start_func, bool bound,
                 int priority) override;

  /// Finalizes the log (writes the end_collect record with the program's
  /// total duration) and moves the trace out.  The recorder is empty
  /// afterwards and can be reused.
  trace::Trace finish(SimTime program_end);

  std::size_t records_so_far() const { return trace_.records.size(); }

  /// Records overwritten because the ring filled (0 when unbounded).
  std::size_t dropped_records() const { return dropped_; }

  /// The live chunked log writer (null unless Options.live_log_path).
  const trace::ChunkedWriter* live_writer() const { return live_.get(); }

 private:
  std::uint32_t location_of(const sol::ProbeContext& ctx);
  void append(SimTime at, trace::ThreadId tid, trace::Phase phase,
              const sol::ProbeContext& ctx, std::int64_t arg);
  void mirror(const trace::Record& r);

  Options opts_;
  trace::Trace trace_;
  std::unique_ptr<trace::ChunkedWriter> live_;
  std::size_t dropped_ = 0;
  bool started_ = false;
};

/// Convenience harness for the common workflow (paper fig. 1): run the
/// program once on the uni-processor runtime with the recorder attached
/// and return the recorded information.
trace::Trace record_program(sol::Program& program,
                            const std::function<void()>& main_fn,
                            Recorder::Options opts = Recorder::Options());

}  // namespace vppb::rec
