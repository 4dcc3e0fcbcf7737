// The Visualizer (paper §3.3): presents a simulated execution as the
// parallelism graph and the execution flow graph, with zooming, interval
// selection, thread filtering/compression, event inspection ("popup"),
// same-thread and similar-event stepping, and source-line mapping.
//
// The paper's tool is a Motif GUI; this reproduction provides the full
// data model and navigation logic behind it, plus SVG and ASCII
// renderers (src/viz/svg.cpp, src/viz/ascii.cpp) in place of the
// windowing toolkit.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/result.hpp"
#include "trace/trace.hpp"

namespace vppb::viz {

using core::SimResult;
using trace::ThreadId;

/// The visible time interval.  Zooming keeps the left edge fixed, as the
/// paper describes ("the zoom keeps the left-most time fixed").
struct View {
  SimTime t0;
  SimTime t1;

  SimTime width() const { return t1 - t0; }
  bool contains(SimTime t) const { return t0 <= t && t <= t1; }
};

/// Everything the event popup window shows (paper §3.3).
struct EventInfo {
  // About the thread causing the event:
  ThreadId tid = 0;
  std::string thread_name;
  std::string start_func;   ///< function passed to thr_create
  SimTime thread_started;
  SimTime thread_ended;
  SimTime thread_working;   ///< time actually working
  SimTime thread_total;     ///< total incl. blocked/runnable time
  // About the event:
  std::string op;           ///< e.g. "thr_join"
  std::string object;       ///< e.g. "mutex#3" or "thread T4"
  std::int64_t outcome = 0;
  int cpu = -1;             ///< CPU it ran on in the simulated execution
  SimTime started;
  SimTime ended;
  SimTime duration;
  std::string source;       ///< "file.cpp:42" (empty if unrecorded)
};

class Visualizer {
 public:
  /// Binds a simulated execution to its source trace (for names and
  /// source locations).  Both must outlive the visualizer.
  Visualizer(const SimResult& result, const trace::Trace& source);

  const SimResult& result() const { return *result_; }
  const trace::Trace& source() const { return *source_; }

  // ---- view control ---------------------------------------------------

  const View& view() const { return view_; }
  void reset_view();
  /// Magnification in the paper's steps of 1.5x or 3x (any factor > 1).
  void zoom_in(double factor = 1.5);
  void zoom_out(double factor = 1.5);
  /// The parallelism-graph interval marking: the flow graph shows [a,b].
  void select_interval(SimTime a, SimTime b);

  // ---- thread display -------------------------------------------------

  std::vector<ThreadId> all_threads() const;
  const std::vector<ThreadId>& visible_threads() const { return visible_; }
  void show_all_threads();
  /// Manual selection from a list, as in the paper.
  void set_visible_threads(std::vector<ThreadId> threads);
  /// Automatic compression: hide threads with no activity in the view.
  void compress_threads();
  /// The flow-graph row that shows `tid`'s events: its first place in
  /// visible_threads(), or nullopt while it is hidden.
  std::optional<std::size_t> row_of(ThreadId tid) const;

  // ---- events ----------------------------------------------------------

  /// Events in display order (time, then thread).
  std::size_t event_count() const { return order_.size(); }
  const core::SimEvent& event(std::size_t idx) const;

  /// The event nearest to (tid, t) — a mouse click in the flow graph.
  std::optional<std::size_t> event_near(ThreadId tid, SimTime t) const;

  /// Select an event: it starts flashing and the view auto-scrolls to
  /// centre it (paper §3.3).
  void select_event(std::size_t idx);
  std::optional<std::size_t> selected_event() const { return selected_; }

  /// The popup contents for an event.
  EventInfo event_info(std::size_t idx) const;

  /// Stepping: previous/next event of the same thread.
  std::optional<std::size_t> next_event_same_thread(std::size_t idx) const;
  std::optional<std::size_t> prev_event_same_thread(std::size_t idx) const;

  /// Stepping: next/previous *similar* event — same synchronization
  /// object when the event has one (e.g. the next operation on the same
  /// mutex), otherwise the same event type.
  std::optional<std::size_t> next_similar_event(std::size_t idx) const;
  std::optional<std::size_t> prev_similar_event(std::size_t idx) const;

  /// Source mapping: "file:line" of the call that generated the event.
  std::string source_location(std::size_t idx) const;
  /// The recorded location behind source_location(), or nullptr when
  /// the event has none.
  const trace::SourceLoc* source_loc(std::size_t idx) const;

 private:
  bool similar(const core::SimEvent& a, const core::SimEvent& b) const;
  void set_visible(std::vector<ThreadId> threads);

  const SimResult* result_;
  const trace::Trace* source_;
  View view_;
  std::vector<ThreadId> visible_;
  std::unordered_map<ThreadId, std::size_t> row_of_;  ///< first row per tid
  std::vector<std::size_t> order_;  ///< event indices sorted for display
  std::optional<std::size_t> selected_;
};

// ---- renderers --------------------------------------------------------

struct RenderOptions {
  int width = 960;
  int flow_row_height = 26;
  int parallelism_height = 120;
  bool include_legend = true;
};

/// The combined fig. 5 layout: parallelism graph above the flow graph.
std::string render_svg(const Visualizer& viz, const RenderOptions& opts);

/// Individual graphs.
std::string render_parallelism_svg(const Visualizer& viz,
                                   const RenderOptions& opts);
std::string render_flow_svg(const Visualizer& viz, const RenderOptions& opts);

/// Terminal renderings (one row per thread; '=' running, '.' runnable,
/// ' ' blocked, event symbols overlaid).
std::string render_flow_ascii(const Visualizer& viz, int columns = 100);
std::string render_parallelism_ascii(const Visualizer& viz, int columns = 100,
                                     int rows = 8);

/// The LWP gantt: one row per simulated LWP showing which thread it
/// carries (digits/letters cycle through thread ids) — uppercase while
/// the LWP holds a CPU, lowercase while it waits for one, '.' idle.
/// Makes the two-level threads->LWPs->CPUs multiplexing visible.
std::string render_lwp_ascii(const Visualizer& viz, int columns = 100);

/// SVG form of the LWP gantt: coloured blocks per carried thread,
/// full-saturation while on a CPU, faded while waiting for one.
std::string render_lwp_svg(const Visualizer& viz, const RenderOptions& opts);

}  // namespace vppb::viz
