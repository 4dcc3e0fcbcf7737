// Terminal renderers: quick views of the two graphs for tests, examples
// and headless environments.
#include <algorithm>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "viz/visualizer.hpp"

namespace vppb::viz {
namespace {

char event_char(trace::Op op) {
  switch (op) {
    case trace::Op::kSemaWait: return 'v';
    case trace::Op::kSemaPost: return '^';
    case trace::Op::kMutexLock:
    case trace::Op::kMutexTrylock: return 'm';
    case trace::Op::kMutexUnlock: return 'u';
    case trace::Op::kThrCreate: return 'C';
    case trace::Op::kThrJoin: return 'J';
    case trace::Op::kThrExit: return 'X';
    case trace::Op::kCondWait:
    case trace::Op::kCondTimedwait: return 'w';
    case trace::Op::kCondSignal: return 's';
    case trace::Op::kCondBroadcast: return 'B';
    case trace::Op::kRwRdlock:
    case trace::Op::kRwTryRdlock: return 'r';
    case trace::Op::kRwWrlock:
    case trace::Op::kRwTryWrlock: return 'W';
    case trace::Op::kRwUnlock: return 'u';
    case trace::Op::kIoWait: return 'D';
    default: return '*';
  }
}

char state_char(core::SegState s) {
  switch (s) {
    case core::SegState::kRunning: return '=';
    case core::SegState::kRunnable: return '.';
    case core::SegState::kSleeping: return '~';
    case core::SegState::kBlocked: return ' ';
  }
  return ' ';
}

}  // namespace

std::string render_flow_ascii(const Visualizer& viz, int columns) {
  VPPB_CHECK_MSG(columns >= 10, "need at least 10 columns");
  const View& view = viz.view();
  const SimTime width = view.width();
  auto col_of = [&](SimTime t) {
    if (width.is_zero()) return 0;
    auto c = static_cast<int>((t - view.t0).ns() * columns / width.ns());
    return std::clamp(c, 0, columns - 1);
  };

  const std::vector<ThreadId>& rows = viz.visible_threads();
  const std::vector<std::vector<core::Segment>> segments =
      viz.result().thread_segments(rows);
  std::vector<std::string> lines(
      rows.size(), std::string(static_cast<std::size_t>(columns), ' '));
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (const core::Segment& s : segments[r]) {
      if (s.end <= view.t0 || s.start >= view.t1) continue;
      const int a = col_of(std::max(s.start, view.t0));
      const int b = col_of(std::min(s.end, view.t1));
      for (int c = a; c <= b; ++c)
        lines[r][static_cast<std::size_t>(c)] = state_char(s.state);
    }
  }
  // Events overlay the segments; a repeated tid shows its first row.
  for (std::size_t i = 0; i < viz.event_count(); ++i) {
    const core::SimEvent& e = viz.event(i);
    if (e.at < view.t0 || e.at > view.t1) continue;
    if (const auto row = viz.row_of(e.tid)) {
      lines[*row][static_cast<std::size_t>(col_of(e.at))] = event_char(e.op);
    }
  }

  std::string out = "time: " + view.t0.to_string() + " .. " +
                    view.t1.to_string() +
                    "  (= running, . runnable, ~ sleeping, blank blocked)\n";
  for (const ThreadId tid : rows) {
    out += 'T' + std::to_string(tid) + "\t|" + lines[*viz.row_of(tid)] + "|\n";
  }
  return out;
}

std::string render_parallelism_ascii(const Visualizer& viz, int columns,
                                     int rows) {
  VPPB_CHECK_MSG(columns >= 10 && rows >= 2, "grid too small");
  const View& view = viz.view();
  std::vector<SimTime> times;
  for (int c = 0; c < columns; ++c) {
    times.push_back(view.t0 + view.width() * c / std::max(columns - 1, 1));
  }
  const std::vector<core::SimResult::Parallelism> cols =
      viz.result().parallelism_at(times);
  int max_stack = 1;
  for (const auto& p : cols) {
    max_stack = std::max(max_stack, p.running + p.runnable);
  }
  std::string out = "parallelism (# running, + runnable), max " +
                    std::to_string(max_stack) + "\n";
  for (int r = rows; r >= 1; --r) {
    // Threshold for this row: which stack height it represents.
    const double level = static_cast<double>(r) * max_stack / rows;
    std::string line(static_cast<std::size_t>(columns), ' ');
    for (int c = 0; c < columns; ++c) {
      const auto& p = cols[static_cast<std::size_t>(c)];
      if (p.running >= level) {
        line[static_cast<std::size_t>(c)] = '#';
      } else if (p.running + p.runnable >= level) {
        line[static_cast<std::size_t>(c)] = '+';
      }
    }
    out += '|' + line + "|\n";
  }
  out += ' ' + std::string(static_cast<std::size_t>(columns), '-') + "\n";
  return out;
}

std::string render_lwp_ascii(const Visualizer& viz, int columns) {
  VPPB_CHECK_MSG(columns >= 10, "need at least 10 columns");
  const View& view = viz.view();
  const SimTime width = view.width();
  auto col_of = [&](SimTime t) {
    if (width.is_zero()) return 0;
    auto c = static_cast<int>((t - view.t0).ns() * columns / width.ns());
    return std::clamp(c, 0, columns - 1);
  };
  // Stable, readable glyph per thread id.
  auto glyph = [](ThreadId tid, bool on_cpu) {
    static const char* kUpper = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ";
    static const char* kLower = "0123456789abcdefghijklmnopqrstuvwxyz";
    const int slot = tid % 36;
    return on_cpu ? kUpper[slot] : kLower[slot];
  };

  std::string out =
      "LWPs (UPPER = on a CPU, lower = waiting for a CPU, . = idle); "
      "glyph = thread id mod 36\n";
  std::vector<int> lwp_ids;
  for (const core::LwpStats& ls : viz.result().lwp_stats)
    lwp_ids.push_back(ls.id);
  const std::vector<std::vector<core::LwpSegment>> segments =
      viz.result().segments_of_lwps(lwp_ids);
  for (std::size_t r = 0; r < lwp_ids.size(); ++r) {
    std::string line(static_cast<std::size_t>(columns), '.');
    for (const core::LwpSegment& s : segments[r]) {
      if (s.end <= view.t0 || s.start >= view.t1 || s.thread == 0) continue;
      const int a = col_of(std::max(s.start, view.t0));
      const int b = col_of(std::min(s.end, view.t1));
      for (int c = a; c <= b; ++c)
        line[static_cast<std::size_t>(c)] = glyph(s.thread, s.cpu >= 0);
    }
    out += 'L' + std::to_string(lwp_ids[r]) + "\t|" + line + "|\n";
  }
  return out;
}

}  // namespace vppb::viz
