// SVG renderers: the reproduction's stand-in for the paper's Motif GUI.
// Layout follows fig. 5: the parallelism graph (running threads in
// green, runnable-but-not-running stacked on top in red) above the
// execution flow graph (one row per thread; solid line = executing,
// grey = runnable without a CPU, gap = blocked; events drawn as
// coloured symbols, e.g. semaphores in red with up/down arrows for
// sema_post/sema_wait).
#include <algorithm>
#include <charconv>
#include <concepts>
#include <string_view>

#include "viz/visualizer.hpp"

namespace vppb::viz {
namespace {

constexpr int kMarginLeft = 70;
constexpr int kMarginRight = 16;
constexpr int kAxisHeight = 22;

/// Colour per object kind (paper: "different events are displayed with
/// different symbols and colours, e.g. all semaphores are shown in red").
const char* kind_color(trace::ObjKind kind) {
  switch (kind) {
    case trace::ObjKind::kSema: return "#d62728";    // red, as in the paper
    case trace::ObjKind::kMutex: return "#1f77b4";   // blue
    case trace::ObjKind::kCond: return "#9467bd";    // purple
    case trace::ObjKind::kRwlock: return "#2ca02c";  // green
    case trace::ObjKind::kThread: return "#333333";  // black
    case trace::ObjKind::kIo: return "#e6820a";      // orange: devices
    default: return "#7f7f7f";
  }
}

struct Scale {
  SimTime t0;
  SimTime t1;
  double x0;
  double x1;

  double x(SimTime t) const {
    if (t1 <= t0) return x0;
    const double f = static_cast<double>((t - t0).ns()) /
                     static_cast<double>((t1 - t0).ns());
    return x0 + f * (x1 - x0);
  }
};

/// Text that is XML-escaped as it is appended.
struct Escaped {
  std::string_view text;
};

Escaped esc(std::string_view s) { return Escaped{s}; }

/// The one output buffer a renderer appends to.  Numbers go through
/// std::to_chars; a double prints as %g with 6 significant digits,
/// which is what operator<< prints at its default precision.
class Out {
 public:
  Out& operator<<(std::string_view s) {
    buf_ += s;
    return *this;
  }
  Out& operator<<(char c) {
    buf_ += c;
    return *this;
  }
  Out& operator<<(std::integral auto v) { return chars(v); }
  Out& operator<<(double v) {
    return chars(v, std::chars_format::general, 6);
  }
  Out& operator<<(Escaped e) {
    for (const char c : e.text) {
      switch (c) {
        case '<': buf_ += "&lt;"; break;
        case '>': buf_ += "&gt;"; break;
        case '&': buf_ += "&amp;"; break;
        case '\'': buf_ += "&apos;"; break;
        default: buf_ += c;
      }
    }
    return *this;
  }

  std::string take() { return std::move(buf_); }

 private:
  template <class... Format>
  Out& chars(Format... args) {
    char tmp[32];
    const auto res = std::to_chars(tmp, tmp + sizeof tmp, args...);
    buf_.append(tmp, res.ptr);
    return *this;
  }

  std::string buf_;
};

void axis(Out& os, const Scale& sc, double y) {
  os << "<line x1='" << sc.x0 << "' y1='" << y << "' x2='" << sc.x1
     << "' y2='" << y << "' stroke='#444' stroke-width='1'/>\n";
  for (int i = 0; i <= 8; ++i) {
    const SimTime t = sc.t0 + (sc.t1 - sc.t0) * i / 8;
    const double x = sc.x(t);
    os << "<line x1='" << x << "' y1='" << y << "' x2='" << x << "' y2='"
       << y + 4 << "' stroke='#444'/>\n";
    os << "<text x='" << x << "' y='" << y + 15
       << "' font-size='9' text-anchor='middle' fill='#444'>" << t.to_string()
       << "</text>\n";
  }
}

void parallelism_body(Out& os, const Visualizer& viz, const Scale& sc,
                      double top, double height) {
  const int samples = static_cast<int>(sc.x1 - sc.x0);
  std::vector<SimTime> times;
  for (int i = 0; i <= samples; ++i) {
    times.push_back(sc.t0 + (sc.t1 - sc.t0) * i / std::max(samples, 1));
  }
  const std::vector<core::SimResult::Parallelism> points =
      viz.result().parallelism_at(times);
  int max_stack = 1;
  for (const auto& p : points) {
    max_stack = std::max(max_stack, p.running + p.runnable);
  }
  const double unit = height / max_stack;
  for (int i = 0; i < samples; ++i) {
    const double x = sc.x0 + i;
    const auto& p = points[static_cast<std::size_t>(i)];
    if (p.running > 0) {
      os << "<rect x='" << x << "' y='" << top + height - p.running * unit
         << "' width='1' height='" << p.running * unit
         << "' fill='#2ca02c'/>\n";  // green: running
    }
    if (p.runnable > 0) {
      os << "<rect x='" << x << "' y='"
         << top + height - (p.running + p.runnable) * unit
         << "' width='1' height='" << p.runnable * unit
         << "' fill='#d62728'/>\n";  // red: runnable but not running
    }
  }
  // Scale marks on the left.
  for (int n = 1; n <= max_stack; ++n) {
    os << "<text x='" << sc.x0 - 6 << "' y='" << top + height - n * unit + 3
       << "' font-size='8' text-anchor='end' fill='#666'>" << n << "</text>\n";
  }
}

void event_symbol(Out& os, const Visualizer& viz, std::size_t idx, double x,
                  double y, bool selected) {
  const core::SimEvent& e = viz.event(idx);
  const char* color = kind_color(e.obj.kind);

  os << "<g>";
  switch (e.op) {
    case trace::Op::kSemaPost:  // upward arrow (paper §3.3)
      os << "<path d='M" << x << ' ' << y - 6 << " l-4 7 h8 z' fill='" << color
         << "'/>";
      break;
    case trace::Op::kSemaWait:  // downward arrow
      os << "<path d='M" << x << ' ' << y + 6 << " l-4 -7 h8 z' fill='"
         << color << "'/>";
      break;
    case trace::Op::kMutexLock:
    case trace::Op::kMutexTrylock:
      os << "<path d='M" << x << ' ' << y + 5 << " l-4 -7 h8 z' fill='"
         << color << "'/>";
      break;
    case trace::Op::kMutexUnlock:
      os << "<path d='M" << x << ' ' << y - 5 << " l-4 7 h8 z' fill='" << color
         << "'/>";
      break;
    case trace::Op::kThrCreate:
      os << "<circle cx='" << x << "' cy='" << y << "' r='4' fill='" << color
         << "'/>";
      break;
    case trace::Op::kThrJoin:
      os << "<circle cx='" << x << "' cy='" << y
         << "' r='4' fill='none' stroke='" << color << "' stroke-width='1.6'/>";
      break;
    case trace::Op::kThrExit:
      os << "<path d='M" << x - 4 << ' ' << y - 4 << " l8 8 m0 -8 l-8 8' "
         << "stroke='" << color << "' stroke-width='1.6'/>";
      break;
    case trace::Op::kCondBroadcast:
      os << "<rect x='" << x - 4 << "' y='" << y - 4
         << "' width='8' height='8' fill='" << color << "'/>";
      break;
    case trace::Op::kCondSignal:
    case trace::Op::kCondWait:
    case trace::Op::kCondTimedwait:
      os << "<rect x='" << x - 3.5 << "' y='" << y - 3.5
         << "' width='7' height='7' fill='none' stroke='" << color
         << "' stroke-width='1.5'/>";
      break;
    default:
      os << "<circle cx='" << x << "' cy='" << y << "' r='2.5' fill='" << color
         << "'/>";
      break;
  }
  if (selected) {
    // The selected event flashes (paper §3.3).
    os << "<circle cx='" << x << "' cy='" << y
       << "' r='8' fill='none' stroke='#ff9900' stroke-width='2'>"
       << "<animate attributeName='opacity' values='1;0;1' dur='1s' "
          "repeatCount='indefinite'/></circle>";
  }
  os << "<title>" << esc(trace::op_name(e.op));
  if (const trace::SourceLoc* loc = viz.source_loc(idx)) {
    // c_str(): the file name ends where source_location() ends it.
    os << " @ " << esc(viz.source().strings.get(loc->file).c_str()) << ':'
       << loc->line;
  }
  os << "</title></g>\n";
}

void flow_body(Out& os, const Visualizer& viz, const Scale& sc, double top,
               int row_height) {
  const std::vector<ThreadId>& rows = viz.visible_threads();
  const std::vector<std::vector<core::Segment>> segments =
      viz.result().thread_segments(rows);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const int row = static_cast<int>(i);
    const double y = top + row * row_height + row_height / 2.0;
    const trace::ThreadMeta* meta = viz.source().find_thread(rows[i]);
    os << "<text x='4' y='" << y + 3 << "' font-size='10' fill='#222'>T"
       << rows[i];
    if (meta != nullptr && meta->name != 0) {
      os << " (" << esc(viz.source().strings.get(meta->name)) << ')';
    }
    os << "</text>\n";

    for (const core::Segment& s : segments[i]) {
      if (s.end <= sc.t0 || s.start >= sc.t1) continue;
      const double xa = sc.x(std::max(s.start, sc.t0));
      const double xb = sc.x(std::min(s.end, sc.t1));
      switch (s.state) {
        case core::SegState::kRunning:
          os << "<line x1='" << xa << "' y1='" << y << "' x2='" << xb
             << "' y2='" << y << "' stroke='#111' stroke-width='3'>"
             << "<title>running on CPU " << s.cpu << "</title></line>\n";
          break;
        case core::SegState::kRunnable:
          // Grey line: ready but no LWP/CPU to run on (paper §3.3).
          os << "<line x1='" << xa << "' y1='" << y << "' x2='" << xb
             << "' y2='" << y << "' stroke='#aaaaaa' stroke-width='3'>"
             << "<title>runnable (no CPU)</title></line>\n";
          break;
        case core::SegState::kSleeping:
          os << "<line x1='" << xa << "' y1='" << y << "' x2='" << xb
             << "' y2='" << y
             << "' stroke='#88aacc' stroke-width='1' stroke-dasharray='3,3'/>"
             << '\n';
          break;
        case core::SegState::kBlocked:
          break;  // no line at all
      }
    }
  }

  for (std::size_t i = 0; i < viz.event_count(); ++i) {
    const core::SimEvent& e = viz.event(i);
    if (e.at < sc.t0 || e.at > sc.t1) continue;
    const std::optional<std::size_t> row = viz.row_of(e.tid);
    if (!row) continue;
    const int erow = static_cast<int>(*row);
    const double y = top + erow * row_height + row_height / 2.0;
    event_symbol(os, viz, i, sc.x(e.at), y,
                 viz.selected_event() && *viz.selected_event() == i);
  }
}

}  // namespace

std::string render_parallelism_svg(const Visualizer& viz,
                                   const RenderOptions& opts) {
  Out os;
  const int height = opts.parallelism_height + kAxisHeight;
  os << "<svg xmlns='http://www.w3.org/2000/svg' width='" << opts.width
     << "' height='" << height << "'>\n";
  const Scale sc{viz.view().t0, viz.view().t1,
                 static_cast<double>(kMarginLeft),
                 static_cast<double>(opts.width - kMarginRight)};
  parallelism_body(os, viz, sc, 4, opts.parallelism_height - 8);
  axis(os, sc, opts.parallelism_height);
  os << "</svg>\n";
  return os.take();
}

std::string render_flow_svg(const Visualizer& viz, const RenderOptions& opts) {
  Out os;
  const int rows = static_cast<int>(viz.visible_threads().size());
  const int height = rows * opts.flow_row_height + kAxisHeight + 8;
  os << "<svg xmlns='http://www.w3.org/2000/svg' width='" << opts.width
     << "' height='" << height << "'>\n";
  const Scale sc{viz.view().t0, viz.view().t1,
                 static_cast<double>(kMarginLeft),
                 static_cast<double>(opts.width - kMarginRight)};
  flow_body(os, viz, sc, 4, opts.flow_row_height);
  axis(os, sc, rows * opts.flow_row_height + 8);
  os << "</svg>\n";
  return os.take();
}

std::string render_lwp_svg(const Visualizer& viz, const RenderOptions& opts) {
  const auto& r = viz.result();
  const int rows = static_cast<int>(r.lwp_stats.size());
  const int row_height = opts.flow_row_height;
  const int height = rows * row_height + kAxisHeight + 8;

  // A small qualitative palette cycled by thread id.
  static const char* kPalette[] = {"#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
                                   "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
                                   "#bcbd22", "#17becf"};

  Out os;
  os << "<svg xmlns='http://www.w3.org/2000/svg' width='" << opts.width
     << "' height='" << height << "'>\n"
     << "<rect width='100%' height='100%' fill='white'/>\n";
  const Scale sc{viz.view().t0, viz.view().t1,
                 static_cast<double>(kMarginLeft),
                 static_cast<double>(opts.width - kMarginRight)};
  std::vector<int> lwps;
  for (const core::LwpStats& ls : r.lwp_stats) lwps.push_back(ls.id);
  const std::vector<std::vector<core::LwpSegment>> segments =
      r.segments_of_lwps(lwps);
  for (int row = 0; row < rows; ++row) {
    const core::LwpStats& ls = r.lwp_stats[static_cast<std::size_t>(row)];
    const double y = 4 + row * row_height;
    os << "<text x='4' y='" << y + row_height / 2.0 + 3
       << "' font-size='10' fill='#222'>L" << ls.id
       << (ls.dedicated ? " (bound)" : "") << "</text>\n";
    for (const core::LwpSegment& s : segments[static_cast<std::size_t>(row)]) {
      if (s.end <= sc.t0 || s.start >= sc.t1 || s.thread == 0) continue;
      const double xa = sc.x(std::max(s.start, sc.t0));
      const double xb = sc.x(std::min(s.end, sc.t1));
      const char* color =
          kPalette[static_cast<std::size_t>(s.thread) % 10];
      os << "<rect x='" << xa << "' y='" << y + 3 << "' width='"
         << std::max(0.5, xb - xa) << "' height='" << row_height - 6
         << "' fill='" << color << "' fill-opacity='"
         << (s.cpu >= 0 ? "0.95" : "0.30") << "'>"
         << "<title>T" << s.thread;
      if (s.cpu >= 0) {
        os << " on CPU " << s.cpu;
      } else {
        os << " waiting for a CPU";
      }
      os << "</title></rect>\n";
    }
  }
  axis(os, sc, 4.0 + rows * row_height + 2);
  os << "</svg>\n";
  return os.take();
}

std::string render_svg(const Visualizer& viz, const RenderOptions& opts) {
  const int rows = static_cast<int>(viz.visible_threads().size());
  const int flow_height = rows * opts.flow_row_height + kAxisHeight + 8;
  const int legend_height = opts.include_legend ? 18 : 0;
  const int total_height =
      opts.parallelism_height + kAxisHeight + 10 + flow_height + legend_height;

  Out os;
  os << "<svg xmlns='http://www.w3.org/2000/svg' width='" << opts.width
     << "' height='" << total_height << "'>\n"
     << "<rect width='100%' height='100%' fill='white'/>\n";
  const Scale sc{viz.view().t0, viz.view().t1,
                 static_cast<double>(kMarginLeft),
                 static_cast<double>(opts.width - kMarginRight)};
  parallelism_body(os, viz, sc, 4, opts.parallelism_height - 8);
  axis(os, sc, opts.parallelism_height);
  const double flow_top = opts.parallelism_height + kAxisHeight + 10;
  flow_body(os, viz, sc, flow_top, opts.flow_row_height);
  axis(os, sc, flow_top + rows * opts.flow_row_height + 4);
  if (opts.include_legend) {
    os << "<text x='" << kMarginLeft << "' y='" << total_height - 5
       << "' font-size='9' fill='#555'>green = running, red = runnable; "
          "flow: black = executing, grey = runnable, gap = blocked; "
          "red arrows = semaphore post/wait</text>\n";
  }
  os << "</svg>\n";
  return os.take();
}

}  // namespace vppb::viz
