// Tests for the Visualizer: view control (zoom keeps the left edge,
// interval selection), thread filtering/compression, event navigation
// (popup info, same-thread and similar-event stepping), source mapping,
// and the SVG/ASCII renderers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <string_view>

#include "core/engine.hpp"
#include "recorder/recorder.hpp"
#include "solaris/program.hpp"
#include "solaris/solaris.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "viz/visualizer.hpp"
#include "workloads/prodcons.hpp"
#include "workloads/splash.hpp"
#include "workloads/synthetic.hpp"

namespace vppb::viz {
namespace {

struct Fixture {
  trace::Trace log;
  core::SimResult result;

  explicit Fixture(int cpus = 2) {
    sol::Program program;
    log = rec::record_program(program, []() {
      sol::Semaphore sem(0u);
      sol::thread_t a = 0, b = 0;
      sol::thr_create_fn(
          [&sem]() -> void* {
            sol::compute(SimTime::millis(5));
            sem.post();
            sol::compute(SimTime::millis(5));
            return nullptr;
          },
          0, &a, "poster");
      sol::thr_create_fn(
          [&sem]() -> void* {
            sem.wait();
            sol::compute(SimTime::millis(8));
            return nullptr;
          },
          0, &b, "waiter");
      sol::join_all();
    });
    core::SimConfig cfg;
    cfg.hw.cpus = cpus;
    result = core::simulate(log, cfg);
  }
};

TEST(ViewTest, ResetSpansWholeRun) {
  Fixture f;
  Visualizer v(f.result, f.log);
  EXPECT_EQ(v.view().t0, SimTime::zero());
  EXPECT_EQ(v.view().t1, f.result.total);
}

TEST(ViewTest, ZoomKeepsLeftEdgeFixed) {
  // Paper §3.3: "the zoom keeps the left-most time fixed".
  Fixture f;
  Visualizer v(f.result, f.log);
  const SimTime t0 = v.view().t0;
  const SimTime width = v.view().width();
  v.zoom_in(1.5);
  EXPECT_EQ(v.view().t0, t0);
  EXPECT_NEAR(static_cast<double>(v.view().width().ns()),
              static_cast<double>(width.ns()) / 1.5, 2.0);
  v.zoom_in(3.0);
  EXPECT_EQ(v.view().t0, t0);
  v.zoom_out(1.5);
  EXPECT_EQ(v.view().t0, t0);
  EXPECT_THROW(v.zoom_in(0.5), Error);
}

TEST(ViewTest, ZoomOutClampsToRunEnd) {
  Fixture f;
  Visualizer v(f.result, f.log);
  v.zoom_out(100.0);
  EXPECT_LE(v.view().t1, f.result.total);
}

TEST(ViewTest, IntervalSelection) {
  Fixture f;
  Visualizer v(f.result, f.log);
  const SimTime a = f.result.total.scaled(0.25);
  const SimTime b = f.result.total.scaled(0.5);
  v.select_interval(a, b);
  EXPECT_EQ(v.view().t0, a);
  EXPECT_EQ(v.view().t1, b);
  EXPECT_THROW(v.select_interval(b, a), Error);
}

TEST(ThreadsTest, VisibleDefaultsToAll) {
  Fixture f;
  Visualizer v(f.result, f.log);
  EXPECT_EQ(v.visible_threads().size(), f.result.threads.size());
}

TEST(ThreadsTest, ManualSelection) {
  Fixture f;
  Visualizer v(f.result, f.log);
  v.set_visible_threads({4});
  ASSERT_EQ(v.visible_threads().size(), 1u);
  EXPECT_EQ(v.visible_threads()[0], 4);
  v.show_all_threads();
  EXPECT_GT(v.visible_threads().size(), 1u);
}

TEST(ThreadsTest, CompressionHidesInactive) {
  Fixture f;
  Visualizer v(f.result, f.log);
  // The waiter (T5) is blocked for the first ~5ms; a view inside that
  // window must hide it after compression... unless it is runnable.
  v.select_interval(SimTime::micros(100), SimTime::millis(2));
  v.compress_threads();
  bool waiter_visible = false;
  for (const ThreadId tid : v.visible_threads()) {
    if (tid == 5) waiter_visible = true;
  }
  EXPECT_FALSE(waiter_visible)
      << "a thread blocked for the whole interval is not active";
  // Over the whole run both workers are active; main never runs (it
  // blocks in join for the entire execution), so compression drops it.
  v.reset_view();
  v.compress_threads();
  EXPECT_EQ(v.visible_threads().size(), 2u);
}

TEST(ThreadsTest, CompressionMatchesAScanPerThread) {
  // Over the whole run and each eighth of it, compression keeps exactly
  // the threads with a running or runnable segment in the view, in
  // thread-id order.
  sol::Program program;
  const trace::Trace log = rec::record_program(program, [] {
    workloads::fft(workloads::SplashParams{8, 0.1});
  });
  for (const int cpus : {1, 4}) {
    core::SimConfig cfg;
    cfg.hw.cpus = cpus;
    const core::SimResult r = core::simulate(log, cfg);
    Visualizer v(r, log);
    for (int eighth = -1; eighth < 8; ++eighth) {
      if (eighth >= 0) {
        v.select_interval(r.total * eighth / 8, r.total * (eighth + 1) / 8);
      }
      std::vector<ThreadId> expected;
      for (const ThreadId tid : v.all_threads()) {
        for (const core::Segment& s : r.segments) {
          if (s.tid == tid &&
              (s.state == core::SegState::kRunning ||
               s.state == core::SegState::kRunnable) &&
              s.start < v.view().t1 && s.end > v.view().t0) {
            expected.push_back(tid);
            break;
          }
        }
      }
      v.compress_threads();
      EXPECT_EQ(v.visible_threads(), expected)
          << cpus << " CPUs, eighth " << eighth;
    }
  }
}

TEST(EventsTest, OrderedByTime) {
  Fixture f;
  Visualizer v(f.result, f.log);
  ASSERT_GT(v.event_count(), 0u);
  for (std::size_t i = 1; i < v.event_count(); ++i) {
    EXPECT_GE(v.event(i).at, v.event(i - 1).at);
  }
  EXPECT_THROW(v.event(v.event_count()), Error);
}

TEST(EventsTest, EventNearFindsClosest) {
  Fixture f;
  Visualizer v(f.result, f.log);
  // The poster's sema_post happens at ~5ms.
  const auto idx = v.event_near(4, SimTime::millis(5));
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(v.event(*idx).tid, 4);
  EXPECT_FALSE(v.event_near(99, SimTime::zero()).has_value());
}

TEST(EventsTest, PopupInfoFields) {
  Fixture f;
  Visualizer v(f.result, f.log);
  std::size_t post_idx = 0;
  for (std::size_t i = 0; i < v.event_count(); ++i) {
    if (v.event(i).op == trace::Op::kSemaPost) post_idx = i;
  }
  const EventInfo info = v.event_info(post_idx);
  EXPECT_EQ(info.tid, 4);
  EXPECT_EQ(info.thread_name, "poster");
  EXPECT_EQ(info.start_func, "poster");
  EXPECT_EQ(info.op, "sema_post");
  EXPECT_EQ(info.object, "sema#1");
  EXPECT_GE(info.cpu, 0);
  EXPECT_EQ(info.started, SimTime::millis(5));
  EXPECT_GE(info.thread_working, SimTime::millis(10));
  EXPECT_NE(info.source.find("test_viz.cpp"), std::string::npos);
}

TEST(EventsTest, SelectCentersView) {
  Fixture f;
  Visualizer v(f.result, f.log);
  v.zoom_in(3.0);
  std::size_t post_idx = 0;
  for (std::size_t i = 0; i < v.event_count(); ++i) {
    if (v.event(i).op == trace::Op::kSemaPost) post_idx = i;
  }
  v.select_event(post_idx);
  ASSERT_TRUE(v.selected_event().has_value());
  EXPECT_EQ(*v.selected_event(), post_idx);
  const SimTime at = v.event(post_idx).at;
  EXPECT_LE(v.view().t0, at);
  EXPECT_GE(v.view().t1, at);
}

TEST(EventsTest, SameThreadStepping) {
  Fixture f;
  Visualizer v(f.result, f.log);
  // First event of T4, then walk forward through all of T4's events.
  std::optional<std::size_t> cursor;
  for (std::size_t i = 0; i < v.event_count(); ++i) {
    if (v.event(i).tid == 4) {
      cursor = i;
      break;
    }
  }
  ASSERT_TRUE(cursor.has_value());
  int count = 1;
  while (auto next = v.next_event_same_thread(*cursor)) {
    EXPECT_EQ(v.event(*next).tid, 4);
    cursor = next;
    ++count;
  }
  EXPECT_GE(count, 2);  // at least post + exit
  // And back again.
  while (auto prev = v.prev_event_same_thread(*cursor)) {
    EXPECT_EQ(v.event(*prev).tid, 4);
    cursor = prev;
    --count;
  }
  EXPECT_EQ(count, 1);
}

TEST(EventsTest, SimilarSteppingFollowsObject) {
  Fixture f;
  Visualizer v(f.result, f.log);
  // The first semaphore op: its "similar" successor must be on the same
  // semaphore even though another thread causes it.
  std::optional<std::size_t> first_sema;
  for (std::size_t i = 0; i < v.event_count(); ++i) {
    if (v.event(i).obj.kind == trace::ObjKind::kSema) {
      first_sema = i;
      break;
    }
  }
  ASSERT_TRUE(first_sema.has_value());
  const auto next = v.next_similar_event(*first_sema);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(v.event(*next).obj, v.event(*first_sema).obj);
  const auto back = v.prev_similar_event(*next);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, *first_sema);
}

TEST(RenderTest, AsciiFlowShowsStatesAndEvents) {
  Fixture f(1);  // one CPU: runnable (grey) time is guaranteed
  Visualizer v(f.result, f.log);
  const std::string flow = render_flow_ascii(v, 100);
  EXPECT_NE(flow.find("T1"), std::string::npos);
  EXPECT_NE(flow.find("T4"), std::string::npos);
  EXPECT_NE(flow.find('='), std::string::npos);   // running
  EXPECT_NE(flow.find('.'), std::string::npos);   // runnable
  EXPECT_NE(flow.find('^'), std::string::npos);   // sema_post
  EXPECT_NE(flow.find('X'), std::string::npos);   // thr_exit
  EXPECT_THROW(render_flow_ascii(v, 5), Error);
}

TEST(RenderTest, AsciiParallelismShowsLoad) {
  Fixture f(1);
  Visualizer v(f.result, f.log);
  const std::string graph = render_parallelism_ascii(v, 80, 6);
  EXPECT_NE(graph.find('#'), std::string::npos);  // running
  EXPECT_NE(graph.find('+'), std::string::npos);  // runnable on top
}

TEST(RenderTest, SvgIsWellFormedAndComplete) {
  Fixture f;
  Visualizer v(f.result, f.log);
  std::size_t post_idx = 0;
  for (std::size_t i = 0; i < v.event_count(); ++i) {
    if (v.event(i).op == trace::Op::kSemaPost) post_idx = i;
  }
  v.select_event(post_idx);
  const std::string svg = render_svg(v, RenderOptions{});
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // The selected event flashes.
  EXPECT_NE(svg.find("animate"), std::string::npos);
  // Semaphore arrows are red, per the paper.
  EXPECT_NE(svg.find("#d62728"), std::string::npos);
  // Thread labels present.
  EXPECT_NE(svg.find("poster"), std::string::npos);
  // Tooltips carry source locations.
  EXPECT_NE(svg.find("test_viz.cpp"), std::string::npos);
}

TEST(RenderTest, IndividualGraphRenderers) {
  Fixture f;
  Visualizer v(f.result, f.log);
  EXPECT_NE(render_parallelism_svg(v, RenderOptions{}).find("<svg"),
            std::string::npos);
  EXPECT_NE(render_flow_svg(v, RenderOptions{}).find("<svg"),
            std::string::npos);
}

TEST(RenderTest, LwpGanttShowsMultiplexing) {
  // 2 workers + main on 1 LWP: the single LWP's row must carry several
  // different thread glyphs over time.
  sol::Program program;
  const trace::Trace log = rec::record_program(program, []() {
    for (int i = 0; i < 2; ++i) {
      sol::thr_create_fn(
          []() -> void* {
            sol::compute(SimTime::millis(5));
            return nullptr;
          },
          0, nullptr, "w");
    }
    sol::join_all();
  });
  core::SimConfig cfg;
  cfg.hw.cpus = 1;
  cfg.sched.lwps = 1;
  const core::SimResult r = core::simulate(log, cfg);
  Visualizer v(r, log);
  const std::string gantt = render_lwp_ascii(v, 80);
  EXPECT_NE(gantt.find("L0"), std::string::npos);
  // Worker tids 4 and 5 -> glyphs '4' and '5' appear on the same row.
  EXPECT_NE(gantt.find('4'), std::string::npos);
  EXPECT_NE(gantt.find('5'), std::string::npos);
  EXPECT_EQ(gantt.find("L1"), std::string::npos) << "only one LWP existed";
}

TEST(RenderTest, LwpSvgGantt) {
  Fixture f(1);
  Visualizer v(f.result, f.log);
  const std::string svg = render_lwp_svg(v, RenderOptions{});
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("L0"), std::string::npos);
  EXPECT_NE(svg.find("waiting for a CPU"), std::string::npos)
      << "on one CPU some LWP must have waited";
}

TEST(RenderTest, HiddenThreadsNotRendered) {
  Fixture f;
  Visualizer v(f.result, f.log);
  v.set_visible_threads({1});
  const std::string flow = render_flow_ascii(v, 60);
  EXPECT_NE(flow.find("T1"), std::string::npos);
  EXPECT_EQ(flow.find("T4"), std::string::npos);
  const std::string svg = render_flow_svg(v, RenderOptions{});
  EXPECT_EQ(svg.find("poster"), std::string::npos);
}

TEST(RenderTest, ZoomedViewClipsSegments) {
  Fixture f;
  Visualizer v(f.result, f.log);
  // Focus on the first millisecond: only the poster runs there.
  v.select_interval(SimTime::zero(), SimTime::millis(1));
  const std::string flow = render_flow_ascii(v, 60);
  // The waiter's row should be blank (blocked on the semaphore).
  bool waiter_row_blank = false;
  for (const auto& line : split(flow, '\n')) {
    if (starts_with(line, "T5")) {
      waiter_row_blank = line.find('=') == std::string_view::npos;
    }
  }
  EXPECT_TRUE(waiter_row_blank);
}


// ---- pinned output bytes ---------------------------------------------
//
// Size and FNV-1a digest of every renderer's output on seven views that
// between them reach every drawing path: the whatif-service request
// (Ocean-32 at 4 CPUs, compressed), a zoomed view with clipped
// segments and a flashing selected event, dedicated LWPs, names and
// files that need escaping, a zero-length run, a log of more than 64
// threads, and rows for a repeated and an unknown tid.  Any change to
// the renderers must leave these unchanged.

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

struct Pin {
  std::size_t size;
  std::uint64_t fnv;
};

constexpr const char* kRenderers[] = {
    "render_svg",         "render_parallelism_svg",   "render_flow_svg",
    "render_lwp_svg",     "render_parallelism_ascii", "render_flow_ascii",
    "render_lwp_ascii"};

void expect_pinned(const char* name, const Visualizer& v,
                   const std::array<Pin, 7>& pins) {
  const RenderOptions opts;
  const std::string out[] = {render_svg(v, opts),
                             render_parallelism_svg(v, opts),
                             render_flow_svg(v, opts),
                             render_lwp_svg(v, opts),
                             render_parallelism_ascii(v, 100, 8),
                             render_flow_ascii(v, 100),
                             render_lwp_ascii(v, 100)};
  for (std::size_t i = 0; i < pins.size(); ++i) {
    const std::uint64_t fnv = fnv1a(out[i]);
    EXPECT_TRUE(out[i].size() == pins[i].size && fnv == pins[i].fnv)
        << name << " " << kRenderers[i] << ": actual {" << out[i].size()
        << ", 0x" << std::hex << fnv << std::dec << "}";
  }
}

/// Records `body` with each source line replaced by its location's
/// index, so the pins follow the renderers and not edits to the
/// recorded sources.
trace::Trace record_fixed_lines(const std::function<void()>& body) {
  sol::Program program;
  trace::Trace log = rec::record_program(program, body);
  for (std::uint32_t i = 1; i < log.locations.size(); ++i)
    log.locations[i].line = i;
  return log;
}

core::SimResult simulate_on(const trace::Trace& log, int cpus) {
  core::SimConfig cfg;
  cfg.hw.cpus = cpus;
  return core::simulate(log, cfg);
}

TEST(RenderTest, OutputBytesArePinned) {
  {
    const trace::Trace log = record_fixed_lines([] {
      workloads::ocean(workloads::SplashParams{32, 0.5});
    });
    const core::SimResult r = simulate_on(log, 4);
    Visualizer v(r, log);
    v.compress_threads();
    expect_pinned("ocean32_cpus4_compressed", v,
                  {{{1239004, 0x13c0fa378b27b6ec},
                   {105388, 0x4d1fbd0f7e7b0b16},
                   {1131913, 0x34c1256a37431501},
                   {440648, 0xd0f1f7271c8c6ac6},
                   {970, 0x3c77289305480b37},
                   {3493, 0xd4a2e0c1adb95cf9},
                   {3608, 0xa5c837d1ddb0f975}}});
  }
  {
    const trace::Trace log = record_fixed_lines([] {
      workloads::fft(workloads::SplashParams{64, 0.2});
    });
    const core::SimResult r = simulate_on(log, 8);
    Visualizer v(r, log);
    v.zoom_in(3.0);
    v.select_event(v.event_count() / 2);
    expect_pinned("fft64_cpus8_zoom3_selected", v,
                  {{{137085, 0x92e625b6d112bc6b},
                   {75044, 0xe4bdb095e9d670ef},
                   {61804, 0x6b74c05af38bf628},
                   {14163, 0xdf7872703387ffe9},
                   {970, 0x8175f221f2b2fc6d},
                   {7026, 0x51f5359c03b613ab},
                   {1682, 0xa6c7383122a6192d}}});
  }
  {
    const trace::Trace log = record_fixed_lines(
        [] { workloads::fork_join(6, SimTime::millis(2)); });
    core::SimConfig cfg;
    cfg.hw.cpus = 2;
    core::ThreadPolicy to_lwp;
    to_lwp.override_binding = true;
    to_lwp.binding = core::Binding::kBoundLwp;
    cfg.sched.thread_policy[5] = to_lwp;
    core::ThreadPolicy to_cpu = to_lwp;
    to_cpu.binding = core::Binding::kBoundCpu;
    to_cpu.cpu = 1;
    cfg.sched.thread_policy[6] = to_cpu;
    const core::SimResult r = core::simulate(log, cfg);
    ASSERT_TRUE(std::any_of(
        r.lwp_stats.begin(), r.lwp_stats.end(),
        [](const core::LwpStats& l) { return l.dedicated; }));
    Visualizer v(r, log);
    expect_pinned("fork_join6_cpus2_bound", v,
                  {{{107802, 0x94e5c21d3daf5058},
                   {102103, 0x6532b457decd8c26},
                   {5518, 0xd260de271db70b35},
                   {3033, 0x716921a81314559e},
                   {969, 0x2b0ada4d69dcfa83},
                   {815, 0x374db7a9221ee02b},
                   {829, 0x2b3aab54a1649976}}});
  }
  {
    trace::Trace log = record_fixed_lines([] {
      sol::Semaphore sem(0u);
      sol::thr_create_fn(
          [&sem]() -> void* {
            sol::compute(SimTime::millis(3));
            sem.post();
            return nullptr;
          },
          0, nullptr, "<poster> & 'friend'");
      sem.wait();
      sol::join_all();
    });
    const std::uint32_t odd = log.strings.intern("src/<odd> & 'dir'/main.cpp");
    for (std::size_t i = 1; i < log.locations.size(); ++i)
      log.locations[i].file = odd;
    const core::SimResult r = simulate_on(log, 2);
    Visualizer v(r, log);
    const std::string svg = render_svg(v, RenderOptions{});
    ASSERT_NE(svg.find("&lt;poster&gt; &amp; &apos;friend&apos;"),
              std::string::npos);
    ASSERT_NE(svg.find("src/&lt;odd&gt; &amp; &apos;dir&apos;/main.cpp"),
              std::string::npos);
    expect_pinned("escaped_names_cpus2", v,
                  {{{57141, 0xf99063cf263f2d9e},
                   {53952, 0xdd728d807d13a772},
                   {2994, 0xdb7054f89916b407},
                   {1713, 0x2a5706d2fbe77c81},
                   {969, 0x4e2b9b60f059f69b},
                   {285, 0x9ef9e7347bf76299},
                   {299, 0xc90873497e20de1e}}});
  }
  {
    const trace::Trace log;
    const core::SimResult r = simulate_on(log, 1);
    Visualizer v(r, log);
    expect_pinned("empty_run", v,
                  {{{3128, 0x7392ab3744cbc607},
                   {1524, 0xe8626b62d9fb2e6b},
                   {1411, 0x214ba6afac281508},
                   {1459, 0x34c23bbc41345639},
                   {969, 0x8bf76c7cc6c1a543},
                   {73, 0x3605f22f4f533195},
                   {87, 0xb6d02fd7b6764b19}}});
  }
  {
    const trace::Trace log = record_fixed_lines([] {
      workloads::ProdConsParams p;
      p.producers = 50;
      p.consumers = 25;
      workloads::prodcons_tuned(p);
    });
    const core::SimResult r = simulate_on(log, 4);
    ASSERT_GT(r.threads.size(), 64u);
    Visualizer v(r, log);
    expect_pinned("prodcons_tuned76_cpus4", v,
                  {{{800169, 0x8d9c9e490b393eed},
                   {118039, 0x7cb925c70c6dff7},
                   {680926, 0x23dcb470bbdaaeb},
                   {145835, 0x8fa45d2f9e66bf84},
                   {970, 0x3677dd087b2366a8},
                   {8199, 0x4cbe26e78c185abb},
                   {5855, 0xab5273ea579bbd6e}}});
  }
  {
    // A tid listed twice draws its segments on both rows and its events
    // on the first; an unknown tid gets an empty row.
    Fixture f(1);
    for (std::uint32_t i = 1; i < f.log.locations.size(); ++i)
      f.log.locations[i].line = i;
    Visualizer v(f.result, f.log);
    v.set_visible_threads({5, 4, 5, 99, 1});
    expect_pinned("repeated_and_unknown_rows", v,
                  {{{86544, 0x32d3b10763bad0df},
                   {82669, 0x31433e003573db02},
                   {3705, 0x507d13ca32e43ef9},
                   {2022, 0xce75455de31ece64},
                   {969, 0xf939c3b6bc1e7708},
                   {605, 0x29ecd36e26ad02cd},
                   {405, 0xdfb5993d8253809b}}});
  }
}

}  // namespace
}  // namespace vppb::viz
