#include <algorithm>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "viz/visualizer.hpp"

namespace vppb::viz {

Visualizer::Visualizer(const SimResult& result, const trace::Trace& source)
    : result_(&result), source_(&source) {
  order_.resize(result.events.size());
  for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  // Stable: events of one thread at one instant keep the result's order.
  std::stable_sort(order_.begin(), order_.end(), [&result](std::size_t a,
                                                           std::size_t b) {
    const auto& ea = result.events[a];
    const auto& eb = result.events[b];
    if (ea.at != eb.at) return ea.at < eb.at;
    return ea.tid < eb.tid;
  });
  reset_view();
  show_all_threads();
}

void Visualizer::reset_view() {
  view_ = View{SimTime::zero(),
               result_->total.is_zero() ? SimTime::micros(1) : result_->total};
}

void Visualizer::zoom_in(double factor) {
  VPPB_CHECK_MSG(factor > 1.0, "zoom factor must exceed 1");
  // Left-most time stays fixed (paper §3.3).
  view_.t1 = view_.t0 + view_.width().scaled(1.0 / factor);
  if (view_.t1 <= view_.t0) view_.t1 = view_.t0 + SimTime::nanos(1);
}

void Visualizer::zoom_out(double factor) {
  VPPB_CHECK_MSG(factor > 1.0, "zoom factor must exceed 1");
  view_.t1 = view_.t0 + view_.width().scaled(factor);
  if (view_.t1 > result_->total) view_.t1 = result_->total;
  if (view_.t1 <= view_.t0) view_.t1 = result_->total;
}

void Visualizer::select_interval(SimTime a, SimTime b) {
  VPPB_CHECK_MSG(a < b, "empty interval selected");
  view_ = View{std::max(SimTime::zero(), a), std::min(result_->total, b)};
}

std::vector<ThreadId> Visualizer::all_threads() const {
  std::vector<ThreadId> out;
  out.reserve(result_->threads.size());
  for (const auto& [tid, stats] : result_->threads) out.push_back(tid);
  return out;
}

void Visualizer::show_all_threads() { set_visible(all_threads()); }

void Visualizer::set_visible_threads(std::vector<ThreadId> threads) {
  set_visible(std::move(threads));
}

void Visualizer::compress_threads() {
  // Keep only threads active during the shown interval (paper §3.3:
  // "the compression only shows the threads active during the time
  // interval shown in the execution flow graph").  One pass over the
  // segments marks them, and stops once every thread is marked.
  const std::vector<ThreadId> all = all_threads();
  std::unordered_map<ThreadId, std::size_t> slot;
  slot.reserve(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) slot.emplace(all[i], i);
  std::vector<bool> active(all.size(), false);
  std::size_t marked = 0;
  for (const core::Segment& s : result_->segments) {
    if (marked == all.size()) break;
    if ((s.state != core::SegState::kRunning &&
         s.state != core::SegState::kRunnable) ||
        s.start >= view_.t1 || s.end <= view_.t0) {
      continue;
    }
    const auto it = slot.find(s.tid);
    if (it != slot.end() && !active[it->second]) {
      active[it->second] = true;
      ++marked;
    }
  }
  std::vector<ThreadId> kept;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (active[i]) kept.push_back(all[i]);
  }
  set_visible(std::move(kept));
}

void Visualizer::set_visible(std::vector<ThreadId> threads) {
  visible_ = std::move(threads);
  row_of_.clear();
  for (std::size_t i = 0; i < visible_.size(); ++i)
    row_of_.emplace(visible_[i], i);  // a repeated tid keeps its first row
}

std::optional<std::size_t> Visualizer::row_of(ThreadId tid) const {
  const auto it = row_of_.find(tid);
  if (it == row_of_.end()) return std::nullopt;
  return it->second;
}

const core::SimEvent& Visualizer::event(std::size_t idx) const {
  VPPB_CHECK_MSG(idx < order_.size(), "event index out of range: " << idx);
  return result_->events[order_[idx]];
}

std::optional<std::size_t> Visualizer::event_near(ThreadId tid,
                                                  SimTime t) const {
  std::optional<std::size_t> best;
  std::int64_t best_dist = 0;
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const auto& e = event(i);
    if (e.tid != tid) continue;
    const std::int64_t dist = std::abs(e.at.ns() - t.ns());
    if (!best || dist < best_dist) {
      best = i;
      best_dist = dist;
    }
  }
  return best;
}

void Visualizer::select_event(std::size_t idx) {
  VPPB_CHECK_MSG(idx < order_.size(), "event index out of range: " << idx);
  selected_ = idx;
  // Auto-scroll: centre the view on the event, keeping the width.
  const SimTime width = view_.width();
  SimTime t0 = event(idx).at - width / 2;
  if (t0 < SimTime::zero()) t0 = SimTime::zero();
  SimTime t1 = t0 + width;
  if (t1 > result_->total) {
    t1 = result_->total;
    t0 = t1 > width ? t1 - width : SimTime::zero();
  }
  view_ = View{t0, t1};
}

EventInfo Visualizer::event_info(std::size_t idx) const {
  const core::SimEvent& e = event(idx);
  EventInfo info;
  info.tid = e.tid;
  const trace::ThreadMeta* meta = source_->find_thread(e.tid);
  if (meta != nullptr) {
    info.thread_name = source_->strings.get(meta->name);
    info.start_func = source_->strings.get(meta->start_func);
  }
  auto it = result_->threads.find(e.tid);
  if (it != result_->threads.end()) {
    const core::ThreadStats& st = it->second;
    info.thread_started = st.created_at;
    info.thread_ended = st.exited_at;
    info.thread_working = st.cpu_time;
    info.thread_total = st.exited_at - st.created_at;
  }
  info.op = std::string(trace::op_name(e.op));
  switch (e.obj.kind) {
    case trace::ObjKind::kThread:
      info.object = e.obj.id == 0 ? std::string("any thread")
                                  : strprintf("thread T%u", e.obj.id);
      break;
    case trace::ObjKind::kNone:
    case trace::ObjKind::kMark:
      info.object = "";
      break;
    default:
      info.object = strprintf("%s#%u",
                              std::string(obj_kind_name(e.obj.kind)).c_str(),
                              e.obj.id);
      break;
  }
  info.outcome = e.outcome;
  info.cpu = e.cpu;
  info.started = e.at;
  info.ended = e.done;
  info.duration = e.done - e.at;
  info.source = source_location(idx);
  return info;
}

std::optional<std::size_t> Visualizer::next_event_same_thread(
    std::size_t idx) const {
  const ThreadId tid = event(idx).tid;
  for (std::size_t i = idx + 1; i < order_.size(); ++i) {
    if (event(i).tid == tid) return i;
  }
  return std::nullopt;
}

std::optional<std::size_t> Visualizer::prev_event_same_thread(
    std::size_t idx) const {
  const ThreadId tid = event(idx).tid;
  for (std::size_t i = idx; i-- > 0;) {
    if (event(i).tid == tid) return i;
  }
  return std::nullopt;
}

bool Visualizer::similar(const core::SimEvent& a,
                         const core::SimEvent& b) const {
  // "The next event caused by the same event type or variable, e.g. the
  // next operation on the same mutex variable" (paper §3.3).
  if (a.obj.kind != trace::ObjKind::kNone &&
      a.obj.kind != trace::ObjKind::kMark) {
    return a.obj == b.obj;
  }
  return a.op == b.op;
}

std::optional<std::size_t> Visualizer::next_similar_event(
    std::size_t idx) const {
  const auto& ref = event(idx);
  for (std::size_t i = idx + 1; i < order_.size(); ++i) {
    if (similar(ref, event(i))) return i;
  }
  return std::nullopt;
}

std::optional<std::size_t> Visualizer::prev_similar_event(
    std::size_t idx) const {
  const auto& ref = event(idx);
  for (std::size_t i = idx; i-- > 0;) {
    if (similar(ref, event(i))) return i;
  }
  return std::nullopt;
}

std::string Visualizer::source_location(std::size_t idx) const {
  const trace::SourceLoc* loc = source_loc(idx);
  if (loc == nullptr) return {};
  return strprintf("%s:%u", source_->strings.get(loc->file).c_str(),
                   loc->line);
}

const trace::SourceLoc* Visualizer::source_loc(std::size_t idx) const {
  const core::SimEvent& e = event(idx);
  if (e.loc >= source_->locations.size()) return nullptr;
  const trace::SourceLoc& loc = source_->locations[e.loc];
  return loc.file == 0 ? nullptr : &loc;
}

}  // namespace vppb::viz
