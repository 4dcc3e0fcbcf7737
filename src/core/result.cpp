#include "core/result.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "util/error.hpp"

namespace vppb::core {

const char* to_string(SegState s) {
  switch (s) {
    case SegState::kRunning: return "running";
    case SegState::kRunnable: return "runnable";
    case SegState::kBlocked: return "blocked";
    case SegState::kSleeping: return "sleeping";
  }
  return "?";
}

namespace {

/// Buckets `items` by key in one pass: out[i] holds the items whose key
/// is keys[i], sorted by start.  A bucket fills in the items' order and
/// is sorted as the one-key queries always sorted it, so items with
/// equal starts keep their old order.  A key listed twice gets a copy
/// of its first bucket.
template <class Item, class Key, class KeyOf>
std::vector<std::vector<Item>> bucket_by_key(const std::vector<Item>& items,
                                             const std::vector<Key>& keys,
                                             KeyOf key_of) {
  std::unordered_map<Key, std::size_t> first;
  first.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) first.emplace(keys[i], i);
  std::vector<std::vector<Item>> out(keys.size());
  for (const Item& item : items) {
    const auto it = first.find(key_of(item));
    if (it != first.end()) out[it->second].push_back(item);
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::size_t f = first.at(keys[i]);
    if (f != i) {
      out[i] = out[f];
      continue;
    }
    std::sort(out[i].begin(), out[i].end(),
              [](const Item& a, const Item& b) { return a.start < b.start; });
  }
  return out;
}

}  // namespace

std::vector<Segment> SimResult::thread_segments(ThreadId tid) const {
  return std::move(thread_segments(std::vector<ThreadId>{tid})[0]);
}

std::vector<std::vector<Segment>> SimResult::thread_segments(
    const std::vector<ThreadId>& tids) const {
  return bucket_by_key(segments, tids, [](const Segment& s) { return s.tid; });
}

std::vector<LwpSegment> SimResult::segments_of_lwp(int lwp) const {
  return std::move(segments_of_lwps(std::vector<int>{lwp})[0]);
}

std::vector<std::vector<LwpSegment>> SimResult::segments_of_lwps(
    const std::vector<int>& lwps) const {
  return bucket_by_key(lwp_segments, lwps,
                       [](const LwpSegment& s) { return s.lwp; });
}

SimResult::Parallelism SimResult::parallelism_at(SimTime t) const {
  Parallelism p;
  for (const Segment& s : segments) {
    if (s.start <= t && t < s.end) {
      if (s.state == SegState::kRunning) ++p.running;
      if (s.state == SegState::kRunnable) ++p.runnable;
    }
  }
  return p;
}

std::vector<SimResult::Parallelism> SimResult::parallelism_at(
    const std::vector<SimTime>& times) const {
  // A segment [start, end) counts at every instant t with start <= t <
  // end.  Over the instants in ascending order that is a run from the
  // first instant >= start up to the first instant >= end: add one at
  // the run's head, take one off past its tail, and a running sum
  // gives every count.
  std::vector<SimTime> ascending(times);
  std::sort(ascending.begin(), ascending.end());
  const auto first_at_or_after = [&ascending](SimTime t) {
    return static_cast<std::size_t>(
        std::lower_bound(ascending.begin(), ascending.end(), t) -
        ascending.begin());
  };
  std::vector<Parallelism> sums(ascending.size() + 1);
  for (const Segment& s : segments) {
    if (s.state == SegState::kRunning) {
      ++sums[first_at_or_after(s.start)].running;
      --sums[first_at_or_after(s.end)].running;
    } else if (s.state == SegState::kRunnable) {
      ++sums[first_at_or_after(s.start)].runnable;
      --sums[first_at_or_after(s.end)].runnable;
    }
  }
  for (std::size_t i = 1; i < sums.size(); ++i) {
    sums[i].running += sums[i - 1].running;
    sums[i].runnable += sums[i - 1].runnable;
  }
  // Equal instants share one count, so any of them answers for t.
  std::vector<Parallelism> out;
  out.reserve(times.size());
  for (const SimTime t : times) out.push_back(sums[first_at_or_after(t)]);
  return out;
}

std::vector<SimResult::ProfilePoint> SimResult::parallelism_profile(
    std::size_t samples) const {
  VPPB_CHECK_MSG(samples >= 2, "profile needs at least two samples");
  std::vector<SimTime> times;
  times.reserve(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    times.push_back(SimTime::nanos(total.ns() * static_cast<std::int64_t>(i) /
                                   static_cast<std::int64_t>(samples - 1)));
  }
  const std::vector<Parallelism> counts = parallelism_at(times);
  std::vector<ProfilePoint> out;
  out.reserve(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    out.push_back(
        ProfilePoint{times[i], counts[i].running, counts[i].runnable});
  }
  return out;
}

namespace {

/// FNV-1a over 64-bit words; every field is widened to one word so the
/// digest is independent of struct padding and host endianness quirks.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  void mix_i64(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
  void mix_time(SimTime t) { mix_i64(t.ns()); }
  void mix_double(double d) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof d);
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  }
};

}  // namespace

std::uint64_t digest(const SimResult& r) {
  Fnv f;
  f.mix_time(r.total);
  f.mix_time(r.recorded_duration);
  f.mix_double(r.speedup);
  f.mix_i64(r.cpus);
  f.mix_i64(r.lwps);
  f.mix(r.segments.size());
  for (const Segment& s : r.segments) {
    f.mix_i64(s.tid);
    f.mix_time(s.start);
    f.mix_time(s.end);
    f.mix_i64(static_cast<int>(s.state));
    f.mix_i64(s.cpu);
  }
  f.mix(r.events.size());
  for (const SimEvent& e : r.events) {
    f.mix_time(e.at);
    f.mix_time(e.done);
    f.mix_i64(e.tid);
    f.mix_i64(static_cast<int>(e.op));
    f.mix_i64(static_cast<int>(e.obj.kind));
    f.mix_i64(e.obj.id);
    f.mix_i64(e.outcome);
    f.mix_i64(e.loc);
    f.mix_i64(e.cpu);
  }
  f.mix(r.threads.size());
  for (const auto& [tid, st] : r.threads) {
    f.mix_i64(tid);
    f.mix_time(st.created_at);
    f.mix_time(st.exited_at);
    f.mix_time(st.cpu_time);
    f.mix_time(st.runnable_time);
    f.mix_time(st.blocked_time);
    f.mix_time(st.sleeping_time);
  }
  f.mix(r.cpu_stats.size());
  for (const CpuStats& c : r.cpu_stats) {
    f.mix_i64(c.cpu);
    f.mix_time(c.busy);
    f.mix(c.dispatches);
  }
  f.mix(r.lwp_stats.size());
  for (const LwpStats& l : r.lwp_stats) {
    f.mix_i64(l.id);
    f.mix_i64(l.dedicated ? 1 : 0);
    f.mix_time(l.running);
    f.mix(l.dispatches);
    f.mix_i64(l.final_ts_level);
  }
  f.mix(r.lwp_segments.size());
  for (const LwpSegment& s : r.lwp_segments) {
    f.mix_i64(s.lwp);
    f.mix_time(s.start);
    f.mix_time(s.end);
    f.mix_i64(s.thread);
    f.mix_i64(s.cpu);
  }
  return f.h;
}

std::uint64_t digest(const std::vector<SimResult>& results) {
  Fnv f;
  f.mix(results.size());
  for (const SimResult& r : results) f.mix(digest(r));
  return f.h;
}

void SimResult::validate() const {
  VPPB_CHECK_MSG(total >= SimTime::zero(), "negative total time");
  std::map<ThreadId, std::vector<Segment>> per_thread;
  for (const Segment& s : segments) {
    VPPB_CHECK_MSG(s.start <= s.end, "segment with negative length");
    VPPB_CHECK_MSG(s.end <= total, "segment past the end of the run");
    per_thread[s.tid].push_back(s);
  }
  for (auto& [tid, segs] : per_thread) {
    std::sort(segs.begin(), segs.end(), [](const Segment& a, const Segment& b) {
      return a.start < b.start;
    });
    for (std::size_t i = 1; i < segs.size(); ++i) {
      VPPB_CHECK_MSG(segs[i].start >= segs[i - 1].end,
                     "overlapping segments for T" << tid);
      VPPB_CHECK_MSG(segs[i].start == segs[i - 1].end,
                     "timeline gap for T" << tid << " at " << segs[i].start);
    }
  }
  // Running threads never exceed the CPU count: the count only rises at
  // the start of a running segment, so check it there.
  std::vector<SimTime> starts;
  for (const Segment& s : segments)
    if (s.state == SegState::kRunning) starts.push_back(s.start);
  for (const Parallelism& p : parallelism_at(starts)) {
    VPPB_CHECK_MSG(p.running <= cpus, "more running threads ("
                                          << p.running << ") than CPUs");
  }
  for (const SimEvent& e : events) {
    VPPB_CHECK_MSG(e.at <= e.done, "event ends before it starts");
    VPPB_CHECK_MSG(e.done <= total, "event past the end of the run");
  }
}

}  // namespace vppb::core
