#include "trace/trace.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace vppb::trace {

std::uint32_t StringPool::intern(std::string_view s) {
  if (s.empty()) return 0;
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(strings_.size());
  strings_.emplace_back(s);
  index_.emplace(std::string(s), id);
  return id;
}

const std::string& StringPool::get(std::uint32_t id) const {
  VPPB_CHECK_MSG(id < strings_.size(), "string id out of range: " << id);
  return strings_[id];
}

std::uint32_t Trace::add_location(std::string_view file, std::uint32_t line,
                                  std::string_view func) {
  SourceLoc loc{strings.intern(file), strings.intern(func), line};
  // Linear scan over a typically tiny, hot-at-the-end table would be
  // wasteful for big programs; dedupe against the last few entries only
  // (consecutive events usually share a site) and otherwise append.
  const std::size_t lookback = std::min<std::size_t>(locations.size(), 64);
  for (std::size_t i = locations.size() - lookback; i < locations.size(); ++i) {
    if (locations[i] == loc) return static_cast<std::uint32_t>(i);
  }
  locations.push_back(loc);
  return static_cast<std::uint32_t>(locations.size() - 1);
}

const ThreadMeta* Trace::find_thread(ThreadId tid) const {
  for (const auto& t : threads) {
    if (t.tid == tid) return &t;
  }
  return nullptr;
}

ThreadMeta& Trace::upsert_thread(ThreadId tid) {
  for (auto& t : threads) {
    if (t.tid == tid) return t;
  }
  threads.push_back(ThreadMeta{.tid = tid});
  return threads.back();
}

SimTime Trace::duration() const {
  return records.empty() ? SimTime::zero() : records.back().at;
}

std::string Trace::location_string(const Record& r) const {
  if (r.loc >= locations.size()) return {};
  const SourceLoc& loc = locations[r.loc];
  if (loc.file == 0) return {};
  return strprintf("%s:%u", strings.get(loc.file).c_str(), loc.line);
}

void Trace::validate() const {
  SimTime prev = SimTime::zero();
  // Its own set of the known tids, built once and sorted, so a record's
  // thread is a binary search, not a scan of the thread table; a tid's
  // first position in the set is the slot of its open call.  It shares
  // no code with the loaders' record check (RecordScan), which it is
  // the reference for.
  std::vector<ThreadId> known;
  known.reserve(threads.size());
  for (const auto& t : threads) known.push_back(t.tid);
  std::sort(known.begin(), known.end());
  // Per-thread: every blocking kCall must be followed by a matching
  // kReturn of the same op before that thread's next record pair.
  std::vector<const Record*> open_call(known.size(), nullptr);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    VPPB_CHECK_MSG(r.at >= prev,
                   "record " << i << " goes back in time (" << r.at << " < "
                             << prev << ")");
    prev = r.at;
    VPPB_CHECK_MSG(r.loc < locations.size() || r.loc == 0,
                   "record " << i << " has bad location index " << r.loc);
    const auto known_tid = std::lower_bound(known.begin(), known.end(), r.tid);
    VPPB_CHECK_MSG(known_tid != known.end() && *known_tid == r.tid,
                   "record " << i << " from unknown thread T" << r.tid);
    const Record*& open = open_call[static_cast<std::size_t>(
        known_tid - known.begin())];
    if (r.phase == Phase::kCall) {
      VPPB_CHECK_MSG(open == nullptr, "record " << i << ": thread T" << r.tid
                                                << " has two open calls");
      if (!op_is_single(r.op)) open = &r;
    } else {
      VPPB_CHECK_MSG(open != nullptr && open->op == r.op,
                     "record " << i << ": unmatched return of "
                               << op_name(r.op) << " by T" << r.tid);
      open = nullptr;
    }
  }
}

std::map<ThreadId, std::vector<Record>> split_by_thread(const Trace& trace) {
  std::map<ThreadId, std::vector<Record>> lists;
  for (const auto& t : trace.threads) lists[t.tid];  // even if eventless
  for (const Record& r : trace.records) lists[r.tid].push_back(r);
  return lists;
}

TraceStats compute_stats(const Trace& trace) {
  TraceStats s;
  s.records = trace.records.size();
  s.threads = trace.threads.size();
  s.duration = trace.duration();
  for (const Record& r : trace.records) {
    if (r.phase == Phase::kCall) ++s.per_op[r.op];
  }
  const double secs = s.duration.seconds_d();
  if (secs > 0) {
    std::size_t calls = 0;
    for (const auto& [op, n] : s.per_op) calls += n;
    s.events_per_second = static_cast<double>(calls) / secs;
  }
  return s;
}

}  // namespace vppb::trace
