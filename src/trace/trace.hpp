// The recorded information (the paper's log file): a time-ordered list
// of records plus thread metadata and a source-location table that
// substitutes for the paper's debugger-assisted address→line mapping.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "trace/event.hpp"
#include "util/time.hpp"

namespace vppb::trace {

/// Interned strings (file names, function names).  Index 0 is "".
class StringPool {
 public:
  StringPool() { strings_.emplace_back(); }

  std::uint32_t intern(std::string_view s);
  const std::string& get(std::uint32_t id) const;
  std::size_t size() const { return strings_.size(); }

 private:
  std::vector<std::string> strings_;
  std::map<std::string, std::uint32_t, std::less<>> index_;
};

/// A source location: where in the program a probe was hit.  The paper
/// recorded the %i7 return address and resolved it with a debugger; we
/// record file/line/function captured at the call site.
struct SourceLoc {
  std::uint32_t file = 0;  ///< StringPool index
  std::uint32_t func = 0;  ///< StringPool index
  std::uint32_t line = 0;

  friend bool operator==(const SourceLoc&, const SourceLoc&) = default;
  friend auto operator<=>(const SourceLoc&, const SourceLoc&) = default;
};

/// Per-thread metadata: the paper records the function pointer passed to
/// thr_create and resolves its name; we store the resolved name.
struct ThreadMeta {
  ThreadId tid = 0;
  std::uint32_t name = 0;        ///< thread name (StringPool)
  std::uint32_t start_func = 0;  ///< start routine name (StringPool)
  bool bound = false;            ///< created with THR_BOUND
  int initial_priority = 0;

  friend bool operator==(const ThreadMeta&, const ThreadMeta&) = default;
};

/// A complete recorded execution.
class Trace {
 public:
  /// Location index 0 is reserved as "unknown" so records default to it.
  Trace() : locations(1) {}

  StringPool strings;
  std::vector<ThreadMeta> threads;
  std::vector<Record> records;       ///< in recording (time) order
  std::vector<SourceLoc> locations;  ///< indexed by Record::loc; [0] = unknown

  /// Register a location, deduplicating identical ones.
  std::uint32_t add_location(std::string_view file, std::uint32_t line,
                             std::string_view func);

  const ThreadMeta* find_thread(ThreadId tid) const;
  ThreadMeta& upsert_thread(ThreadId tid);

  /// Total recorded duration (time of the last record).
  SimTime duration() const;

  /// Render "file:line" for a record (empty when unknown).
  std::string location_string(const Record& r) const;

  /// Validates internal consistency (monotonic times, paired call/return,
  /// known threads, in-range indices).  Throws vppb::Error on violation.
  void validate() const;
};

/// The Simulator's first step (paper fig. 4): sort the log into one event
/// list per thread, preserving time order within each list.
std::map<ThreadId, std::vector<Record>> split_by_thread(const Trace& trace);

/// Aggregate statistics used by the §4 intrusion/size experiments.
struct TraceStats {
  std::size_t records = 0;
  std::size_t threads = 0;
  SimTime duration;
  double events_per_second = 0.0;  ///< record pairs per recorded second
  std::map<Op, std::size_t> per_op;
};

TraceStats compute_stats(const Trace& trace);

}  // namespace vppb::trace
