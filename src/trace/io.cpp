#include "trace/io.hpp"

#include <array>
#include <cstring>
#include <sstream>

#include "trace/entry_codec.hpp"
#include "util/atomic_file.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace vppb::trace {
namespace {

// Field encoding for possibly-empty strings: "-" stands for empty, and
// spaces/percent signs are percent-escaped so compiler-pretty function
// names ("void f(int)") survive the space-separated format.
std::string enc(const std::string& s) {
  if (s.empty()) return "-";
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == ' ') {
      out += "%20";
    } else if (c == '%') {
      out += "%25";
    } else {
      out += c;
    }
  }
  return out;
}

std::string dec(std::string_view s) {
  if (s == "-") return {};
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size() && s[i + 1] == '2') {
      if (s[i + 2] == '0') {
        out += ' ';
        i += 2;
        continue;
      }
      if (s[i + 2] == '5') {
        out += '%';
        i += 2;
        continue;
      }
    }
    out += s[i];
  }
  return out;
}

/// Signals one malformed line.  The strict reader turns it into a
/// thrown Error; the salvaging reader into a cut point.
struct LineError {
  IssueKind kind = IssueKind::kBadField;
  const char* why = "";
};

/// A rec line's fields; one more slot tells "too many" from "exactly".
using Fields = std::array<std::string_view, 11>;

/// Splits `line` on runs of spaces (only spaces: a tab is part of a
/// field) into `f`, and returns the number of fields, capped at f.size().
std::size_t split_fields(std::string_view line, Fields& f) {
  std::size_t n = 0;
  std::size_t i = 0;
  while (n < f.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    if (i == line.size()) break;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ') ++i;
    f[n++] = line.substr(start, i - start);
  }
  return n;
}

}  // namespace

Trace from_text(std::string_view text, const LoadOptions& opt,
                LoadReport* report) {
  Trace trace;
  trace.locations.clear();  // the file supplies all entries, including 0
  // Thread lines upsert through the record check's own thread index.
  RecordScan scan;
  std::size_t lineno = 0;
  bool stopped = false;

  auto handle = [&](const LineError& e) {
    if (!opt.salvage)
      throw Error(strprintf("trace line %zu: %s", lineno, e.why));
    if (report != nullptr)
      report->issues.push_back(TraceIssue{
          e.kind, lineno,
          e.why + strprintf(" — cut at record %zu", trace.records.size())});
    stopped = true;
  };

  // Parses one directive; returns false with *err set on any problem.
  Fields f;
  auto parse_line = [&](std::string_view sv, LineError* err) -> bool {
    const std::size_t n = split_fields(sv, f);
    if (f[0] == "thread") {
      if (n != 6)
        return *err = {IssueKind::kBadField, "thread needs 5 fields"}, false;
      std::int64_t tid, bound, prio;
      if (!parse_i64(f[1], tid) || !parse_i64(f[4], bound) ||
          !parse_i64(f[5], prio))
        return *err = {IssueKind::kBadField, "bad thread fields"}, false;
      ThreadMeta& t = scan.upsert_thread(trace, static_cast<ThreadId>(tid));
      t.name = trace.strings.intern(dec(f[2]));
      t.start_func = trace.strings.intern(dec(f[3]));
      t.bound = bound != 0;
      t.initial_priority = static_cast<int>(prio);
    } else if (f[0] == "loc") {
      if (n != 5)
        return *err = {IssueKind::kBadField, "loc needs 4 fields"}, false;
      std::int64_t idx, ln;
      if (!parse_i64(f[1], idx) || !parse_i64(f[3], ln))
        return *err = {IssueKind::kBadField, "bad loc fields"}, false;
      if (static_cast<std::size_t>(idx) != trace.locations.size())
        return *err = {IssueKind::kBadReference,
                       "loc indices must be dense and in order"},
               false;
      trace.locations.push_back(SourceLoc{trace.strings.intern(dec(f[2])),
                                          trace.strings.intern(dec(f[4])),
                                          static_cast<std::uint32_t>(ln)});
    } else if (f[0] == "rec") {
      if (n != 10)
        return *err = {IssueKind::kBadField, "rec needs 9 fields"}, false;
      Record r;
      std::int64_t at, tid, objid, arg, arg2, loc;
      if (!parse_i64(f[1], at) || !parse_i64(f[2], tid) ||
          !parse_i64(f[6], objid) || !parse_i64(f[7], arg) ||
          !parse_i64(f[8], arg2) || !parse_i64(f[9], loc))
        return *err = {IssueKind::kBadField, "bad rec numeric fields"}, false;
      if (f[3] == "C") {
        r.phase = Phase::kCall;
      } else if (f[3] == "R") {
        r.phase = Phase::kReturn;
      } else {
        return *err = {IssueKind::kBadField, "phase must be C or R"}, false;
      }
      if (!op_from_name(f[4], r.op))
        return *err = {IssueKind::kUnknownEvent, "unknown op"}, false;
      if (!obj_kind_from_name(f[5], r.obj.kind))
        return *err = {IssueKind::kUnknownEvent, "unknown object kind"}, false;
      r.at = SimTime::nanos(at);
      r.tid = static_cast<ThreadId>(tid);
      r.obj.id = static_cast<std::uint32_t>(objid);
      r.arg = arg;
      r.arg2 = arg2;
      r.loc = static_cast<std::uint32_t>(loc);
      trace.records.push_back(r);
    } else {
      return *err = {IssueKind::kUnknownEvent, "unknown directive"}, false;
    }
    return true;
  };

  // One walk over the bytes: a line ends at '\n' or at the end of the
  // text, and lines are numbered from 1.
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p != end) {
    const auto* nl = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
    const char* const eol = nl != nullptr ? nl : end;
    const std::string_view sv =
        trim(std::string_view(p, static_cast<std::size_t>(eol - p)));
    p = nl != nullptr ? nl + 1 : end;
    ++lineno;
    if (sv.empty() || sv.front() == '#') continue;
    if (stopped) {
      // Past the cut: census only, so the report can say what was lost.
      if (report != nullptr && sv.substr(0, 4) == "rec ")
        report->records_dropped++;
      continue;
    }
    LineError err;
    if (!parse_line(sv, &err)) handle(err);
  }

  // The text format allows forward references (a `loc` or `thread` line
  // after the `rec` lines that use it), so the structural scan runs after
  // parsing, once the tables are complete, over the records in place.
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    if (scan.check(trace.records[i], trace)) continue;
    if (!opt.salvage)
      throw Error(strprintf("text trace: %s (record %zu)",
                            scan.message.c_str(), i));
    if (report != nullptr) {
      report->issues.push_back(TraceIssue{
          scan.why, i, scan.message + strprintf(" — cut at record %zu", i)});
      report->records_dropped += trace.records.size() - i;
    }
    trace.records.resize(i);
    break;
  }
  finish_load(trace, opt, report, scan.thread_reads);
  return trace;
}

void write_text(const Trace& trace, std::ostream& os) {
  os << "# vppb-trace v1\n";
  for (const auto& t : trace.threads) {
    os << "thread " << t.tid << ' ' << enc(trace.strings.get(t.name)) << ' '
       << enc(trace.strings.get(t.start_func)) << ' ' << (t.bound ? 1 : 0)
       << ' ' << t.initial_priority << '\n';
  }
  for (std::size_t i = 0; i < trace.locations.size(); ++i) {
    const SourceLoc& loc = trace.locations[i];
    os << "loc " << i << ' ' << enc(trace.strings.get(loc.file)) << ' '
       << loc.line << ' ' << enc(trace.strings.get(loc.func)) << '\n';
  }
  for (const Record& r : trace.records) {
    os << "rec " << r.at.ns() << ' ' << r.tid << ' '
       << (r.phase == Phase::kCall ? 'C' : 'R') << ' ' << op_name(r.op) << ' '
       << obj_kind_name(r.obj.kind) << ' ' << r.obj.id << ' ' << r.arg << ' '
       << r.arg2 << ' ' << r.loc << '\n';
  }
}

std::string to_text(const Trace& trace) {
  std::ostringstream os;
  write_text(trace, os);
  return os.str();
}

void save_file(const Trace& trace, const std::string& path) {
  util::atomic_write_file(path, to_text(trace));
}

Trace from_text(std::string_view text) {
  return from_text(text, LoadOptions{}, nullptr);
}

}  // namespace vppb::trace
