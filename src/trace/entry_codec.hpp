// Internal: the entry codec of the binary ("VPPB") and chunked ("VPPC")
// trace formats, and the structural check of every trace loader.
//
// Both formats write a thread, a location and a record the same way —
// the binary format in its tables, the chunked one as tagged items —
// so each has one encoder and one decoder, here:
//
//   thread    i64 tid, u64 name, u64 start_func, u64 bound, i64 priority
//   location  u64 file, u64 func, u64 line
//   record    u64 delta-ns, i64 tid, u64 phase, u64 op, u64 kind,
//             u64 objid, i64 arg, i64 arg2, u64 loc
//
// The record check is the only check a loaded trace gets, so it
// enforces everything Trace::validate() does — monotonic time, known
// ops and object kinds, in-range location indices, known threads, and
// matched call/return pairs per thread — and a salvaged prefix is
// consistent by construction.  read_one() decodes and checks a record;
// the text reader runs check() over its parsed records.
//
// The scanner keeps its state (last timestamp, open calls) in a struct
// so the chunked reader can carry it across chunk boundaries.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "trace/salvage.hpp"
#include "trace/trace.hpp"
#include "util/strings.hpp"
#include "util/wire.hpp"

namespace vppb::trace {

inline void put_thread(std::vector<std::uint8_t>& out, const ThreadMeta& t) {
  wire::put_i64(out, t.tid);
  wire::put_u64(out, t.name);
  wire::put_u64(out, t.start_func);
  wire::put_u64(out, t.bound ? 1 : 0);
  wire::put_i64(out, t.initial_priority);
}

inline void put_location(std::vector<std::uint8_t>& out,
                         const SourceLoc& loc) {
  wire::put_u64(out, loc.file);
  wire::put_u64(out, loc.func);
  wire::put_u64(out, loc.line);
}

/// Writes `r` with its timestamp as a delta against `prev_ns`, which
/// then advances to `r`'s time.
inline void put_record(std::vector<std::uint8_t>& out, const Record& r,
                       std::int64_t& prev_ns) {
  wire::put_u64(out, static_cast<std::uint64_t>(r.at.ns() - prev_ns));
  prev_ns = r.at.ns();
  wire::put_i64(out, r.tid);
  wire::put_u64(out, r.phase == Phase::kReturn ? 1 : 0);
  wire::put_u64(out, static_cast<std::uint64_t>(r.op));
  wire::put_u64(out, static_cast<std::uint64_t>(r.obj.kind));
  wire::put_u64(out, r.obj.id);
  wire::put_i64(out, r.arg);
  wire::put_i64(out, r.arg2);
  wire::put_u64(out, r.loc);
}

struct RecordScan {
  SimTime last_at;  ///< time of the last record checked (the delta base)
  std::map<ThreadId, std::optional<Op>> open_call;  ///< per thread

  // Set when an entry or record is rejected; the caller turns them
  // into a thrown Error (strict) or a TraceIssue cut point (salvage).
  IssueKind why = IssueKind::kBadField;
  std::string message;

  /// Decodes one thread entry into `t`; its name and start function
  /// must be strings the trace has already interned.  Returns false —
  /// with why/message set — on truncation or a bad string id.
  bool read_thread(wire::TryReader& in, const Trace& trace, ThreadMeta& t) {
    std::int64_t tid, prio;
    std::uint64_t name, func, bound;
    if (!in.i64(tid) || !in.u64(name) || !in.u64(func) || !in.u64(bound) ||
        !in.i64(prio))
      return fail(IssueKind::kBadField, "thread entry truncated");
    if (name >= trace.strings.size() || func >= trace.strings.size())
      return fail(IssueKind::kBadReference, "thread entry has bad string ids");
    t.tid = static_cast<ThreadId>(tid);
    t.name = static_cast<std::uint32_t>(name);
    t.start_func = static_cast<std::uint32_t>(func);
    t.bound = bound != 0;
    t.initial_priority = static_cast<int>(prio);
    return true;
  }

  /// Decodes one location entry, with the same contract as read_thread.
  bool read_location(wire::TryReader& in, const Trace& trace,
                     SourceLoc& loc) {
    std::uint64_t file, func, line;
    if (!in.u64(file) || !in.u64(func) || !in.u64(line))
      return fail(IssueKind::kBadField, "location entry truncated");
    if (file >= trace.strings.size() || func >= trace.strings.size())
      return fail(IssueKind::kBadReference,
                  "location entry has bad string ids");
    loc.file = static_cast<std::uint32_t>(file);
    loc.func = static_cast<std::uint32_t>(func);
    loc.line = static_cast<std::uint32_t>(line);
    return true;
  }

  /// Decodes and validates one record, appending it to trace.records.
  /// Returns false — with why/message set — on truncation or the first
  /// structural violation; the reader position may then be mid-record.
  bool read_one(wire::TryReader& in, Trace& trace) {
    Record r;
    std::uint64_t delta, phase, op, kind, loc, objid;
    std::int64_t tid;
    if (!in.u64(delta) || !in.i64(tid) || !in.u64(phase) || !in.u64(op) ||
        !in.u64(kind) || !in.u64(objid) || !in.i64(r.arg) || !in.i64(r.arg2) ||
        !in.u64(loc)) {
      return fail(IssueKind::kTruncated, "record truncated");
    }
    // Unsigned arithmetic: a hostile delta must wrap, not overflow into
    // UB.  The monotonic-time check in check() rejects the wrapped value.
    r.at = SimTime::nanos(static_cast<std::int64_t>(
        static_cast<std::uint64_t>(last_at.ns()) + delta));
    r.tid = static_cast<ThreadId>(tid);
    r.phase = phase != 0 ? Phase::kReturn : Phase::kCall;
    if (op > static_cast<std::uint64_t>(Op::kIoWait))
      return fail(IssueKind::kUnknownEvent,
                  strprintf("unknown op %llu",
                            static_cast<unsigned long long>(op)));
    r.op = static_cast<Op>(op);
    if (kind > static_cast<std::uint64_t>(ObjKind::kIo))
      return fail(IssueKind::kUnknownEvent,
                  strprintf("unknown object kind %llu",
                            static_cast<unsigned long long>(kind)));
    r.obj.kind = static_cast<ObjKind>(kind);
    r.obj.id = static_cast<std::uint32_t>(objid);
    // loc 0 (the reserved "unknown" slot) is legal even when no
    // location table was written — matching Trace::validate().
    if (loc != 0 && loc >= trace.locations.size())
      return fail(IssueKind::kBadReference,
                  strprintf("location index %llu out of range",
                            static_cast<unsigned long long>(loc)));
    r.loc = static_cast<std::uint32_t>(loc);
    if (!check(r, trace)) return false;
    trace.records.push_back(r);
    return true;
  }

  /// Checks a record against the trace's tables and the records checked
  /// before it.  Shared with the text reader, whose records arrive
  /// parsed rather than decoded.  Assumes op/obj.kind are in range.
  bool check(const Record& r, const Trace& trace) {
    if (r.loc != 0 && r.loc >= trace.locations.size())
      return fail(IssueKind::kBadReference,
                  strprintf("location index %u out of range", r.loc));
    if (trace.find_thread(r.tid) == nullptr)
      return fail(IssueKind::kBadReference,
                  strprintf("record from unknown thread T%d",
                            static_cast<int>(r.tid)));
    std::optional<Op>& open = open_call[r.tid];
    if (r.phase == Phase::kCall) {
      if (open)
        return fail(IssueKind::kUnmatchedCall,
                    strprintf("T%d opens a second call",
                              static_cast<int>(r.tid)));
      if (!op_is_single(r.op)) open = r.op;
    } else {
      if (open != r.op)
        return fail(IssueKind::kUnmatchedCall,
                    strprintf("unmatched return of %s by T%d",
                              std::string(op_name(r.op)).c_str(),
                              static_cast<int>(r.tid)));
      open.reset();
    }
    if (r.at < last_at)
      return fail(IssueKind::kTimeRegression, "timestamp goes backwards");
    last_at = r.at;
    return true;
  }

 private:
  bool fail(IssueKind k, std::string msg) {
    why = k;
    message = std::move(msg);
    return false;
  }
};

}  // namespace vppb::trace
