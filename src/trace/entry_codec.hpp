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
// so the chunked reader can carry it across chunk boundaries.  It looks
// threads up through its own index of the thread table, a tid -> slot
// hash table (the slot is the position of the tid's first entry) that
// reads each entry once, so a record costs the same at any thread
// count; the text and chunked readers upsert thread entries through
// the same index.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
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
  /// Thread-table entries and index slots read so far: a cost counter,
  /// a small constant per record at any thread count.
  std::size_t thread_reads = 0;

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
    const std::size_t slot = slot_of(r.tid, trace);
    if (slot == kNoSlot)
      return fail(IssueKind::kBadReference,
                  strprintf("record from unknown thread T%d",
                            static_cast<int>(r.tid)));
    // The open call of each slot: 0 for none, else its op + 1.
    std::uint8_t& open = open_call_[slot];
    const auto op = static_cast<std::uint8_t>(static_cast<unsigned>(r.op) + 1);
    if (r.phase == Phase::kCall) {
      if (open != 0)
        return fail(IssueKind::kUnmatchedCall,
                    strprintf("T%d opens a second call",
                              static_cast<int>(r.tid)));
      if (!op_is_single(r.op)) open = op;
    } else {
      if (open != op)
        return fail(IssueKind::kUnmatchedCall,
                    strprintf("unmatched return of %s by T%d",
                              std::string(op_name(r.op)).c_str(),
                              static_cast<int>(r.tid)));
      open = 0;
    }
    if (r.at < last_at)
      return fail(IssueKind::kTimeRegression, "timestamp goes backwards");
    last_at = r.at;
    return true;
  }

  /// The thread entry for `tid`, appended when there is none: what
  /// Trace::upsert_thread does, through the index.
  ThreadMeta& upsert_thread(Trace& trace, ThreadId tid) {
    const std::size_t slot = slot_of(tid, trace);
    if (slot != kNoSlot) return trace.threads[slot];
    trace.threads.push_back(ThreadMeta{.tid = tid});
    return trace.threads.back();
  }

 private:
  static constexpr std::size_t kNoSlot = ~std::size_t{0};
  struct IndexEntry {
    ThreadId tid = 0;
    std::size_t slot = kNoSlot;  ///< kNoSlot marks an empty entry
  };

  std::vector<IndexEntry> index_;  ///< open addressing, a power of two
  std::size_t indexed_ = 0;        ///< thread entries indexed so far
  std::vector<std::uint8_t> open_call_;  ///< by slot

  /// The slot of `tid`, or kNoSlot.  Indexes the thread entries added
  /// since the last call first, keeping a repeated tid's first entry as
  /// Trace::find_thread does.
  std::size_t slot_of(ThreadId tid, const Trace& trace) {
    for (; indexed_ < trace.threads.size(); ++indexed_) {
      ++thread_reads;
      if (2 * (indexed_ + 1) > index_.size()) grow();  // at most half full
      const ThreadId t = trace.threads[indexed_].tid;
      IndexEntry& e = probe(t);
      if (e.slot == kNoSlot) e = IndexEntry{t, indexed_};
    }
    open_call_.resize(indexed_);
    return index_.empty() ? kNoSlot : probe(tid).slot;
  }

  /// The entry holding `tid`, or the empty one where it would go.  The
  /// home entry comes from a multiplicative hash of the tid, so the
  /// table's size follows the number of threads, whatever tids a file
  /// picks.
  IndexEntry& probe(ThreadId tid) {
    const std::size_t mask = index_.size() - 1;
    std::size_t i = static_cast<std::size_t>(
        (static_cast<std::uint32_t>(tid) * 0x9E3779B97F4A7C15ull) >>
        (64 - std::countr_zero(index_.size())));
    for (;; i = (i + 1) & mask) {
      ++thread_reads;
      IndexEntry& e = index_[i];
      if (e.slot == kNoSlot || e.tid == tid) return e;
    }
  }

  void grow() {
    std::vector<IndexEntry> old(std::max<std::size_t>(16, 2 * index_.size()));
    old.swap(index_);
    for (const IndexEntry& e : old)
      if (e.slot != kNoSlot) probe(e.tid) = e;
  }

  bool fail(IssueKind k, std::string msg) {
    why = k;
    message = std::move(msg);
    return false;
  }
};

}  // namespace vppb::trace
