// Salvage vocabulary for the trace loaders.
//
// The paper's whole pipeline hangs off one artifact — the log of a
// single monitored run — so a recording that survived a crash, a full
// disk, or a stray bit flip is worth recovering, not rejecting.  Every
// loader (text, binary, chunked) accepts LoadOptions and, in salvage
// mode, degrades from abort-on-first-error to: validate everything,
// accumulate structured TraceIssues, and truncate to the longest valid
// prefix of events rather than failing.
//
// "Valid prefix" means replayable: monotonic timestamps, known event
// types and threads, matched call/return pairs, and no call left open
// at the cut (the Simulator refuses dangling calls, so the salvaged
// trace is trimmed back to the last point where every thread was
// between library calls).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vppb::trace {

enum class IssueKind : std::uint8_t {
  kTruncated,       ///< data ends mid-field / mid-chunk
  kBadMagic,        ///< file/chunk magic mismatch
  kBadVersion,      ///< format version from the future
  kBadChecksum,     ///< chunk CRC mismatch (bit rot, torn write)
  kBadField,        ///< malformed varint / string / count
  kBadReference,    ///< string, location or thread id out of range
  kUnknownEvent,    ///< op or object kind outside the known taxonomy
  kTimeRegression,  ///< timestamp going backwards
  kUnmatchedCall,   ///< return without a call, or a second open call
  kTrailingData,    ///< bytes after the last decodable event
  kOpenCallTrimmed, ///< records dropped so no call is left dangling
};

const char* issue_kind_name(IssueKind kind);

/// One structural problem found while loading a trace, anchored to a
/// byte offset (binary/chunked), a line number (text), or a chunk index.
struct TraceIssue {
  IssueKind kind = IssueKind::kBadField;
  std::size_t offset = 0;  ///< byte offset or line number
  std::string message;
};

struct LoadOptions {
  /// Recover the longest valid prefix instead of throwing on the first
  /// structural error.  Unreadable files and unrecognized formats still
  /// throw: there is nothing to salvage without a parsable header.
  bool salvage = false;
};

/// What a (salvaging) load actually did.  Populated in strict mode too,
/// where it simply reports full recovery.
struct LoadReport {
  std::vector<TraceIssue> issues;
  std::size_t records_recovered = 0;
  std::size_t records_dropped = 0;
  std::size_t chunks_loaded = 0;   ///< chunked format only
  std::size_t chunks_dropped = 0;  ///< chunked format only
  bool salvaged = false;  ///< true when anything was dropped or repaired
  /// Thread-table entries and thread-index slots the record check read
  /// (RecordScan::thread_reads): about one per record at any thread
  /// count.
  std::size_t thread_reads = 0;

  /// One-line human summary ("recovered 1204 events, dropped 17; 2
  /// issues: ...").
  std::string summary() const;
};

class Trace;

/// Trims trace.records back to the last point where no library call was
/// open on any thread.  The Simulator refuses a log that ends inside a
/// call (it cannot know the call's duration), so every salvaged prefix
/// is cut here before being handed on.  Returns the number of records
/// dropped; records the cut as a kOpenCallTrimmed issue in *report.
std::size_t trim_open_calls(Trace& trace, LoadReport* report);

/// The tail every loader ends with: in salvage mode, trim_open_calls;
/// then, when there is a report, records_recovered is the count kept,
/// `salvaged` is set if any issue was recorded, and thread_reads is the
/// record check's count.
void finish_load(Trace& trace, const LoadOptions& opt, LoadReport* report,
                 std::size_t thread_reads);

}  // namespace vppb::trace
