// Semantic trace lint: the checks behind `vppb check`.
//
// The loaders guarantee structural sanity (paired call/return, in-range
// indices), checking records while decoding them; this pass asks the
// next question — does the recorded synchronization story make sense?
// A log whose threads unlock mutexes they never acquired, join threads
// that do not exist, or drive a semaphore count negative will still
// replay (the Simulator is defensive), but its predictions describe a
// program that cannot have run.  The lint surfaces these before any
// simulation time is spent, with the record index and source location
// of each finding so the recording bug can be fixed at its origin.
//
// Findings are graded: an *error* means the trace is semantically
// impossible (replay output is untrustworthy); a *warning* means the
// trace is suspicious but replayable (e.g. a mutex unlocked by a thread
// that is not its recorded owner — legal for Solaris mutexes, almost
// always a bug).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace vppb::trace {

enum class LintSeverity : std::uint8_t { kWarning, kError };

struct LintIssue {
  LintSeverity severity = LintSeverity::kWarning;
  std::size_t record_index = 0;  ///< offending record in Trace::records
  std::string message;
  std::string location;  ///< "file:line" when the record carries one

  /// One finding, one line: "error: <message> (record N at file:line)".
  std::string to_string() const;
};

struct LintReport {
  std::vector<LintIssue> issues;

  std::size_t errors = 0;
  std::size_t warnings = 0;
  bool clean() const { return issues.empty(); }

  /// All findings, one per line, plus a summary line.  "clean" when
  /// there is nothing to report.
  std::string to_string() const;
};

/// Runs every semantic check over the trace:
///   - non-monotonic timestamps (error)
///   - mutex unlocked while not held (error) / by a non-owner (warning)
///   - join of an unknown thread (error), of an already-joined thread
///     (warning), of the joining thread itself (error)
///   - semaphore count driven negative (error)
///   - cond_wait entered without holding the named mutex (warning)
LintReport lint(const Trace& trace);

}  // namespace vppb::trace
