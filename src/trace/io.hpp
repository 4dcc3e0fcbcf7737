// Text serialization of traces — the "log file" the Recorder writes and
// the Simulator/Visualizer read.  A line-oriented format so logs can be
// inspected, diffed, and hand-written in tests:
//
//   # vppb-trace v1
//   thread 1 main main 0 0
//   loc 0 - 0 -
//   loc 1 quickstart.cpp 12 main
//   rec 100000 1 C thr_create thread 4 0 0 1
//   rec 100250 1 R thr_create thread 4 0 0 1
//   ...
//
// The grammar the reader accepts, line by line (a line ends at '\n';
// leading and trailing spaces, tabs and '\r' are ignored):
//
//   (empty) | # <comment>
//   thread <tid> <name> <start-func> <bound> <priority>
//   loc <index> <file> <line> <func>
//   rec <ns> <tid> C|R <op> <object-kind> <object-id> <arg> <arg2> <loc>
//
// Fields are separated by runs of spaces (a tab is part of a field).
// Numbers are decimal 64-bit integers with an optional sign; names use
// "-" for empty and %20 / %25 for a space / a percent sign; ops and
// object kinds are the names op_name() and obj_kind_name() print.
// `loc` indices run 0, 1, 2, ... in order; `thread` and `loc` lines may
// come after the records that use them; a repeated `thread` line
// updates the earlier one.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "trace/salvage.hpp"
#include "trace/trace.hpp"

namespace vppb::trace {

/// Serialize to the text format.  Deterministic byte-for-byte output.
/// save_file writes via a temp file + atomic rename.
void write_text(const Trace& trace, std::ostream& os);
std::string to_text(const Trace& trace);
void save_file(const Trace& trace, const std::string& path);

/// Parse the text format.  Throws vppb::Error with a line number on any
/// malformed line; once parsed, the records are checked structurally
/// (the rules of Trace::validate()) and the first bad one throws.  To
/// read a file in any format, use load_any_file (trace/binary.hpp).
/// One walk over the bytes, in place: O(bytes) at any thread count.
Trace from_text(std::string_view text);

/// Validating parse: in salvage mode a malformed line cuts the trace to
/// the valid prefix (recorded in *report) instead of throwing.
Trace from_text(std::string_view text, const LoadOptions& opt,
                LoadReport* report);

}  // namespace vppb::trace
