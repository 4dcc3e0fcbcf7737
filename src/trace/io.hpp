// Text serialization of traces — the "log file" the Recorder writes and
// the Simulator/Visualizer read.  A line-oriented format so logs can be
// inspected, diffed, and hand-written in tests:
//
//   # vppb-trace v1
//   meta clock virtual
//   thread 1 main main 0 0
//   loc 0 - 0 -
//   loc 1 quickstart.cpp 12 main
//   rec 100000 1 C thr_create thread 4 0 0 1
//   rec 100250 1 R thr_create thread 4 0 0 1
//   ...
#pragma once

#include <iosfwd>
#include <string>

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
Trace from_text(const std::string& text);

/// Validating parse: in salvage mode a malformed line cuts the trace to
/// the valid prefix (recorded in *report) instead of throwing.
Trace from_text(const std::string& text, const LoadOptions& opt,
                LoadReport* report);

}  // namespace vppb::trace
