// Compact binary serialization of traces.
//
// §4 of the paper worries about log size ("the size of the log files
// could become a problem for very long executions of fine grained
// programs"; they experimented up to 15 MB).  The text format
// (trace/io.hpp) is the readable interchange; this codec is the
// size-conscious one: varint-encoded fields and delta-encoded
// timestamps typically shrink logs ~4-6x.
//
// Layout: magic "VPPB" + version byte, then varint-prefixed sections
// (strings, threads, locations, records).  All integers are LEB128
// varints; signed values use zigzag.  Timestamps are per-record deltas
// against the previous record.
//
// For logs written incrementally by a live (possibly crashing) target,
// see the chunked "VPPC" format in trace/chunked.hpp.  Both formats
// share the salvage vocabulary in trace/salvage.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/salvage.hpp"
#include "trace/trace.hpp"

namespace vppb::trace {

/// Serialize to the binary format.
std::vector<std::uint8_t> to_binary(const Trace& trace);

/// Parse the binary format; throws vppb::Error on malformed input.
/// Records are checked structurally (the rules of Trace::validate())
/// while they are decoded.
Trace from_binary(const std::uint8_t* data, std::size_t size);
Trace from_binary(const std::vector<std::uint8_t>& bytes);

/// Validating parse.  In salvage mode, structural errors in the record
/// section truncate to the longest valid prefix (reported via *report)
/// instead of throwing; a corrupt header still throws — there is
/// nothing to recover without the string/thread/location tables.
Trace from_binary(const std::uint8_t* data, std::size_t size,
                  const LoadOptions& opt, LoadReport* report);

/// Parse any known trace format by sniffing the magic: chunked
/// ("VPPC"), monolithic binary ("VPPB"), else text.
Trace from_any(const std::uint8_t* data, std::size_t size,
               const LoadOptions& opt, LoadReport* report);

/// File helpers.  load_any_file sniffs the magic and accepts the
/// chunked, binary, or text format.  save_binary_file writes via a
/// temp file + atomic rename so a crash mid-save never clobbers a
/// previous good log.
void save_binary_file(const Trace& trace, const std::string& path);
Trace load_any_file(const std::string& path);
Trace load_any_file(const std::string& path, const LoadOptions& opt,
                    LoadReport* report);

/// Slurp a whole file, sized from the file in one read, or read to EOF
/// when its size is unknown (a pipe, /dev/stdin); throws vppb::Error
/// when it cannot be opened or read.
std::vector<std::uint8_t> read_file_bytes(const std::string& path);

}  // namespace vppb::trace
