// Crash-safe chunked trace log ("VPPC").
//
// The monolithic binary format (binary.hpp) is written in one shot at
// the end of a run — a target that crashes, is killed, or fills the
// disk loses the entire recording.  That defeats the tool's purpose:
// the runs one most wants to inspect are exactly the ones that die.
// This format is written incrementally as a sequence of sealed,
// checksummed chunks so that however the target ends, every chunk
// sealed before the end is recoverable.
//
// Layout:
//   "VPPC" <version:u8>
//   chunk*:
//     "CHNK" <payload_len:u32le> <record_count:u32le>
//            <payload_crc32:u32le> <running_crc32:u32le>
//     payload bytes
//
// payload_crc32 covers this chunk's payload; running_crc32 is the CRC
// of every payload byte in the file so far, so chunks cannot be
// reordered or spliced between files without detection.  Writer and
// reader compute it from the previous running value and payload_crc32
// by CRC combination, so each payload is read once.  The payload is a
// tagged item stream — new strings (in intern order), thread-meta
// upserts, new locations, and records with delta timestamps that
// continue across chunk boundaries — making any chunk prefix a
// loadable trace.
//
// ChunkedWriter is built for dying processes: appends encode eagerly
// into a pre-allocated buffer and publish an atomic committed
// watermark, so crash_seal() — callable from a SIGSEGV handler — only
// needs async-signal-safe steps: CRC over committed bytes, ::write,
// ::fsync, ::rename.  The writer writes to `path + ".partial"` and
// renames to `path` only once at least one chunk is safely on disk,
// so a previous good log is never clobbered by an empty new one.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/salvage.hpp"
#include "trace/trace.hpp"

namespace vppb::trace {

struct ChunkedWriterOptions {
  /// Seal after this many records (or 256 KiB of payload, whichever
  /// comes first).
  std::size_t chunk_records = 1024;
};

class ChunkedWriter {
 public:
  /// Opens `path + ".partial"` and writes the file header.  Throws
  /// vppb::Error when the file cannot be created.
  explicit ChunkedWriter(std::string path, ChunkedWriterOptions opt = {});

  /// Leaves the ".partial" file on disk when finalize() was never
  /// reached — a crash investigator's evidence, salvageable as-is.
  ~ChunkedWriter();

  ChunkedWriter(const ChunkedWriter&) = delete;
  ChunkedWriter& operator=(const ChunkedWriter&) = delete;

  /// Item appends.  Strings must arrive in intern order (ids 1..n);
  /// locations in index order starting at 0 (including the reserved
  /// "unknown" entry).  Threads may be upserted at any time.
  void add_string(const std::string& s);
  void upsert_thread(const ThreadMeta& t);
  void add_location(const SourceLoc& loc);
  void add_record(const Record& r);

  /// Appends the trace's strings, locations and threads added since the
  /// last sync, and the marked threads that changed since they were
  /// written.  Costs O(new entries), whatever the table sizes.  Call
  /// before add_record so the record's references resolve on replay.
  void sync_tables(const Trace& trace);

  /// Marks trace.threads[index] for the next sync_tables to compare
  /// with what it wrote and write again if it changed.  Call it after
  /// changing an entry that an earlier sync wrote.
  void mark_thread(std::size_t index);

  /// Seals the pending chunk to the partial file (normal path).
  void seal();

  /// Seals, fsyncs, renames partial -> final, closes.  Returns the
  /// final path.  Idempotent.
  std::string finalize();

  /// Async-signal-safe best effort: writes the committed-but-unsealed
  /// payload as a final chunk, fsyncs, and renames partial -> final.
  /// Safe to call from SIGSEGV/SIGABRT handlers and atexit; if a
  /// normal-path seal() was interrupted mid-write, the pending chunk is
  /// skipped (the salvaging reader drops the torn tail).
  void crash_seal() noexcept;

  const std::string& partial_path() const { return partial_path_; }
  const std::string& final_path() const { return final_path_; }
  std::size_t sealed_chunks() const { return sealed_chunks_.load(); }
  std::size_t records_written() const { return records_written_; }
  bool finalized() const { return finalized_.load(); }

 private:
  void append_item(std::size_t nrecords_in_item);
  void write_chunk(const std::uint8_t* payload, std::size_t n,
                   std::uint32_t nrec) noexcept;

  ChunkedWriterOptions opt_;
  std::string final_path_;
  std::string partial_path_;
  int fd_ = -1;

  // Pending-chunk buffer.  The data pointer and committed watermark are
  // atomics so crash_seal(), possibly running on another thread's
  // signal stack, sees a consistent (pointer, length) pair.  The buffer
  // only grows by swap — the old block is intentionally leaked because
  // a handler may still be reading it.
  std::atomic<std::uint8_t*> buf_{nullptr};
  std::size_t cap_ = 0;
  std::atomic<std::size_t> committed_{0};
  std::atomic<std::uint32_t> pending_records_{0};
  std::atomic<std::uint32_t> running_crc_{0};
  std::atomic<std::uint32_t> sealed_chunks_{0};
  std::atomic<bool> sealing_{false};
  std::atomic<bool> finalized_{false};

  std::vector<std::uint8_t> scratch_;  ///< per-item staging (normal path)
  std::int64_t prev_ns_ = 0;
  std::uint32_t next_string_ = 1;
  std::size_t next_location_ = 0;
  std::vector<ThreadMeta> synced_threads_;  ///< as last written
  std::vector<std::size_t> marked_threads_;  ///< indices into trace.threads
  std::size_t records_written_ = 0;
};

/// One-shot in-memory encoding of a whole trace (tests, fuzzing,
/// `vppb convert`).  Tables go in the first chunk; records are split
/// into chunks of chunk_records.
std::vector<std::uint8_t> to_chunked(const Trace& trace,
                                     std::size_t chunk_records = 1024);

/// Decodes a chunked log.  In strict mode any structural problem
/// throws.  In salvage mode the longest valid prefix of chunks — and
/// within the last chunk, of records — is recovered and the rest
/// reported via *report.
Trace from_chunked(const std::uint8_t* data, std::size_t size,
                   const LoadOptions& opt = {}, LoadReport* report = nullptr);

}  // namespace vppb::trace
