#include "trace/chunked.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "trace/entry_codec.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace vppb::trace {
namespace {

constexpr char kFileMagic[4] = {'V', 'P', 'P', 'C'};
constexpr char kChunkMagic[4] = {'C', 'H', 'N', 'K'};
constexpr std::uint8_t kVersion = 1;
constexpr std::size_t kChunkHeaderSize = 20;
/// A chunk is also sealed once it holds this many payload bytes.
constexpr std::size_t kChunkBytes = 256 * 1024;

// Payload item tags.
enum : std::uint64_t {
  kTagString = 1,
  kTagThread = 2,
  kTagLocation = 3,
  kTagRecord = 4,
};

// An item is its tag, then the entry as the binary format writes it.
void put_string_item(std::vector<std::uint8_t>& out, const std::string& s) {
  wire::put_u64(out, kTagString);
  wire::put_str(out, s);
}

void put_thread_item(std::vector<std::uint8_t>& out, const ThreadMeta& t) {
  wire::put_u64(out, kTagThread);
  put_thread(out, t);
}

void put_location_item(std::vector<std::uint8_t>& out, const SourceLoc& loc) {
  wire::put_u64(out, kTagLocation);
  put_location(out, loc);
}

void put_record_item(std::vector<std::uint8_t>& out, const Record& r,
                     std::int64_t& prev_ns) {
  wire::put_u64(out, kTagRecord);
  put_record(out, r, prev_ns);
}

/// EINTR-retrying full write.  Async-signal-safe (only ::write).
bool write_all(int fd, const void* data, std::size_t n) noexcept {
  const std::uint8_t* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

void build_chunk_header(std::uint8_t (&hdr)[kChunkHeaderSize],
                        const std::uint8_t* payload, std::size_t n,
                        std::uint32_t nrec, std::uint32_t running_in,
                        std::uint32_t* running_out) noexcept {
  std::memcpy(hdr, kChunkMagic, 4);
  wire::store_le32(hdr + 4, static_cast<std::uint32_t>(n));
  wire::store_le32(hdr + 8, nrec);
  // One pass over the payload: the running CRC is combined from it.
  const std::uint32_t crc = util::crc32(payload, n);
  wire::store_le32(hdr + 12, crc);
  const std::uint32_t running = util::crc32_combine(running_in, crc, n);
  wire::store_le32(hdr + 16, running);
  if (running_out != nullptr) *running_out = running;
}

}  // namespace

ChunkedWriter::ChunkedWriter(std::string path, ChunkedWriterOptions opt)
    : opt_(opt),
      final_path_(std::move(path)),
      partial_path_(final_path_ + ".partial") {
  fd_ = ::open(partial_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0)
    throw Error("cannot create live trace log " + partial_path_ + ": " +
                std::strerror(errno));
  std::uint8_t header[5];
  std::memcpy(header, kFileMagic, 4);
  header[4] = kVersion;
  if (!write_all(fd_, header, sizeof header)) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw Error("cannot write live trace log " + partial_path_ + ": " +
                std::strerror(err));
  }
  cap_ = kChunkBytes * 2;
  buf_.store(new std::uint8_t[cap_], std::memory_order_release);
  scratch_.reserve(256);
}

ChunkedWriter::~ChunkedWriter() {
  if (fd_ >= 0) ::close(fd_);
  // The buffer is only reclaimed here, never on growth, so a signal
  // handler caught mid-append cannot read freed memory.
  delete[] buf_.load();
}

void ChunkedWriter::append_item(std::size_t nrecords_in_item) {
  const std::size_t committed = committed_.load(std::memory_order_relaxed);
  const std::size_t need = committed + scratch_.size();
  if (need > cap_) {
    // Seal first: that empties the pending buffer on the normal path.
    seal();
    if (scratch_.size() > cap_) {
      // A single oversized item (a pathological string).  Grow by swap
      // and leak the old block — see the header comment on buf_.
      const std::size_t newcap = std::max(cap_ * 2, scratch_.size() + 4096);
      std::uint8_t* newbuf = new std::uint8_t[newcap];
      buf_.store(newbuf, std::memory_order_release);
      cap_ = newcap;
    }
  }
  std::uint8_t* buf = buf_.load(std::memory_order_relaxed);
  const std::size_t at = committed_.load(std::memory_order_relaxed);
  std::memcpy(buf + at, scratch_.data(), scratch_.size());
  committed_.store(at + scratch_.size(), std::memory_order_release);
  if (nrecords_in_item > 0)
    pending_records_.fetch_add(static_cast<std::uint32_t>(nrecords_in_item),
                               std::memory_order_release);
  scratch_.clear();
}

void ChunkedWriter::add_string(const std::string& s) {
  put_string_item(scratch_, s);
  append_item(0);
  ++next_string_;
}

void ChunkedWriter::upsert_thread(const ThreadMeta& t) {
  put_thread_item(scratch_, t);
  append_item(0);
}

void ChunkedWriter::add_location(const SourceLoc& loc) {
  put_location_item(scratch_, loc);
  append_item(0);
  ++next_location_;
}

void ChunkedWriter::add_record(const Record& r) {
  put_record_item(scratch_, r, prev_ns_);
  append_item(1);
  ++records_written_;
  if (pending_records_.load(std::memory_order_relaxed) >= opt_.chunk_records ||
      committed_.load(std::memory_order_relaxed) >= kChunkBytes)
    seal();
}

void ChunkedWriter::sync_tables(const Trace& trace) {
  while (next_string_ < trace.strings.size())
    add_string(trace.strings.get(next_string_));
  while (next_location_ < trace.locations.size())
    add_location(trace.locations[next_location_]);
  // Changed entries precede new ones, each in table order, as a diff
  // of the whole table would write them; a repeated mark finds its
  // entry already written.
  std::sort(marked_threads_.begin(), marked_threads_.end());
  for (const std::size_t i : marked_threads_) {
    if (i >= synced_threads_.size() || synced_threads_[i] == trace.threads[i])
      continue;
    synced_threads_[i] = trace.threads[i];
    upsert_thread(trace.threads[i]);
  }
  marked_threads_.clear();
  while (synced_threads_.size() < trace.threads.size()) {
    synced_threads_.push_back(trace.threads[synced_threads_.size()]);
    upsert_thread(synced_threads_.back());
  }
}

void ChunkedWriter::mark_thread(std::size_t index) {
  marked_threads_.push_back(index);
}

void ChunkedWriter::write_chunk(const std::uint8_t* payload, std::size_t n,
                                std::uint32_t nrec) noexcept {
  std::uint8_t hdr[kChunkHeaderSize];
  std::uint32_t new_running = 0;
  build_chunk_header(hdr, payload, n, nrec,
                     running_crc_.load(std::memory_order_acquire),
                     &new_running);
  if (!write_all(fd_, hdr, sizeof hdr) || !write_all(fd_, payload, n)) return;
  running_crc_.store(new_running, std::memory_order_release);
  sealed_chunks_.fetch_add(1, std::memory_order_release);
}

void ChunkedWriter::seal() {
  const std::size_t n = committed_.load(std::memory_order_acquire);
  const std::uint32_t nrec = pending_records_.load(std::memory_order_acquire);
  if (n == 0 || fd_ < 0) return;
  sealing_.store(true, std::memory_order_release);
  write_chunk(buf_.load(std::memory_order_acquire), n, nrec);
  committed_.store(0, std::memory_order_release);
  pending_records_.store(0, std::memory_order_release);
  sealing_.store(false, std::memory_order_release);
}

std::string ChunkedWriter::finalize() {
  if (finalized_.load(std::memory_order_acquire)) return final_path_;
  seal();
  if (fd_ >= 0) {
    ::fsync(fd_);
    if (::rename(partial_path_.c_str(), final_path_.c_str()) != 0)
      throw Error("cannot publish trace log " + final_path_ + ": " +
                  std::strerror(errno));
    ::close(fd_);
    fd_ = -1;
  }
  finalized_.store(true, std::memory_order_release);
  return final_path_;
}

void ChunkedWriter::crash_seal() noexcept {
  // Runs on a signal stack: only async-signal-safe calls past this
  // point (crc32 and crc32_combine are pure arithmetic; c_str() on a
  // const string allocates nothing).
  if (finalized_.load(std::memory_order_acquire) || fd_ < 0) return;
  std::size_t pending = 0;
  if (!sealing_.load(std::memory_order_acquire)) {
    pending = committed_.load(std::memory_order_acquire);
    if (pending > 0)
      write_chunk(buf_.load(std::memory_order_acquire), pending,
                  pending_records_.load(std::memory_order_acquire));
  }
  // Publish only if something real was sealed; otherwise leave the
  // ".partial" stub so a previous good log at final_path_ survives.
  if (sealed_chunks_.load(std::memory_order_acquire) > 0) {
    ::fsync(fd_);
    ::rename(partial_path_.c_str(), final_path_.c_str());
    finalized_.store(true, std::memory_order_release);
  }
}

std::vector<std::uint8_t> to_chunked(const Trace& trace,
                                     std::size_t chunk_records) {
  VPPB_CHECK_MSG(chunk_records > 0, "chunk_records must be positive");
  std::vector<std::uint8_t> out;
  out.insert(out.end(), kFileMagic, kFileMagic + 4);
  out.push_back(kVersion);

  std::uint32_t running = 0;
  std::vector<std::uint8_t> payload;
  std::uint32_t nrec = 0;
  auto flush = [&] {
    if (payload.empty()) return;
    std::uint8_t hdr[kChunkHeaderSize];
    build_chunk_header(hdr, payload.data(), payload.size(), nrec, running,
                       &running);
    out.insert(out.end(), hdr, hdr + sizeof hdr);
    out.insert(out.end(), payload.begin(), payload.end());
    payload.clear();
    nrec = 0;
  };

  for (std::uint32_t id = 1; id < trace.strings.size(); ++id)
    put_string_item(payload, trace.strings.get(id));
  for (const ThreadMeta& t : trace.threads) put_thread_item(payload, t);
  for (const SourceLoc& loc : trace.locations)
    put_location_item(payload, loc);

  std::int64_t prev_ns = 0;
  for (const Record& r : trace.records) {
    put_record_item(payload, r, prev_ns);
    if (++nrec >= chunk_records) flush();
  }
  flush();
  return out;
}

Trace from_chunked(const std::uint8_t* data, std::size_t size,
                   const LoadOptions& opt, LoadReport* report) {
  VPPB_CHECK_MSG(size >= 5 && std::memcmp(data, kFileMagic, 4) == 0,
                 "not a VPPC chunked trace (bad magic)");
  VPPB_CHECK_MSG(data[4] == kVersion,
                 "unsupported chunked trace version " << int(data[4]));

  Trace trace;
  trace.locations.clear();  // the stream carries the reserved entry 0
  RecordScan scan;
  // Reserve the records once, as the binary reader does: what the chunk
  // headers claim, each capped by what its payload could hold (a record
  // item is at least 10 bytes), so a hostile count cannot drive it.
  std::size_t claimed = 0;
  for (std::size_t p = 5; size - p >= kChunkHeaderSize &&
                          std::memcmp(data + p, kChunkMagic, 4) == 0;) {
    const std::size_t len = wire::load_le32(data + p + 4);
    if (len > size - p - kChunkHeaderSize) break;
    claimed += std::min<std::size_t>(wire::load_le32(data + p + 8), len / 10);
    p += kChunkHeaderSize + len;
  }
  trace.records.reserve(claimed);
  std::uint32_t running = 0;
  std::size_t pos = 5;
  bool stopped = false;
  std::uint32_t decoded_records = 0;  // in the chunk being decoded

  auto fail = [&](IssueKind kind, std::size_t offset,
                  const std::string& msg) {
    if (!opt.salvage)
      throw Error(strprintf("chunked trace: %s (byte %zu)", msg.c_str(),
                            offset));
    if (report != nullptr)
      report->issues.push_back(TraceIssue{kind, offset, msg});
    stopped = true;
  };

  while (!stopped && pos < size) {
    if (size - pos < kChunkHeaderSize) {
      fail(IssueKind::kTruncated, pos,
           strprintf("chunk header truncated (%zu trailing bytes)",
                     size - pos));
      break;
    }
    if (std::memcmp(data + pos, kChunkMagic, 4) != 0) {
      fail(IssueKind::kBadMagic, pos, "bad chunk magic");
      break;
    }
    const std::size_t payload_len = wire::load_le32(data + pos + 4);
    const std::uint32_t record_count = wire::load_le32(data + pos + 8);
    const std::uint32_t payload_crc = wire::load_le32(data + pos + 12);
    const std::uint32_t running_crc = wire::load_le32(data + pos + 16);
    if (payload_len > size - pos - kChunkHeaderSize) {
      fail(IssueKind::kTruncated, pos,
           strprintf("chunk payload truncated (%zu of %zu bytes present)",
                     size - pos - kChunkHeaderSize, payload_len));
      break;
    }
    const std::uint8_t* payload = data + pos + kChunkHeaderSize;
    // One pass over the payload: the running digest is combined from
    // its CRC rather than read again.
    const std::uint32_t crc = util::crc32(payload, payload_len);
    if (crc != payload_crc) {
      fail(IssueKind::kBadChecksum, pos, "chunk payload CRC mismatch");
      break;
    }
    const std::uint32_t new_running =
        util::crc32_combine(running, crc, payload_len);
    if (new_running != running_crc) {
      fail(IssueKind::kBadChecksum, pos,
           "chunk breaks the file's running digest");
      break;
    }
    running = new_running;

    wire::TryReader in(payload, payload_len);
    decoded_records = 0;
    while (!stopped && !in.at_end()) {
      const std::size_t item_off = pos + kChunkHeaderSize + in.pos();
      std::uint64_t tag;
      if (!in.u64(tag)) {
        fail(IssueKind::kBadField, item_off, "item tag truncated");
        break;
      }
      switch (tag) {
        case kTagString: {
          std::string s;
          if (!in.str(s)) {
            fail(IssueKind::kBadField, item_off, "string item truncated");
            break;
          }
          const std::uint32_t expect =
              static_cast<std::uint32_t>(trace.strings.size());
          if (trace.strings.intern(s) != expect)
            fail(IssueKind::kBadReference, item_off,
                 "string table not in intern order");
          break;
        }
        case kTagThread: {
          ThreadMeta t;
          if (!scan.read_thread(in, trace, t)) {
            fail(scan.why, item_off, scan.message);
            break;
          }
          scan.upsert_thread(trace, t.tid) = t;
          break;
        }
        case kTagLocation: {
          SourceLoc loc;
          if (!scan.read_location(in, trace, loc)) {
            fail(scan.why, item_off, scan.message);
            break;
          }
          trace.locations.push_back(loc);
          break;
        }
        case kTagRecord: {
          if (!scan.read_one(in, trace)) {
            fail(scan.why, item_off,
                 scan.message + strprintf(" — cut at record %zu",
                                          trace.records.size()));
            break;
          }
          ++decoded_records;
          break;
        }
        default:
          fail(IssueKind::kUnknownEvent, item_off,
               strprintf("unknown item tag %llu",
                         static_cast<unsigned long long>(tag)));
          break;
      }
    }
    if (stopped) break;
    if (decoded_records != record_count) {
      // The payload passed its CRC, so trust the data over the
      // (uncovered) header field: report, keep, continue.
      const std::string msg =
          strprintf("chunk header claims %u records but %u decoded",
                    record_count, decoded_records);
      if (!opt.salvage)
        throw Error(strprintf("chunked trace: %s (byte %zu)", msg.c_str(),
                              pos));
      if (report != nullptr)
        report->issues.push_back(
            TraceIssue{IssueKind::kBadField, pos, msg});
    }
    if (report != nullptr) report->chunks_loaded++;
    pos += kChunkHeaderSize + payload_len;
  }

  if (stopped && report != nullptr) {
    // Best-effort census of what the cut discarded: walk the remaining
    // chunk headers without trusting their payloads.  The first entry
    // may be the chunk the cut happened inside, so records decoded
    // from it before the cut are not double-counted.
    std::size_t p = pos;
    bool first = true;
    while (size - p >= 12 && std::memcmp(data + p, kChunkMagic, 4) == 0) {
      const std::size_t len = wire::load_le32(data + p + 4);
      std::uint32_t rc = wire::load_le32(data + p + 8);
      if (first && rc >= decoded_records) rc -= decoded_records;
      report->chunks_dropped++;
      report->records_dropped += rc;
      first = false;
      // Torn tail: the header (let alone the payload) is not all here.
      // size - p - kChunkHeaderSize would underflow below, so check
      // the header first.
      if (size - p < kChunkHeaderSize || len > size - p - kChunkHeaderSize)
        break;
      p += kChunkHeaderSize + len;
    }
  }

  finish_load(trace, opt, report, scan.thread_reads);
  return trace;
}

}  // namespace vppb::trace
