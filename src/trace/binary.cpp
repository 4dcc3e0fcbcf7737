#include "trace/binary.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string_view>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "trace/chunked.hpp"
#include "trace/io.hpp"
#include "trace/entry_codec.hpp"
#include "util/atomic_file.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace vppb::trace {
namespace {

constexpr char kMagic[4] = {'V', 'P', 'P', 'B'};
constexpr std::uint8_t kVersion = 1;

void add_issue(LoadReport* report, IssueKind kind, std::size_t offset,
               std::string message) {
  if (report == nullptr) return;
  report->issues.push_back(TraceIssue{kind, offset, std::move(message)});
}

/// Decodes the record section.  In salvage mode a structural violation
/// ends the section (longest valid prefix) instead of throwing; the
/// same checks throw in strict mode so corrupt logs cannot slip through
/// with a clean bill of health.
void read_records(wire::TryReader& in, RecordScan& scan, Trace& trace,
                  std::uint64_t nrecords, const LoadOptions& opt,
                  LoadReport* report) {
  // A record encodes to >= 9 bytes (9 fields, >= 1 byte each), so a
  // "giant header" declaring more records than the payload could hold
  // must not drive the reservation: cap by what the bytes can supply.
  trace.records.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(nrecords, in.remaining() / 9 + 1)));

  for (std::uint64_t i = 0; i < nrecords; ++i) {
    if (scan.read_one(in, trace)) continue;
    if (!opt.salvage)
      throw Error(strprintf("binary trace: %s (record %zu, byte %zu)",
                            scan.message.c_str(), trace.records.size(),
                            in.pos()));
    add_issue(report, scan.why, in.pos(),
              scan.message +
                  strprintf(" — cut at record %zu", trace.records.size()));
    return;
  }
}

Trace from_binary_impl(const std::uint8_t* data, std::size_t size,
                       const LoadOptions& opt, LoadReport* report) {
  VPPB_CHECK_MSG(size >= 5 && std::memcmp(data, kMagic, 4) == 0,
                 "not a VPPB binary trace (bad magic)");
  VPPB_CHECK_MSG(data[4] == kVersion,
                 "unsupported binary trace version " << int(data[4]));
  // The table sections (strings, threads, locations) are all-or-nothing
  // even under salvage: records are meaningless without them, so a
  // corrupt table is an unrecoverable log, not a short one.
  wire::TryReader header(data + 5, size - 5);
  Trace trace;
  RecordScan scan;
  const auto bad = [&header](const std::string& why) {
    return Error(strprintf("binary trace: %s (byte %zu)", why.c_str(),
                           5 + header.pos()));
  };
  const auto count = [&](const char* what) {
    std::uint64_t n;
    if (!header.u64(n)) throw bad(strprintf("%s count truncated", what));
    VPPB_CHECK_MSG(n <= header.remaining(),
                   what << " table declares " << n << " entries but only "
                        << header.remaining() << " bytes remain");
    return n;
  };

  const std::uint64_t nstrings = count("string");
  for (std::uint64_t i = 0; i < nstrings; ++i) {
    std::string s;
    if (!header.str(s)) throw bad("string entry truncated");
    const std::uint32_t id = trace.strings.intern(s);
    VPPB_CHECK_MSG(id == i + 1, "binary trace string table not in order");
  }

  const std::uint64_t nthreads = count("thread");
  for (std::uint64_t i = 0; i < nthreads; ++i) {
    ThreadMeta t;
    if (!scan.read_thread(header, trace, t)) throw bad(scan.message);
    trace.threads.push_back(t);
  }

  trace.locations.clear();
  const std::uint64_t nlocs = count("location");
  for (std::uint64_t i = 0; i < nlocs; ++i) {
    SourceLoc loc;
    if (!scan.read_location(header, trace, loc)) throw bad(scan.message);
    trace.locations.push_back(loc);
  }

  std::uint64_t nrecords;
  if (!header.u64(nrecords)) throw bad("record count truncated");
  wire::TryReader records_in(data + 5 + header.pos(),
                             size - 5 - header.pos());
  read_records(records_in, scan, trace, nrecords, opt, report);

  if (report != nullptr)
    report->records_dropped = static_cast<std::size_t>(
        nrecords - std::min<std::uint64_t>(nrecords, trace.records.size()));
  if (!records_in.at_end() && trace.records.size() == nrecords) {
    if (!opt.salvage) throw Error("trailing bytes in binary trace");
    add_issue(report, IssueKind::kTrailingData, 5 + header.pos() + records_in.pos(),
              strprintf("%zu trailing bytes ignored", records_in.remaining()));
  }
  finish_load(trace, opt, report, scan.thread_reads);
  return trace;
}

}  // namespace

std::vector<std::uint8_t> to_binary(const Trace& trace) {
  std::vector<std::uint8_t> out;
  out.reserve(trace.records.size() * 6 + 256);
  out.insert(out.end(), kMagic, kMagic + 4);
  out.push_back(kVersion);

  // Strings: the pool is reconstructed by interning in order, so only
  // the non-empty entries (ids 1..n-1) are stored.
  wire::put_u64(out, trace.strings.size() - 1);
  for (std::uint32_t id = 1; id < trace.strings.size(); ++id)
    wire::put_str(out, trace.strings.get(id));

  wire::put_u64(out, trace.threads.size());
  for (const ThreadMeta& t : trace.threads) put_thread(out, t);

  wire::put_u64(out, trace.locations.size());
  for (const SourceLoc& loc : trace.locations) put_location(out, loc);

  wire::put_u64(out, trace.records.size());
  std::int64_t prev_ns = 0;
  for (const Record& r : trace.records) put_record(out, r, prev_ns);
  return out;
}

Trace from_binary(const std::uint8_t* data, std::size_t size) {
  return from_binary_impl(data, size, LoadOptions{}, nullptr);
}

Trace from_binary(const std::vector<std::uint8_t>& bytes) {
  return from_binary(bytes.data(), bytes.size());
}

Trace from_binary(const std::uint8_t* data, std::size_t size,
                  const LoadOptions& opt, LoadReport* report) {
  return from_binary_impl(data, size, opt, report);
}

void save_binary_file(const Trace& trace, const std::string& path) {
  util::atomic_write_file(path, to_binary(trace));
}

Trace load_any_file(const std::string& path) {
  return load_any_file(path, LoadOptions{}, nullptr);
}

Trace load_any_file(const std::string& path, const LoadOptions& opt,
                    LoadReport* report) {
  const std::vector<std::uint8_t> bytes = read_file_bytes(path);
  return from_any(bytes.data(), bytes.size(), opt, report);
}

namespace {

/// Registry handles for the loader path, registered once.  from_any is
/// the single funnel every format and every caller (CLI, cache,
/// salvage tools) goes through, so counting here covers them all.
struct LoaderMetrics {
  obs::Counter& loads;
  obs::Counter& bytes;
  obs::Counter& records;
  obs::Counter& salvage_issues;

  static LoaderMetrics& get() {
    auto& reg = obs::Registry::global();
    static LoaderMetrics m{
        reg.counter("vppb_trace_loads_total", "Trace parses completed"),
        reg.counter("vppb_trace_bytes_total", "Trace bytes parsed"),
        reg.counter("vppb_trace_records_total", "Trace records decoded"),
        reg.counter("vppb_trace_salvage_issues_total",
                    "Issues recorded while salvaging damaged traces"),
    };
    return m;
  }
};

const char* format_name(const std::uint8_t* data, std::size_t size) {
  if (size >= 4 && std::memcmp(data, "VPPC", 4) == 0) return "chunked";
  if (size >= 4 && std::memcmp(data, kMagic, 4) == 0) return "binary";
  return "text";
}

}  // namespace

Trace from_any(const std::uint8_t* data, std::size_t size,
               const LoadOptions& opt, LoadReport* report) {
  obs::Span span("trace.load", "loader");
  span.arg("bytes", static_cast<std::int64_t>(size));
  const auto t0 = std::chrono::steady_clock::now();
  Trace trace = [&]() {
    if (size >= 4 && std::memcmp(data, "VPPC", 4) == 0)
      return from_chunked(data, size, opt, report);
    if (size >= 4 && std::memcmp(data, kMagic, 4) == 0)
      return from_binary_impl(data, size, opt, report);
    return from_text(
        std::string_view(reinterpret_cast<const char*>(data), size), opt,
        report);
  }();

  LoaderMetrics& lm = LoaderMetrics::get();
  lm.loads.inc();
  lm.bytes.inc(size);
  lm.records.inc(trace.records.size());
  if (report != nullptr) lm.salvage_issues.inc(report->issues.size());
  if (obs::Logger::global().enabled(obs::LogLevel::kDebug)) {
    const double secs =
        std::chrono::duration_cast<std::chrono::duration<double>>(
            std::chrono::steady_clock::now() - t0)
            .count();
    obs::logf(obs::LogLevel::kDebug, "loader",
              "parsed %s trace: %zu records, %zu bytes, %.0f records/sec%s",
              format_name(data, size), trace.records.size(), size,
              secs > 0.0 ? static_cast<double>(trace.records.size()) / secs
                         : 0.0,
              report != nullptr && !report->issues.empty() ? " (salvaged)"
                                                           : "");
  }
  return trace;
}

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (!f)
    throw Error("cannot open trace file: " + path + ": " +
                std::strerror(errno));
  // A regular file's buffer is its size plus one byte, so one read takes
  // the whole file and finds EOF without growing the buffer.  A pipe or
  // a device has no size up front: read to EOF, doubling.
  struct stat st {};
  std::size_t cap = 64 * 1024;
  if (::fstat(::fileno(f.get()), &st) == 0 && S_ISREG(st.st_mode))
    cap = static_cast<std::size_t>(st.st_size) + 1;
  std::vector<std::uint8_t> bytes(cap);
  std::size_t n = 0;
  while ((n += std::fread(bytes.data() + n, 1, bytes.size() - n,
                          f.get())) == bytes.size())
    bytes.resize(2 * bytes.size());
  if (std::ferror(f.get()))
    throw Error("cannot read trace file: " + path + ": " +
                std::strerror(errno));
  bytes.resize(n);
  return bytes;
}

}  // namespace vppb::trace
