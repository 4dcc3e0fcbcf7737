#include "server/protocol.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace vppb::server {
namespace {

// ---- varint primitives (the binary trace format's, with frame-sized
// sanity limits on the reading side) ---------------------------------------

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_u64(out, (static_cast<std::uint64_t>(v) << 1) ^
                   static_cast<std::uint64_t>(v >> 63));
}

void put_double(std::vector<std::uint8_t>& out, double d) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof d);
  std::memcpy(&bits, &d, sizeof bits);
  put_u64(out, bits);
}

void put_str(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u64(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint64_t u64() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      VPPB_CHECK_MSG(pos_ < size_, "frame truncated at byte " << pos_);
      const std::uint8_t b = data_[pos_++];
      VPPB_CHECK_MSG(shift < 64, "varint too long in frame");
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
  }

  std::int64_t i64() {
    const std::uint64_t v = u64();
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
  }

  double dbl() {
    const std::uint64_t bits = u64();
    double d;
    std::memcpy(&d, &bits, sizeof d);
    return d;
  }

  std::string str() {
    const std::uint64_t n = u64();
    VPPB_CHECK_MSG(pos_ + n <= size_, "frame string overruns payload");
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  bool at_end() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

ReqType req_type(std::uint64_t v) {
  VPPB_CHECK_MSG(v < kReqTypeCount, "unknown request type " << v);
  return static_cast<ReqType>(v);
}

// ---- StatsBody (shared by the top-level response and each per-shard
// entry of an aggregated cluster response) -----------------------------------

void put_field(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_u64(out, v);
}
void put_field(std::vector<std::uint8_t>& out, double v) { put_double(out, v); }
template <std::size_t N>
void put_field(std::vector<std::uint8_t>& out, const std::uint64_t (&vs)[N]) {
  for (std::uint64_t v : vs) put_u64(out, v);
}

void get_field(Reader& in, std::uint64_t& v) { v = in.u64(); }
void get_field(Reader& in, double& v) { v = in.dbl(); }
template <std::size_t N>
void get_field(Reader& in, std::uint64_t (&vs)[N]) {
  for (std::uint64_t& v : vs) v = in.u64();
}

void put_stats(std::vector<std::uint8_t>& out, const StatsBody& s) {
  for_each_stats_field(
      [&out](const char*, MergeRule, const auto& f) { put_field(out, f); },
      s);
}

void get_stats(Reader& in, StatsBody& s) {
  for_each_stats_field(
      [&in](const char*, MergeRule, auto& f) { get_field(in, f); }, s);
}

void check_version(Reader& in) {
  const std::uint64_t version = in.u64();
  VPPB_CHECK_MSG(version == kProtocolVersion,
                 "unsupported protocol version " << version << " (this build "
                 "speaks " << int(kProtocolVersion) << ")");
}

}  // namespace

const char* to_string(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kError: return "error";
    case Status::kOverloaded: return "overloaded";
    case Status::kDeadlineExceeded: return "deadline-exceeded";
    case Status::kBudgetExceeded: return "budget-exceeded";
    case Status::kPoisoned: return "poisoned";
    case Status::kQuotaExceeded: return "quota-exceeded";
    case Status::kAuthFailed: return "auth-failed";
  }
  return "?";
}

const char* to_string(ReqType t) {
  switch (t) {
    case ReqType::kPredict: return "predict";
    case ReqType::kSimulate: return "simulate";
    case ReqType::kAnalyze: return "analyze";
    case ReqType::kStats: return "stats";
    case ReqType::kHealth: return "health";
    case ReqType::kMetricsDump: return "metricsdump";
    case ReqType::kTraceDump: return "tracedump";
  }
  return "?";
}

std::vector<std::uint8_t> encode(const Request& req) {
  std::vector<std::uint8_t> out;
  out.reserve(32 + req.trace_path.size());
  put_u64(out, kProtocolVersion);
  put_u64(out, static_cast<std::uint64_t>(req.type));
  put_str(out, req.trace_path);
  put_i64(out, req.cpus);
  put_i64(out, req.lwps);
  put_i64(out, req.max_cpus);
  put_i64(out, req.comm_delay_us);
  put_u64(out, req.want_svg ? 1 : 0);
  put_i64(out, req.deadline_ms);
  put_u64(out, req.client_id);
  put_u64(out, req.origin_id);
  put_u64(out, req.trace_id);
  put_u64(out, req.parent_span_id);
  put_u64(out, req.sampled ? 1 : 0);
  put_u64(out, req.want_timeline ? 1 : 0);
  return out;
}

Request decode_request(const std::uint8_t* data, std::size_t size) {
  Reader in(data, size);
  check_version(in);
  Request req;
  req.type = req_type(in.u64());
  req.trace_path = in.str();
  req.cpus = static_cast<int>(in.i64());
  req.lwps = static_cast<int>(in.i64());
  req.max_cpus = static_cast<int>(in.i64());
  req.comm_delay_us = in.i64();
  req.want_svg = in.u64() != 0;
  req.deadline_ms = in.i64();
  req.client_id = in.u64();
  req.origin_id = in.u64();
  req.trace_id = in.u64();
  req.parent_span_id = in.u64();
  req.sampled = in.u64() != 0;
  req.want_timeline = in.u64() != 0;
  VPPB_CHECK_MSG(in.at_end(), "trailing bytes in request frame");
  return req;
}

std::vector<std::uint8_t> encode(const Response& resp) {
  std::vector<std::uint8_t> out;
  out.reserve(64 + resp.svg.size() + resp.report.size() + resp.error.size());
  put_u64(out, kProtocolVersion);
  put_u64(out, static_cast<std::uint64_t>(resp.status));
  put_u64(out, static_cast<std::uint64_t>(resp.type));
  put_str(out, resp.error);
  put_u64(out, resp.points.size());
  for (const WirePoint& p : resp.points) {
    put_i64(out, p.cpus);
    put_double(out, p.speedup);
    put_double(out, p.efficiency);
    put_i64(out, p.total_ns);
    put_u64(out, p.digest);
  }
  put_double(out, resp.serial_fraction);
  put_i64(out, resp.knee);
  put_u64(out, resp.digest);
  put_i64(out, resp.total_ns);
  put_double(out, resp.speedup);
  put_i64(out, resp.cpus);
  put_i64(out, resp.lwps);
  put_u64(out, resp.events);
  put_str(out, resp.svg);
  put_str(out, resp.report);
  put_stats(out, resp.stats);
  put_u64(out, resp.ready ? 1 : 0);
  put_u64(out, resp.in_flight);
  put_u64(out, resp.admission_limit);
  put_u64(out, resp.shard_id);
  put_u64(out, resp.epoch);
  put_u64(out, resp.shards.size());
  for (const ShardInfo& sh : resp.shards) {
    put_u64(out, sh.shard_id);
    put_u64(out, sh.epoch);
    put_u64(out, sh.healthy ? 1 : 0);
    put_str(out, sh.endpoint);
    put_stats(out, sh.stats);
  }
  put_i64(out, resp.retry_after_ms);
  put_u64(out, resp.brownout ? 1 : 0);
  put_u64(out, resp.live_shards);
  put_u64(out, resp.total_shards);
  put_u64(out, resp.served_stale ? 1 : 0);
  put_i64(out, resp.stale_age_ms);
  put_u64(out, resp.slo_burning ? 1 : 0);
  put_u64(out, resp.trace_id);
  put_u64(out, resp.timeline.size());
  for (const StageSpan& st : resp.timeline) {
    put_str(out, st.name);
    put_i64(out, st.start_us);
    put_i64(out, st.dur_us);
    put_u64(out, st.depth);
  }
  put_u64(out, resp.spans.size());
  for (const WireSpan& sp : resp.spans) {
    put_u64(out, sp.pid);
    put_u64(out, sp.tid);
    put_str(out, sp.name);
    put_str(out, sp.cat);
    put_i64(out, sp.start_unix_ns);
    put_i64(out, sp.dur_ns);
    put_u64(out, sp.trace_id);
    put_str(out, sp.arg_name);
    put_i64(out, sp.arg_value);
  }
  return out;
}

Response decode_response(const std::uint8_t* data, std::size_t size) {
  Reader in(data, size);
  check_version(in);
  Response resp;
  const std::uint64_t status = in.u64();
  VPPB_CHECK_MSG(
      status <= static_cast<std::uint64_t>(Status::kAuthFailed),
      "unknown response status " << status);
  resp.status = static_cast<Status>(status);
  resp.type = req_type(in.u64());
  resp.error = in.str();
  const std::uint64_t npoints = in.u64();
  VPPB_CHECK_MSG(npoints <= 4096, "implausible sweep point count "
                 << npoints);
  resp.points.resize(static_cast<std::size_t>(npoints));
  for (WirePoint& p : resp.points) {
    p.cpus = static_cast<int>(in.i64());
    p.speedup = in.dbl();
    p.efficiency = in.dbl();
    p.total_ns = in.i64();
    p.digest = in.u64();
  }
  resp.serial_fraction = in.dbl();
  resp.knee = static_cast<int>(in.i64());
  resp.digest = in.u64();
  resp.total_ns = in.i64();
  resp.speedup = in.dbl();
  resp.cpus = static_cast<int>(in.i64());
  resp.lwps = static_cast<int>(in.i64());
  resp.events = in.u64();
  resp.svg = in.str();
  resp.report = in.str();
  get_stats(in, resp.stats);
  resp.ready = in.u64() != 0;
  resp.in_flight = in.u64();
  resp.admission_limit = in.u64();
  resp.shard_id = in.u64();
  resp.epoch = in.u64();
  const std::uint64_t nshards = in.u64();
  VPPB_CHECK_MSG(nshards <= 1024, "implausible shard count " << nshards);
  resp.shards.resize(static_cast<std::size_t>(nshards));
  for (ShardInfo& sh : resp.shards) {
    sh.shard_id = in.u64();
    sh.epoch = in.u64();
    sh.healthy = in.u64() != 0;
    sh.endpoint = in.str();
    get_stats(in, sh.stats);
  }
  resp.retry_after_ms = in.i64();
  resp.brownout = in.u64() != 0;
  resp.live_shards = in.u64();
  resp.total_shards = in.u64();
  resp.served_stale = in.u64() != 0;
  resp.stale_age_ms = in.i64();
  resp.slo_burning = in.u64() != 0;
  resp.trace_id = in.u64();
  const std::uint64_t nstages = in.u64();
  VPPB_CHECK_MSG(nstages <= kMaxTimelineStages,
                 "implausible timeline stage count " << nstages);
  resp.timeline.resize(static_cast<std::size_t>(nstages));
  for (StageSpan& st : resp.timeline) {
    st.name = in.str();
    st.start_us = in.i64();
    st.dur_us = in.i64();
    st.depth = static_cast<std::uint32_t>(in.u64());
  }
  const std::uint64_t nspans = in.u64();
  // Bound against the bytes actually present (a span is >= 9 encoded
  // bytes) so a hostile count in a tiny frame cannot force a giant
  // allocation before the truncation is noticed.
  VPPB_CHECK_MSG(nspans <= kMaxWireSpans && nspans * 9 <= in.remaining(),
                 "implausible span count " << nspans);
  resp.spans.resize(static_cast<std::size_t>(nspans));
  for (WireSpan& sp : resp.spans) {
    sp.pid = in.u64();
    sp.tid = static_cast<std::uint32_t>(in.u64());
    sp.name = in.str();
    sp.cat = in.str();
    sp.start_unix_ns = in.i64();
    sp.dur_ns = in.i64();
    sp.trace_id = in.u64();
    sp.arg_name = in.str();
    sp.arg_value = in.i64();
  }
  VPPB_CHECK_MSG(in.at_end(), "trailing bytes in response frame");
  return resp;
}

Request decode_request(const std::vector<std::uint8_t>& payload) {
  return decode_request(payload.data(), payload.size());
}

Response decode_response(const std::vector<std::uint8_t>& payload) {
  return decode_response(payload.data(), payload.size());
}

void write_frame(util::Socket& sock,
                 const std::vector<std::uint8_t>& payload) {
  if (payload.empty() || payload.size() > kMaxFrame)
    throw Error(strprintf("frame payload of %zu bytes out of range (1..%zu)",
                          payload.size(), kMaxFrame));
  std::uint8_t header[4];
  const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
  header[0] = static_cast<std::uint8_t>(n);
  header[1] = static_cast<std::uint8_t>(n >> 8);
  header[2] = static_cast<std::uint8_t>(n >> 16);
  header[3] = static_cast<std::uint8_t>(n >> 24);
  sock.send_all(header, sizeof header);
  sock.send_all(payload.data(), payload.size());
}

bool read_frame(util::Socket& sock, std::vector<std::uint8_t>& payload) {
  return read_frame(sock, payload, FrameLimits{});
}

bool read_frame(util::Socket& sock, std::vector<std::uint8_t>& payload,
                const FrameLimits& limits) {
  std::uint8_t header[4];
  const std::size_t got = sock.recv_exact(header, sizeof header);
  if (got == 0) return false;  // clean end-of-stream between frames
  if (got < sizeof header)
    throw Error(strprintf("truncated frame header (%zu of 4 bytes)", got));
  const std::uint32_t n = static_cast<std::uint32_t>(header[0]) |
                          static_cast<std::uint32_t>(header[1]) << 8 |
                          static_cast<std::uint32_t>(header[2]) << 16 |
                          static_cast<std::uint32_t>(header[3]) << 24;
  const std::size_t cap = std::min(limits.max_bytes, kMaxFrame);
  if (n == 0 || n > cap)
    throw Error(strprintf("frame length %u out of range (1..%zu) — "
                          "not a vppbd peer?", n, cap));
  payload.resize(n);
  const std::size_t body =
      sock.recv_exact_deadline(payload.data(), n, limits.frame_deadline_ms);
  if (body < n)
    throw Error(strprintf("truncated frame payload (%zu of %u bytes)",
                          body, n));
  return true;
}

}  // namespace vppb::server
