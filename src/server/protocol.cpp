#include "server/protocol.hpp"

#include <algorithm>
#include <concepts>
#include <type_traits>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/wire.hpp"

namespace vppb::server {
namespace {

// ---- the field walks -------------------------------------------------------
//
// Each message and entry type lists its fields once, in wire order, in
// one `fields(io, msg)` walk.  encode() runs the walk with a Put, which
// writes each field; the decoders run it with a Get, which reads each
// field back and enforces the decode-side bounds (enum ranges, list
// caps).  A field is therefore read at the position it was written by
// construction.  A new field goes at the end of its walk, with a
// protocol version bump.

/// `T` is `U` or `const U`: encoding walks a const message.
template <typename T, typename U>
concept Of = std::same_as<std::remove_const_t<T>, U>;

template <typename Io, Of<WirePoint> P>
void fields(Io& io, P& p) {
  io(p.cpus);
  io(p.speedup);
  io(p.efficiency);
  io(p.total_ns);
  io(p.digest);
}

template <typename Io, Of<ShardInfo> S>
void fields(Io& io, S& sh) {
  io(sh.shard_id);
  io(sh.epoch);
  io(sh.healthy);
  io(sh.endpoint);
  io(sh.stats);
}

template <typename Io, Of<StageSpan> S>
void fields(Io& io, S& st) {
  io(st.name);
  io(st.start_us);
  io(st.dur_us);
  io(st.depth);
}

template <typename Io, Of<WireSpan> S>
void fields(Io& io, S& sp) {
  io(sp.pid);
  io(sp.tid);
  io(sp.name);
  io(sp.cat);
  io(sp.start_unix_ns);
  io(sp.dur_ns);
  io(sp.trace_id);
  io(sp.arg_name);
  io(sp.arg_value);
}

template <typename Io, Of<Request> R>
void fields(Io& io, R& req) {
  io(req.type);
  io(req.trace_path);
  io(req.cpus);
  io(req.lwps);
  io(req.max_cpus);
  io(req.comm_delay_us);
  io(req.want_svg);
  io(req.deadline_ms);
  io(req.client_id);
  io(req.origin_id);
  io(req.trace_id);
  io(req.parent_span_id);
  io(req.sampled);
  io(req.want_timeline);
}

template <typename Io, Of<Response> R>
void fields(Io& io, R& resp) {
  io(resp.status);
  io(resp.type);
  io(resp.error);
  io.list(resp.points, 4096, "sweep point");
  io(resp.serial_fraction);
  io(resp.knee);
  io(resp.digest);
  io(resp.total_ns);
  io(resp.speedup);
  io(resp.cpus);
  io(resp.lwps);
  io(resp.events);
  io(resp.svg);
  io(resp.report);
  io(resp.stats);
  io(resp.ready);
  io(resp.in_flight);
  io(resp.admission_limit);
  io(resp.shard_id);
  io(resp.epoch);
  io.list(resp.shards, 1024, "shard");
  io(resp.retry_after_ms);
  io(resp.brownout);
  io(resp.live_shards);
  io(resp.total_shards);
  io(resp.served_stale);
  io(resp.stale_age_ms);
  io(resp.slo_burning);
  io(resp.trace_id);
  io.list(resp.timeline, kMaxTimelineStages, "timeline stage");
  // A span is >= 9 encoded bytes, so the span count is also bounded by
  // the bytes actually present: a hostile count in a tiny frame cannot
  // force a giant allocation before the truncation is noticed.
  io.list(resp.spans, kMaxWireSpans, "span", 9);
}

/// Writes each field a walk visits.  Signed values are zigzagged,
/// booleans are 0/1, enums their underlying value.
struct Put {
  std::vector<std::uint8_t>& out;

  void operator()(std::uint64_t v) { wire::put_u64(out, v); }
  void operator()(std::uint32_t v) { wire::put_u64(out, v); }
  void operator()(std::int64_t v) { wire::put_i64(out, v); }
  void operator()(int v) { wire::put_i64(out, v); }
  void operator()(bool v) { wire::put_u64(out, v ? 1 : 0); }
  void operator()(double v) { wire::put_double(out, v); }
  void operator()(const std::string& s) { wire::put_str(out, s); }
  void operator()(Status s) { (*this)(static_cast<std::uint64_t>(s)); }
  void operator()(ReqType t) { (*this)(static_cast<std::uint64_t>(t)); }
  template <std::size_t N>
  void operator()(const std::uint64_t (&vs)[N]) {
    for (std::uint64_t v : vs) wire::put_u64(out, v);
  }
  void operator()(const StatsBody& s) {
    for_each_stats_field(
        [this](const char*, MergeRule, const auto& f) { (*this)(f); }, s);
  }
  template <typename T>
  void list(const std::vector<T>& v, std::uint64_t, const char*,
            std::uint64_t = 0) {
    wire::put_u64(out, v.size());
    for (const T& e : v) fields(*this, e);
  }
};

/// Reads each field a walk visits back, rejecting an out-of-range enum
/// and a list count above its cap (or above what `min_bytes` per entry
/// leaves room for) before anything is allocated for it.
struct Get {
  wire::Reader in;

  void operator()(std::uint64_t& v) { v = in.u64(); }
  void operator()(std::uint32_t& v) {
    v = static_cast<std::uint32_t>(in.u64());
  }
  void operator()(std::int64_t& v) { v = in.i64(); }
  void operator()(int& v) { v = static_cast<int>(in.i64()); }
  void operator()(bool& v) { v = in.u64() != 0; }
  void operator()(double& v) { v = in.dbl(); }
  void operator()(std::string& s) { s = in.str(); }
  void operator()(Status& s) {
    const std::uint64_t v = in.u64();
    VPPB_CHECK_MSG(v <= static_cast<std::uint64_t>(Status::kAuthFailed),
                   "unknown response status " << v);
    s = static_cast<Status>(v);
  }
  void operator()(ReqType& t) {
    const std::uint64_t v = in.u64();
    VPPB_CHECK_MSG(v < kReqTypeCount, "unknown request type " << v);
    t = static_cast<ReqType>(v);
  }
  template <std::size_t N>
  void operator()(std::uint64_t (&vs)[N]) {
    for (std::uint64_t& v : vs) v = in.u64();
  }
  void operator()(StatsBody& s) {
    for_each_stats_field(
        [this](const char*, MergeRule, auto& f) { (*this)(f); }, s);
  }
  template <typename T>
  void list(std::vector<T>& v, std::uint64_t cap, const char* what,
            std::uint64_t min_bytes = 0) {
    const std::uint64_t n = in.u64();
    VPPB_CHECK_MSG(n <= cap && n * min_bytes <= in.remaining(),
                   "implausible " << what << " count " << n);
    v.resize(static_cast<std::size_t>(n));
    for (T& e : v) fields(*this, e);
  }
};

template <typename Msg>
std::vector<std::uint8_t> encode_message(const Msg& msg) {
  std::vector<std::uint8_t> out;
  wire::put_u64(out, kProtocolVersion);
  Put put{out};
  fields(put, msg);
  return out;
}

template <typename Msg>
Msg decode_message(const std::uint8_t* data, std::size_t size,
                   const char* what) {
  Get get{wire::Reader(data, size)};
  const std::uint64_t version = get.in.u64();
  VPPB_CHECK_MSG(version == kProtocolVersion,
                 "unsupported protocol version " << version << " (this build "
                 "speaks " << int(kProtocolVersion) << ")");
  Msg msg;
  fields(get, msg);
  VPPB_CHECK_MSG(get.in.at_end(), "trailing bytes in " << what << " frame");
  return msg;
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
  return encode_message(req);
}

std::vector<std::uint8_t> encode(const Response& resp) {
  return encode_message(resp);
}

Request decode_request(const std::uint8_t* data, std::size_t size) {
  return decode_message<Request>(data, size, "request");
}

Response decode_response(const std::uint8_t* data, std::size_t size) {
  return decode_message<Response>(data, size, "response");
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
  wire::store_le32(header, static_cast<std::uint32_t>(payload.size()));
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
  const std::uint32_t n = wire::load_le32(header);
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
