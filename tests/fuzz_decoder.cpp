// Standalone deterministic fuzzer for every untrusted-input decoder:
// the text/binary/chunked trace loaders (strict and salvage) and the
// wire-protocol request/response decoders.
//
// There is no libFuzzer in the toolchain, so this is a self-contained
// driver: a xorshift64* PRNG mutates a fixed seed corpus (plus any
// files in --corpus-dir) and feeds the result to every decoder.  The
// oracle has four parts:
//
//   1. no decoder may escape with anything but vppb::Error — no
//      crashes, no std::bad_alloc from hostile counts, no UB (run it
//      under VPPB_SANITIZE=address,undefined to make that bite);
//   2. every trace a loader returns, strict or salvaged, must pass
//      Trace::validate() — the independent reference for the
//      structural check the loaders run while decoding, which is the
//      only check a loaded trace gets;
//   3. salvage is deterministic — decoding the same damaged bytes
//      twice must yield bit-identical traces and identical reports;
//   4. every trace a loader returns compiles and simulates at 1 CPU
//      under a step and wall budget, or fails with vppb::Error.
//
// Every failure prints the seed and iteration, so a repro is one
// command: fuzz_decoder --seed S --iterations I.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "core/engine.hpp"
#include "core/guard.hpp"
#include "server/auth.hpp"
#include "server/protocol.hpp"
#include "trace/binary.hpp"
#include "trace/chunked.hpp"
#include "trace/io.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"

namespace vppb {
namespace {

std::uint64_t g_rng_state = 1;

std::uint64_t next_rand() {
  std::uint64_t x = g_rng_state;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  g_rng_state = x;
  return x * 0x2545f4914f6cdd1dULL;
}

/// A small but representative trace: two threads, paired calls,
/// single-op events, an interned name table.
trace::Trace seed_trace() {
  trace::Trace t;
  t.upsert_thread(1).name = t.strings.intern("main");
  t.upsert_thread(2).name = t.strings.intern("worker");
  auto rec = [](std::int64_t us, trace::ThreadId tid, trace::Op op,
                trace::Phase phase) {
    trace::Record r;
    r.at = SimTime::micros(us);
    r.tid = tid;
    r.op = op;
    r.phase = phase;
    return r;
  };
  using trace::Op;
  using trace::Phase;
  t.records.push_back(rec(10, 1, Op::kThrCreate, Phase::kCall));
  t.records.push_back(rec(12, 1, Op::kThrCreate, Phase::kReturn));
  t.records.push_back(rec(15, 2, Op::kUserMark, Phase::kCall));
  t.records.push_back(rec(20, 1, Op::kThrJoin, Phase::kCall));
  t.records.push_back(rec(25, 2, Op::kThrExit, Phase::kCall));
  t.records.push_back(rec(30, 1, Op::kThrJoin, Phase::kReturn));
  return t;
}

std::vector<std::uint8_t> mutate(std::vector<std::uint8_t> bytes) {
  const std::uint64_t ops = 1 + next_rand() % 4;
  for (std::uint64_t i = 0; i < ops && !bytes.empty(); ++i) {
    const std::size_t at = next_rand() % bytes.size();
    switch (next_rand() % 6) {
      case 0:  // flip one bit
        bytes[at] ^= static_cast<std::uint8_t>(1u << (next_rand() % 8));
        break;
      case 1:  // overwrite with a hostile byte
        bytes[at] = static_cast<std::uint8_t>(next_rand());
        break;
      case 2:  // truncate, as a crash or torn write would
        bytes.resize(at);
        break;
      case 3:  // insert a byte, shifting everything after it
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                     static_cast<std::uint8_t>(next_rand()));
        break;
      case 4:  // drop a byte
        bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(at));
        break;
      case 5: {  // a hostile length or count: a 10-byte varint >= 2^63,
                 // half the time within 64 of 2^64 so `pos + n` wraps
        std::uint64_t v = next_rand() % 2 == 0
                              ? ~std::uint64_t{0} - next_rand() % 64
                              : next_rand() | std::uint64_t{1} << 63;
        if (bytes.size() < at + 10) bytes.resize(at + 10);
        for (std::size_t k = 0; k < 9; ++k, v >>= 7)
          bytes[at + k] = static_cast<std::uint8_t>(v | 0x80);
        bytes[at + 9] = static_cast<std::uint8_t>(v);  // the top bit: 1
        break;
      }
    }
  }
  return bytes;
}

struct Stats {
  std::uint64_t strict_ok = 0, strict_rejected = 0;
  std::uint64_t salvage_ok = 0, salvage_rejected = 0;
  std::uint64_t replay_ok = 0, replay_rejected = 0;
  std::uint64_t proto_rejected = 0;
};

/// Oracles 2 and 4 for one trace a loader returned.  Returns false
/// (after printing a diagnostic) when Trace::validate() rejects it; a
/// replay that escapes with anything but vppb::Error propagates to
/// run(), which reports it as a failure.
bool check_loaded(const char* name, const char* mode, const trace::Trace& t,
                  Stats& stats) {
  try {
    t.validate();
  } catch (const Error& e) {
    std::fprintf(stderr, "FUZZ: %s %s load returned a trace that "
                         "Trace::validate() rejects: %s\n",
                 name, mode, e.what());
    return false;
  }
  core::RunLimits limits;
  // Linear in the trace's size: a replay applies at most one step per
  // record, so only a cost cliff could reach this budget.
  limits.max_steps = 64 + 4 * t.records.size();
  limits.max_wall_ms = 5000;
  const core::RunGuard guard(limits);
  core::SimConfig cfg;
  cfg.hw.cpus = 1;
  try {
    (void)core::simulate(core::compile(t, &guard), cfg, &guard);
    ++stats.replay_ok;
  } catch (const Error&) {
    ++stats.replay_rejected;
  }
  return true;
}

/// Decodes `bytes` as a trace with `loader` strictly and in salvage
/// mode, enforcing oracles 1–4.  Returns false (after printing a
/// diagnostic) on an oracle violation.
template <typename Loader>
bool check_trace_loader(const char* name, const Loader& loader,
                        const std::vector<std::uint8_t>& bytes, Stats& stats) {
  std::optional<trace::Trace> strict;
  try {
    strict = loader(bytes, trace::LoadOptions{}, nullptr);
    ++stats.strict_ok;
  } catch (const Error&) {
    ++stats.strict_rejected;
  }
  if (strict && !check_loaded(name, "strict", *strict, stats)) return false;

  trace::LoadOptions opt;
  opt.salvage = true;
  trace::LoadReport report;
  std::optional<trace::Trace> got;
  try {
    got = loader(bytes, opt, &report);
    ++stats.salvage_ok;
  } catch (const Error&) {
    ++stats.salvage_rejected;  // unusable header: fine, it threw cleanly
    return true;
  }
  trace::LoadReport report2;
  const trace::Trace again = loader(bytes, opt, &report2);
  // Oracle 3: same bytes in, same trace and report out.
  if (trace::to_binary(*got) != trace::to_binary(again) ||
      report.records_recovered != report2.records_recovered ||
      report.records_dropped != report2.records_dropped) {
    std::fprintf(stderr, "FUZZ: %s salvage is nondeterministic\n", name);
    return false;
  }
  return check_loaded(name, "salvage", *got, stats);
}

bool check_input(const std::vector<std::uint8_t>& bytes, Stats& stats) {
  bool ok = true;
  ok &= check_trace_loader(
      "from_binary",
      [](const std::vector<std::uint8_t>& b, const trace::LoadOptions& o,
         trace::LoadReport* r) { return trace::from_binary(b.data(), b.size(), o, r); },
      bytes, stats);
  ok &= check_trace_loader(
      "from_chunked",
      [](const std::vector<std::uint8_t>& b, const trace::LoadOptions& o,
         trace::LoadReport* r) { return trace::from_chunked(b.data(), b.size(), o, r); },
      bytes, stats);
  ok &= check_trace_loader(
      "from_text",
      [](const std::vector<std::uint8_t>& b, const trace::LoadOptions& o,
         trace::LoadReport* r) {
        return trace::from_text(std::string(b.begin(), b.end()), o, r);
      },
      bytes, stats);
  ok &= check_trace_loader(
      "from_any",
      [](const std::vector<std::uint8_t>& b, const trace::LoadOptions& o,
         trace::LoadReport* r) { return trace::from_any(b.data(), b.size(), o, r); },
      bytes, stats);
  try {
    (void)server::decode_request(bytes);
  } catch (const Error&) {
    ++stats.proto_rejected;
  }
  try {
    (void)server::decode_response(bytes);
  } catch (const Error&) {
    ++stats.proto_rejected;
  }
  // Protocol v8 handshake preambles: fixed-size parsers on the
  // pre-auth path, where a crash would be reachable by anyone who can
  // open a TCP connection.  AuthError derives from Error, so the
  // oracle is the same: typed rejection or clean acceptance, nothing
  // else.
  try {
    (void)server::parse_challenge(bytes.data(), bytes.size());
  } catch (const Error&) {
    ++stats.proto_rejected;
  }
  try {
    (void)server::parse_client_proof(bytes.data(), bytes.size());
  } catch (const Error&) {
    ++stats.proto_rejected;
  }
  try {
    (void)server::parse_verdict(bytes.data(), bytes.size());
  } catch (const Error&) {
    ++stats.proto_rejected;
  }
  return ok;
}

int run(std::uint64_t seed, std::uint64_t iterations,
        const std::string& corpus_dir, const std::string& dump_last) {
  const trace::Trace t = seed_trace();
  std::vector<std::vector<std::uint8_t>> seeds;
  seeds.push_back(trace::to_binary(t));
  seeds.push_back(trace::to_chunked(t, 2));
  {
    const std::string text = trace::to_text(t);
    seeds.emplace_back(text.begin(), text.end());
  }
  {
    server::Request req;
    req.type = server::ReqType::kPredict;
    req.trace_path = "corpus/seed.trace";
    req.max_cpus = 8;
    req.deadline_ms = 100;
    seeds.push_back(server::encode(req));
  }
  {
    // Protocol v6 request: both identity fields populated, so mutants
    // reach the client_id/origin_id varint decodes at the payload tail.
    server::Request req;
    req.type = server::ReqType::kPredict;
    req.trace_path = "corpus/seed.trace";
    req.max_cpus = 4;
    req.client_id = 0x1122334455667788ULL;
    req.origin_id = 0x99aabbccddeeff00ULL;
    seeds.push_back(server::encode(req));
  }
  {
    // Protocol v6 quota rejection: the typed status above the old
    // bound plus a retry_after_ms hint.
    server::Response resp;
    resp.type = server::ReqType::kPredict;
    resp.status = server::Status::kQuotaExceeded;
    resp.error = "client over quota";
    resp.retry_after_ms = 750;
    seeds.push_back(server::encode(resp));
  }
  {
    // Protocol v5 aggregated cluster response: shard identity/epoch
    // plus a per-shard stats breakdown — the widest response layout,
    // so mutants reach the shard-list decode loop and its bounds
    // checks (implausible counts, truncated mid-shard strings).
    server::Response resp;
    resp.type = server::ReqType::kStats;
    resp.shard_id = 1;
    resp.epoch = 0x1122334455667788ULL;
    resp.stats.requests = 7;
    resp.stats.cache_hits = 3;
    for (std::uint64_t id = 1; id <= 2; ++id) {
      server::ShardInfo sh;
      sh.shard_id = id;
      sh.epoch = 0xabcd0000 + id;
      sh.healthy = id == 1;
      sh.endpoint = "cdir/shard.sock";
      sh.stats.requests = id * 3;
      sh.stats.latency_buckets[60] = 1234;
      sh.stats.latency_buckets[obs::kLatencyBuckets - 1] = id;
      resp.shards.push_back(sh);
    }
    seeds.push_back(server::encode(resp));
  }
  {
    // Protocol v6 brownout health payload: degraded-cluster markers
    // (brownout flag, live/total counts, stale-serve fields) plus a
    // shard row, so mutants hit the resilience tail after the list.
    server::Response resp;
    resp.type = server::ReqType::kHealth;
    resp.ready = true;
    resp.brownout = true;
    resp.live_shards = 1;
    resp.total_shards = 4;
    resp.served_stale = true;
    resp.stale_age_ms = 2500;
    resp.retry_after_ms = 100;
    server::ShardInfo sh;
    sh.shard_id = 1;
    sh.healthy = true;
    sh.endpoint = "cdir/shard0.sock";
    sh.stats.brownout_sheds = 9;
    sh.stats.stale_serves = 4;
    sh.stats.quota_rejections = 2;
    resp.shards.push_back(sh);
    seeds.push_back(server::encode(resp));
  }
  {
    // Protocol v7 traced request: the full trace-context tail
    // (trace_id, parent span, sampled, want_timeline), so mutants
    // reach the context varints after the identity fields.
    server::Request req;
    req.type = server::ReqType::kSimulate;
    req.trace_path = "corpus/seed.trace";
    req.cpus = 4;
    req.client_id = 0x1111;
    req.trace_id = 0xfeedfacecafebeefULL;
    req.parent_span_id = 0x2222;
    req.sampled = true;
    req.want_timeline = true;
    seeds.push_back(server::encode(req));
  }
  {
    // Protocol v7 tracedump response: a stage timeline (duration and
    // marker entries at mixed depths) plus wire spans (full and
    // instant), so mutants reach both v7 list decodes — their count
    // guards, string fields, and the negative-duration encodings.
    server::Response resp;
    resp.type = server::ReqType::kTraceDump;
    resp.shard_id = 2;
    resp.slo_burning = true;
    resp.trace_id = 0xfeedfacecafebeefULL;
    resp.stats.slo_p99_ms = 25.0;
    resp.stats.lat_burn_5m = 14.5;
    resp.stats.sampled_requests = 3;
    resp.stats.trace_dropped = 1;
    resp.timeline.push_back({"queue", 0, 150, 0});
    resp.timeline.push_back({"forward shard=2", 150, 9000, 0});
    resp.timeline.push_back({"simulate", 400, 8000, 1});
    resp.timeline.push_back({"hedge", 700, -1, 0});
    server::WireSpan sp;
    sp.pid = 2;
    sp.tid = 3;
    sp.name = "server.dispatch";
    sp.cat = "server";
    sp.start_unix_ns = 1700000000123456789LL;
    sp.dur_ns = 420000;
    sp.trace_id = 0xfeedfacecafebeefULL;
    sp.arg_name = "cpus";
    sp.arg_value = 4;
    resp.spans.push_back(sp);
    server::WireSpan marker;
    marker.pid = 0;
    marker.name = "failover";
    marker.cat = "proxy";
    marker.start_unix_ns = 1700000000123400000LL;
    marker.dur_ns = -1;
    resp.spans.push_back(marker);
    seeds.push_back(server::encode(resp));
  }
  {
    // Protocol v8 handshake preambles, one of each message: valid
    // magic/version bytes so mutants get past the first check and into
    // the flag, reserved-byte, and length validation.
    server::Challenge ch;
    ch.flags = server::kAuthFlagRequired;
    for (std::size_t i = 0; i < server::kAuthNonceBytes; ++i)
      ch.nonce[i] = static_cast<std::uint8_t>(0xc0 + i);
    std::uint8_t ch_buf[server::kChallengeBytes];
    server::encode_challenge(ch, ch_buf);
    seeds.emplace_back(ch_buf, ch_buf + sizeof ch_buf);

    server::ClientProof proof;
    for (std::size_t i = 0; i < server::kAuthNonceBytes; ++i)
      proof.nonce[i] = static_cast<std::uint8_t>(0x10 + i);
    server::client_mac("fuzz-key", ch.nonce, proof.nonce, proof.mac);
    std::uint8_t p_buf[server::kClientProofBytes];
    server::encode_client_proof(proof, p_buf);
    seeds.emplace_back(p_buf, p_buf + sizeof p_buf);

    server::Verdict v;
    v.status = 0;
    server::server_mac("fuzz-key", ch.nonce, proof.nonce, v.mac);
    std::uint8_t v_buf[server::kVerdictBytes];
    server::encode_verdict(v, v_buf);
    seeds.emplace_back(v_buf, v_buf + sizeof v_buf);
  }
  // Self-check: undamaged seeds must load strictly, or every mutant
  // would be exercising nothing but the header check.
  trace::from_binary(seeds[0].data(), seeds[0].size());
  trace::from_chunked(seeds[1].data(), seeds[1].size());

  if (!corpus_dir.empty()) {
    for (const auto& entry : std::filesystem::directory_iterator(corpus_dir)) {
      if (!entry.is_regular_file()) continue;
      std::ifstream in(entry.path(), std::ios::binary);
      std::vector<std::uint8_t> bytes(
          (std::istreambuf_iterator<char>(in)),
          std::istreambuf_iterator<char>());
      if (!bytes.empty()) seeds.push_back(std::move(bytes));
    }
  }

  g_rng_state = seed ? seed : 1;
  Stats stats;
  // The checked-in corpus holds known-nasty inputs: run them unmutated
  // first, so a regression reproduces even at --iterations 0.
  for (const auto& s : seeds) {
    if (!check_input(s, stats)) return 1;
  }
  for (std::uint64_t i = 0; i < iterations; ++i) {
    const std::vector<std::uint8_t> input =
        mutate(seeds[next_rand() % seeds.size()]);
    if (!dump_last.empty()) {
      // A crash kills the process before any report prints; the dump
      // file then holds the exact input that did it.
      std::ofstream out(dump_last, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(input.data()),
                static_cast<std::streamsize>(input.size()));
    }
    try {
      if (!check_input(input, stats)) {
        std::fprintf(stderr, "FUZZ: failed at --seed %llu iteration %llu\n",
                     static_cast<unsigned long long>(seed),
                     static_cast<unsigned long long>(i));
        return 1;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "FUZZ: unexpected %s at --seed %llu iteration %llu\n",
                   e.what(), static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(i));
      return 1;
    }
  }
  std::printf(
      "fuzz_decoder: %llu iterations over %zu seeds: "
      "strict %llu ok / %llu rejected, salvage %llu ok / %llu rejected, "
      "replay %llu ok / %llu rejected, protocol %llu rejected, 0 crashes\n",
      static_cast<unsigned long long>(iterations), seeds.size(),
      static_cast<unsigned long long>(stats.strict_ok),
      static_cast<unsigned long long>(stats.strict_rejected),
      static_cast<unsigned long long>(stats.salvage_ok),
      static_cast<unsigned long long>(stats.salvage_rejected),
      static_cast<unsigned long long>(stats.replay_ok),
      static_cast<unsigned long long>(stats.replay_rejected),
      static_cast<unsigned long long>(stats.proto_rejected));
  return 0;
}

}  // namespace
}  // namespace vppb

int main(int argc, char** argv) {
  std::uint64_t seed = 1, iterations = 2000;
  std::string corpus_dir, dump_last;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--seed") seed = std::strtoull(value(), nullptr, 10);
    else if (arg == "--iterations") iterations = std::strtoull(value(), nullptr, 10);
    else if (arg == "--corpus-dir") corpus_dir = value();
    else if (arg == "--dump-last") dump_last = value();
    else {
      std::fprintf(stderr,
                   "usage: fuzz_decoder [--seed N] [--iterations N] "
                   "[--corpus-dir DIR] [--dump-last FILE]\n");
      return 2;
    }
  }
  return vppb::run(seed, iterations, corpus_dir, dump_last);
}
