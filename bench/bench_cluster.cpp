// Cluster scaling benchmark: multi-process flood through the routing
// tier, proving the proxy + N forked vppbd shards scale near-linearly
// 1 -> 2 -> 4 shards AND answer digest-identically to the offline CLI.
//
// Shard capacity is made deliberately scarce and uniform so the curve
// measures the routing tier and not this host's core count: every
// shard runs with a single pool worker (--jobs 1) and a cooperative
// --delay-ms service-time injection (VPPB_FAULT=delay-ms) on every
// computed request.  One shard is therefore a fixed-rate server
// (~1000/delay_ms requests/sec); N healthy shards behind a working
// consistent-hash router approach N times that, even on a single-core
// host.
//
// Every response's digest is checked against the offline answer
// (server::handle_predict in-process) — throughput that returns wrong
// sweeps is not throughput.  Each flood client stamps its own
// client_id so the proxy's cross-tier single-flight cannot collapse
// distinct clients' requests and flatter the numbers.
//
//   build/bench/bench_cluster [--shards-list 1,2,4] [--clients 16]
//       [--traces 12] [--delay-ms 20] [--min-ms 1500] [--max-cpus 4]
//       [--out BENCH_cluster.json]
//
// The `bench`-labelled CTest target runs exactly this and
// tools/bench_gate enforces the scaling-efficiency floor
// (4-shard >= 3x single-shard) plus digest_ok.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cluster/launcher.hpp"
#include "cluster/proxy.hpp"
#include "cluster/ring.hpp"
#include "recorder/recorder.hpp"
#include "server/client.hpp"
#include "server/handlers.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/trace_cache.hpp"
#include "solaris/program.hpp"
#include "trace/binary.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"
#include "workloads/synthetic.hpp"

#ifndef VPPB_EXE
#error "bench_cluster requires the VPPB_EXE compile definition"
#endif

namespace {

using namespace vppb;
using Clock = std::chrono::steady_clock;

server::Request predict_request(const std::string& path, int max_cpus) {
  server::Request req;
  req.type = server::ReqType::kPredict;
  req.trace_path = path;
  req.max_cpus = max_cpus;
  return req;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define_string("shards-list", "1,2,4", "shard counts to sweep");
  flags.define_i64("clients", 16, "concurrent flood clients");
  flags.define_i64("traces", 16, "distinct trace contents to spread");
  flags.define_i64("delay-ms", 20, "injected per-request service time");
  flags.define_i64("min-ms", 1500, "measurement window per shard count");
  flags.define_i64("max-cpus", 4, "sweep bound of each predict");
  flags.define_string("out", "BENCH_cluster.json", "JSON output file");
  flags.parse(argc, argv);

  const int nclients = static_cast<int>(flags.i64("clients"));
  const int ntraces = static_cast<int>(flags.i64("traces"));
  const int max_cpus = static_cast<int>(flags.i64("max-cpus"));
  const std::int64_t delay_ms = flags.i64("delay-ms");

  std::vector<int> shard_counts;
  for (const auto part : split(flags.str("shards-list"), ','))
    shard_counts.push_back(std::atoi(std::string(part).c_str()));

  const std::string base =
      (std::filesystem::temp_directory_path() /
       ("vppb_bench_cluster_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(base);

  // Distinct trace contents, so consistent hashing has something to
  // spread, with the offline expected digest for each.
  //
  // The population is chosen *balanced* across every shard partition in
  // the sweep: with only a handful of discrete keys, raw hash variance
  // would let one shard own 5/12 of the traces and cap apparent 4-shard
  // scaling at 2.4x regardless of how well the routing tier works.  We
  // build the same Ring the proxy routes on (ids 1..N, default vnodes)
  // and keep generating candidate contents until each ring owns at most
  // ceil(traces/N) of them, so the floor measures the tier, not
  // small-sample luck.
  std::vector<std::string> trace_paths;
  std::vector<std::uint64_t> expected;
  {
    std::vector<std::pair<cluster::Ring, std::vector<int>>> rings;
    for (const int n : shard_counts) {
      if (n <= 1) continue;
      cluster::Ring ring(cluster::MembershipOptions().vnodes);
      for (int id = 1; id <= n; ++id)
        ring.add(static_cast<std::uint64_t>(id));
      rings.emplace_back(std::move(ring),
                         std::vector<int>(static_cast<std::size_t>(n) + 1, 0));
    }
    const int cap_per_shard_num = ntraces;  // cap = ceil(ntraces / n)
    server::TraceCache offline(static_cast<std::size_t>(ntraces) + 4,
                               512u << 20);
    for (int cand = 0; static_cast<int>(trace_paths.size()) < ntraces &&
                       cand < ntraces * 40;
         ++cand) {
      sol::Program program;
      const trace::Trace t = rec::record_program(program, [&]() {
        workloads::fork_join(2 + cand % 3, SimTime::micros(150 + 37 * cand));
      });
      const std::string path =
          base + "/t" + std::to_string(trace_paths.size()) + ".trace";
      trace::save_binary_file(t, path);
      const std::uint64_t key = server::content_key_of_file(path);
      bool fits = true;
      for (const auto& [ring, counts] : rings) {
        const int n = static_cast<int>(ring.shard_count());
        const int cap = (cap_per_shard_num + n - 1) / n;
        if (counts[static_cast<std::size_t>(ring.owner(key))] >= cap)
          fits = false;
      }
      if (!fits) {
        std::remove(path.c_str());
        continue;
      }
      for (auto& [ring, counts] : rings)
        ++counts[static_cast<std::size_t>(ring.owner(key))];
      trace_paths.push_back(path);
      const server::Response r =
          server::handle_predict(predict_request(path, max_cpus), offline);
      if (r.status != server::Status::kOk) {
        std::fprintf(stderr, "offline predict failed: %s\n", r.error.c_str());
        return 1;
      }
      expected.push_back(r.digest);
    }
    if (static_cast<int>(trace_paths.size()) < ntraces) {
      std::fprintf(stderr,
                   "bench_cluster: only %zu/%d balanced traces found; "
                   "proceeding with a smaller set\n",
                   trace_paths.size(), ntraces);
      if (trace_paths.empty()) return 1;
    }
  }
  const int live_traces = static_cast<int>(trace_paths.size());

  std::map<int, double> per_sec;
  std::map<int, std::uint64_t> totals;
  std::atomic<bool> digest_ok{true};

  for (const int nshards : shard_counts) {
    cluster::ClusterOptions copt;
    copt.exe = VPPB_EXE;
    copt.dir = base + "/c" + std::to_string(nshards);
    copt.shards = nshards;
    // One pool worker per shard: compute serializes through it, making
    // shard capacity uniform.
    copt.jobs = 1;
    copt.cache_entries = static_cast<std::size_t>(ntraces) + 4;
    copt.env.emplace_back("VPPB_FAULT",
                          "delay-ms:1:0:" + std::to_string(delay_ms));
    cluster::LocalCluster shards(copt);
    shards.start();

    cluster::ProxyOptions popt;
    popt.unix_path = copt.dir + "/proxy.sock";
    popt.shards = shards.shards();
    cluster::Proxy proxy(popt);
    proxy.start();

    // Warm-up: every trace parsed + compiled on its owning shard, and
    // a first digest check while we are at it.
    {
      server::Client warm = server::Client::connect_unix(popt.unix_path);
      for (int i = 0; i < live_traces; ++i) {
        const server::Response r =
            warm.call(predict_request(trace_paths[static_cast<std::size_t>(i)],
                                      max_cpus));
        if (r.status != server::Status::kOk) {
          std::fprintf(stderr, "warm-up via proxy failed: %s\n",
                       r.error.c_str());
          return 1;
        }
        if (r.digest != expected[static_cast<std::size_t>(i)])
          digest_ok.store(false);
      }
    }

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<bool> failed{false};
    std::vector<std::thread> clients;
    for (int c = 0; c < nclients; ++c) {
      clients.emplace_back([&, c]() {
        server::Client cli = server::Client::connect_unix(popt.unix_path);
        // Strided walk over the trace set — per-client odd strides keep
        // the closed-loop clients from convoying onto one shard in
        // lock-step; a per-client client_id keeps the proxy
        // single-flight from collapsing distinct clients' identical
        // requests into one forward.
        const int stride = (2 * c + 1) % live_traces == 0
                               ? 1
                               : (2 * c + 1) % live_traces;
        int i = c % live_traces;
        while (!stop.load(std::memory_order_relaxed)) {
          server::Request req = predict_request(
              trace_paths[static_cast<std::size_t>(i)], max_cpus);
          req.client_id = static_cast<std::uint64_t>(c + 1);
          const server::Response r = cli.call(req);
          if (r.status != server::Status::kOk) {
            std::fprintf(stderr, "flood request failed: %s\n",
                         r.error.c_str());
            failed.store(true);
            return;
          }
          if (r.digest != expected[static_cast<std::size_t>(i)])
            digest_ok.store(false);
          completed.fetch_add(1, std::memory_order_relaxed);
          i = (i + stride) % live_traces;
        }
      });
    }

    const Clock::time_point t0 = Clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(flags.i64("min-ms")));
    stop.store(true);
    for (auto& th : clients) th.join();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t0).count();
    proxy.stop();
    shards.stop();
    if (failed.load()) return 1;

    per_sec[nshards] = static_cast<double>(completed.load()) / elapsed;
    totals[nshards] = completed.load();
    std::printf("cluster: %d shard%s -> %.1f req/s (%llu in %.2f s)\n",
                nshards, nshards == 1 ? "" : "s", per_sec[nshards],
                static_cast<unsigned long long>(completed.load()), elapsed);
  }

  // Authenticated-TCP overhead: the protocol-v8 handshake costs one
  // HMAC exchange per *connection*; steady-state request throughput on
  // persistent loopback connections must stay within a few percent of
  // the unauthenticated path (bench_gate enforces >= 0.95x).  Health
  // requests keep the shard compute out of the measurement — this is a
  // wire-path benchmark, not an engine one.
  auto tcp_flood = [&](const std::string& key) -> double {
    server::ServerOptions so;
    so.tcp_port = 0;  // ephemeral loopback
    so.jobs = 2;
    so.auth_key = key;
    server::Server srv(so);
    srv.start();
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> completed{0};
    std::vector<std::thread> floods;
    for (int c = 0; c < 4; ++c) {
      floods.emplace_back([&]() {
        server::Client cli = server::Client::connect_tcp(
            "127.0.0.1", srv.tcp_port(), key, 2000);
        server::Request req;
        req.type = server::ReqType::kHealth;
        while (!stop.load(std::memory_order_relaxed)) {
          if (cli.call(req).status != server::Status::kOk) return;
          completed.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    const Clock::time_point t0 = Clock::now();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(flags.i64("min-ms")));
    stop.store(true);
    for (auto& th : floods) th.join();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t0).count();
    srv.stop();
    return static_cast<double>(completed.load()) / elapsed;
  };
  const double plain_tcp_per_sec = tcp_flood("");
  const double auth_tcp_per_sec = tcp_flood("bench-cluster-secret");
  std::printf("tcp: plain %.1f req/s, authenticated %.1f req/s (%.3fx)\n",
              plain_tcp_per_sec, auth_tcp_per_sec,
              plain_tcp_per_sec > 0 ? auth_tcp_per_sec / plain_tcp_per_sec
                                    : 0.0);

  std::ofstream out(flags.str("out"));
  out << "{\n"
      << "  \"clients\": " << nclients << ",\n"
      << "  \"traces\": " << live_traces << ",\n"
      << "  \"delay_ms\": " << delay_ms << ",\n"
      << "  \"max_cpus\": " << max_cpus << ",\n";
  for (const auto& [n, rate] : per_sec) {
    out << "  \"shards_" << n << "_per_sec\": " << rate << ",\n"
        << "  \"shards_" << n << "_requests\": " << totals[n] << ",\n";
  }
  if (per_sec.count(1) && per_sec.count(2) && per_sec[1] > 0)
    out << "  \"scaling_2x\": " << per_sec[2] / per_sec[1] << ",\n";
  if (per_sec.count(1) && per_sec.count(4) && per_sec[1] > 0)
    out << "  \"scaling_4x\": " << per_sec[4] / per_sec[1] << ",\n";
  out << "  \"plain_tcp_per_sec\": " << plain_tcp_per_sec << ",\n"
      << "  \"auth_tcp_per_sec\": " << auth_tcp_per_sec << ",\n";
  out << "  \"digest_ok\": " << (digest_ok.load() ? "true" : "false") << "\n"
      << "}\n";
  std::printf("wrote %s (digest_ok=%s)\n", flags.str("out").c_str(),
              digest_ok.load() ? "true" : "false");

  std::filesystem::remove_all(base);
  return digest_ok.load() ? 0 : 1;
}
