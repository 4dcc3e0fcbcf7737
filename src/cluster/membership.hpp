// Shard membership for the vppb proxy: who is in the routing ring, and
// the prober that moves shards in and out of it.
//
// Every configured shard is in exactly one of two states:
//
//   up    — on the consistent-hash ring; the proxy routes to it.
//   down  — off the ring; a prober thread re-probes it with
//           decorrelated-jitter backoff until it answers again.
//
// Transitions:
//   up -> down    eject(): a forward hit a transport error (dead
//                 process, dropped connection, recv timeout).  The
//                 shard leaves the ring immediately — subsequent
//                 requests rehash to the ring successor — and the
//                 prober is woken to start probing it.
//   down -> up    the prober's `health` request (the admission-
//                 bypassing probe, so a saturated shard still proves
//                 liveness) comes back ready.  The shard rejoins the
//                 ring; its consistent-hash arc — and only that arc —
//                 moves back to it.
//
// Probes record the shard's reported epoch, so a restart (same id, new
// epoch — cold cache) is observable, and its last StatsBody, so
// cluster aggregation can still show a row for a down shard.
//
// Membership also owns the per-shard connection pools: forwards check
// a connection out, and return it only after a clean request/response
// exchange — a connection that saw a transport error is dropped, never
// pooled, because its framing state is unknown.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/ring.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"

namespace vppb::cluster {

/// One backend's address.  Unix path preferred when non-empty, TCP
/// otherwise — the same convention as ServerOptions.  `host` empty
/// means loopback; a non-loopback host is a *remote* shard (protocol
/// v8) and Membership refuses it without an auth key configured.
struct ShardEndpoint {
  std::uint64_t id = 0;  ///< routing identity; must be unique, nonzero
  std::string unix_path;
  std::string host;  ///< "" = loopback; else a numeric IPv4 address
  std::uint16_t tcp_port = 0;

  std::string display() const;
  bool loopback() const {
    return host.empty() || host == "127.0.0.1" || host == "localhost";
  }
  /// Parses "path.sock", ":port" / "port" (loopback), or
  /// "a.b.c.d:port" (numeric IPv4 — no DNS; a resolver stall is an
  /// unbounded wait this layer refuses to take).
  static ShardEndpoint parse(std::uint64_t id, const std::string& spec);
};

/// A point-in-time view of one shard, for aggregation and rendering.
struct ShardView {
  ShardEndpoint endpoint;
  bool healthy = false;
  std::uint64_t epoch = 0;        ///< from the last successful probe
  std::uint64_t ejections = 0;    ///< up->down transitions so far
  server::StatsBody last_stats;   ///< from the last probe / stats fanout
};

struct MembershipOptions {
  int vnodes = 64;
  /// Decorrelated-jitter re-probe backoff.
  std::int64_t probe_base_ms = 25;
  std::int64_t probe_cap_ms = 1000;
  std::uint64_t seed = 1;  ///< jitter PRNG seed (deterministic tests)

  // --- hostile-network hardening (protocol v8) ---
  /// Bound on every dial (pool refill, probe, forward).  A black-holed
  /// shard costs this much, never the kernel's SYN-retry minutes —
  /// probes used to stall here and wedge the whole prober thread.
  int dial_timeout_ms = 2000;
  /// Shared key for TCP shards; required for any non-loopback endpoint.
  std::string auth_key;
  /// Idle pooled connections per shard: at most `pool_cap` are kept,
  /// and one idle longer than `pool_idle_ms` is closed by the prober's
  /// sweep — long-lived proxies stop pinning shard fds forever.
  std::size_t pool_cap = 8;
  std::int64_t pool_idle_ms = 30000;
};

class Membership {
 public:
  Membership(std::vector<ShardEndpoint> shards, MembershipOptions opt);
  ~Membership();  ///< calls stop()

  Membership(const Membership&) = delete;
  Membership& operator=(const Membership&) = delete;

  /// Probes every shard once synchronously (populating the ring), then
  /// starts the re-probe thread.  Not an error if every shard is down
  /// at start — the prober keeps trying.
  void start();
  void stop();

  /// Up to `n` healthy shard indices in ring order for `key` (owner
  /// first, failover successors after).  Empty when every shard is
  /// down.
  std::vector<std::size_t> route(std::uint64_t key, std::size_t n) const;

  /// The shard id that owns `key` when every shard is healthy — the
  /// key's *primary*, regardless of who is in the live ring right now.
  /// The replica failover layer uses it to tell "routing to the
  /// primary" from "routing to a stand-in" (and only reorders
  /// stand-ins).  Computed on an immutable all-shards ring; no lock.
  std::uint64_t configured_owner(std::uint64_t key) const {
    return full_ring_.owner(key);
  }

  /// Marks shard `idx` down, removes it from the ring, and wakes the
  /// prober.  Idempotent while the shard stays down.
  void eject(std::size_t idx);

  /// One immediate probe of shard `idx` (also used internally by
  /// start() and the prober).  Returns true when the shard answered
  /// ready and is now up.
  bool probe(std::size_t idx);

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t up_count() const;
  const ShardEndpoint& endpoint(std::size_t idx) const {
    return shards_[idx].endpoint;
  }
  std::vector<ShardView> snapshot() const;

  /// Records the stats a cluster-wide fanout got from shard `idx`, so
  /// snapshot() stays fresh without waiting for the next probe.
  void note_stats(std::size_t idx, const server::StatsBody& s,
                  std::uint64_t epoch);

  /// Checks out a connection to shard `idx`: pooled if one is idle,
  /// freshly dialed otherwise (throws vppb::Error when the dial
  /// fails).  Return it with give_back() ONLY after a clean exchange.
  server::Client take_conn(std::size_t idx);
  void give_back(std::size_t idx, server::Client conn);

  /// Total idle pooled connections across all shards (tests observe
  /// the reaper through this).
  std::size_t pooled_count() const;

 private:
  /// An idle pooled connection and when it went idle (the reaper's
  /// clock).
  struct PooledConn {
    server::Client conn;
    std::chrono::steady_clock::time_point idle_since;
  };

  struct Shard {
    ShardEndpoint endpoint;
    bool healthy = false;
    std::uint64_t epoch = 0;
    std::uint64_t ejections = 0;
    server::StatsBody last_stats;
    /// Prober state: next probe due time and the previous backoff
    /// sleep (decorrelated jitter feeds on it).
    std::chrono::steady_clock::time_point next_probe{};
    std::int64_t prev_backoff_ms = 0;
    std::vector<PooledConn> pool;  ///< idle connections, newest at back
  };

  void probe_loop();
  /// Closes pooled connections idle past pool_idle_ms; returns the
  /// next reap deadline (or `fallback` when every pool is empty).
  /// Caller holds mu_.
  std::chrono::steady_clock::time_point reap_idle(
      std::chrono::steady_clock::time_point now,
      std::chrono::steady_clock::time_point fallback);
  server::Client dial(const ShardEndpoint& ep, int timeout_ms) const;

  const MembershipOptions opt_;
  std::vector<Shard> shards_;  ///< fixed size after construction

  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< wakes the prober (eject, stop)
  Ring live_ring_;
  Ring full_ring_;  ///< every configured shard; immutable after ctor
  std::uint64_t rng_;
  bool running_ = false;
  std::thread prober_;
};

}  // namespace vppb::cluster
