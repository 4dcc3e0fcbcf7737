// LocalCluster: fork/exec N vppbd shards as real child processes.
//
// Used by `vppb cluster` (the one-command local deployment), the
// shard-kill failover tests, and the scaling bench.  Shards are
// separate *processes*, not in-process Server instances, because that
// is the failure mode the cluster tier exists to survive: a SIGKILLed
// child takes its sockets, cache, and in-flight requests with it,
// exactly like a crashed production shard — something an in-process
// server shutdown (graceful drain) cannot simulate.
//
// fork is immediately followed by exec of the vppb binary ("serve"
// subcommand): forking without exec from a threaded parent (the tests,
// the proxy) would clone locked mutexes into the child.  Each shard
// listens on <dir>/shard<i>.sock with --shard-id i+1, and start()
// blocks until every shard answers a ready health probe (or the
// timeout expires — then it throws with the stragglers named).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <sys/types.h>
#include <utility>
#include <vector>

#include "cluster/membership.hpp"

namespace vppb::cluster {

struct ClusterOptions {
  /// Path to the vppb binary to exec ("/proc/self/exe" for the CLI,
  /// the VPPB_EXE compile definition for tests/bench).
  std::string exe;
  /// Directory for the shard sockets; created if missing.
  std::string dir;
  int shards = 2;
  /// Per-shard --jobs (0 = all hardware threads).
  int jobs = 0;
  /// Per-shard --cache-entries (0 = keep the serve default).
  std::size_t cache_entries = 0;
  /// Extra `vppb serve` arguments appended verbatim to every shard.
  std::vector<std::string> serve_args;
  /// Extra environment entries set in each child before exec (e.g.
  /// VPPB_FAULT for deterministic per-shard service-time injection).
  std::vector<std::pair<std::string, std::string>> env;

  /// Crash-loop governance for restart_shard: restarts inside the
  /// cool-off window (10x the backoff cap since the previous restart)
  /// count as a crash loop.  Each one waits a decorrelated-jitter
  /// backoff before re-forking, and past max_crash_restarts the
  /// restart refuses (throws) instead of flapping forever.
  int max_crash_restarts = 8;
  std::int64_t restart_backoff_base_ms = 50;
  std::int64_t restart_backoff_cap_ms = 2000;
  std::uint64_t backoff_seed = 1;  ///< jitter PRNG seed (deterministic)
};

class LocalCluster {
 public:
  explicit LocalCluster(ClusterOptions opt);
  ~LocalCluster();  ///< calls stop()

  LocalCluster(const LocalCluster&) = delete;
  LocalCluster& operator=(const LocalCluster&) = delete;

  /// Spawns every shard and waits for all of them to answer ready.
  /// Throws vppb::Error when one fails to come up in time.
  void start();

  /// SIGTERM + waitpid every live shard (graceful drain).  Idempotent.
  void stop();

  /// SIGKILL + waitpid shard `i` — the crash the failover layer exists
  /// for.  The shard's endpoint stays configured; restart_shard revives
  /// it.
  void kill_shard(std::size_t i);

  /// SIGSTOP shard `i`: the gray failure.  The process holds its
  /// sockets and accepts connects (kernel backlog) but never answers —
  /// only forward/probe timeouts can tell it from a healthy shard.
  void pause_shard(std::size_t i);
  void resume_shard(std::size_t i);  ///< SIGCONT

  /// Reaps (waitpid, WNOHANG) any shard that exited on its own — a
  /// crash, not a kill_shard — and returns their indices.  Without
  /// this a crashed child stays a zombie until stop().
  std::vector<std::size_t> reap_exited();

  /// Spawns shard `i` again on its original endpoint (fresh process,
  /// new epoch, cold cache) and waits for it to answer ready.  Reaps a
  /// zombie first if the shard crashed; a crash loop backs off with
  /// decorrelated jitter and throws past max_crash_restarts.
  void restart_shard(std::size_t i);

  const std::vector<ShardEndpoint>& shards() const { return endpoints_; }
  pid_t pid(std::size_t i) const { return procs_[i].pid; }
  bool alive(std::size_t i) const { return procs_[i].pid > 0; }
  int restarts(std::size_t i) const { return procs_[i].restarts; }

 private:
  struct ShardProc {
    pid_t pid = -1;  ///< -1 = not running
    bool paused = false;
    int restarts = 0;  ///< consecutive crash-loop restarts
    std::int64_t prev_backoff_ms = 0;
    std::chrono::steady_clock::time_point last_restart{};
  };

  pid_t spawn(std::size_t i);
  bool wait_ready(std::size_t i, std::int64_t timeout_ms) const;
  void reap(std::size_t i, int sig);

  ClusterOptions opt_;
  std::vector<ShardEndpoint> endpoints_;
  std::vector<ShardProc> procs_;
  std::uint64_t rng_ = 1;  ///< restart-backoff jitter state
};

}  // namespace vppb::cluster
