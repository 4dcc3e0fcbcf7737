#include "cluster/launcher.hpp"

#include <csignal>
#include <cstdlib>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "obs/log.hpp"
#include "server/client.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace vppb::cluster {

namespace {

/// How long start() and restart_shard wait for a shard to answer ready.
constexpr std::int64_t kReadyTimeoutMs = 15000;

}  // namespace

LocalCluster::LocalCluster(ClusterOptions opt) : opt_(std::move(opt)) {
  if (opt_.shards < 1) throw Error("a cluster needs at least one shard");
  if (opt_.exe.empty()) throw Error("LocalCluster needs the vppb binary path");
  rng_ = opt_.backoff_seed ? opt_.backoff_seed : 1;
  for (int i = 0; i < opt_.shards; ++i) {
    ShardEndpoint ep;
    ep.id = static_cast<std::uint64_t>(i) + 1;
    ep.unix_path = strprintf("%s/shard%d.sock", opt_.dir.c_str(), i);
    endpoints_.push_back(std::move(ep));
    procs_.emplace_back();
  }
}

LocalCluster::~LocalCluster() { stop(); }

pid_t LocalCluster::spawn(std::size_t i) {
  // argv is assembled before fork: the child must only touch
  // async-signal-safe territory between fork and exec (the parent may
  // be heavily threaded — tests, the proxy, the bench).
  std::vector<std::string> args = {
      opt_.exe,
      "serve",
      "--socket", endpoints_[i].unix_path,
      "--shard-id", strprintf("%llu", static_cast<unsigned long long>(
                                          endpoints_[i].id)),
      "--jobs", strprintf("%d", opt_.jobs),
  };
  if (opt_.cache_entries > 0) {
    args.push_back("--cache-entries");
    args.push_back(strprintf("%zu", opt_.cache_entries));
  }
  for (const std::string& a : opt_.serve_args) args.push_back(a);
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) throw Error("fork failed spawning shard");
  if (pid == 0) {
    for (const auto& [k, v] : opt_.env)
      ::setenv(k.c_str(), v.c_str(), 1);
    ::execv(opt_.exe.c_str(), argv.data());
    _exit(127);  // exec failed; the parent sees it as "never ready"
  }
  return pid;
}

bool LocalCluster::wait_ready(std::size_t i, std::int64_t timeout_ms) const {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    try {
      server::Client c =
          server::Client::connect_unix(endpoints_[i].unix_path);
      server::Request req;
      req.type = server::ReqType::kHealth;
      server::RetryPolicy once;
      once.max_attempts = 1;
      once.request_timeout_ms = 1000;
      const server::Response r = c.call_retry(req, once);
      if (r.status == server::Status::kOk && r.ready) return true;
    } catch (const Error&) {
      // Socket not bound yet (or mid-restart): poll again.
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

void LocalCluster::start() {
  if (!opt_.dir.empty()) ::mkdir(opt_.dir.c_str(), 0755);  // EEXIST is fine
  for (std::size_t i = 0; i < endpoints_.size(); ++i)
    procs_[i].pid = spawn(i);
  std::string stragglers;
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    if (!wait_ready(i, kReadyTimeoutMs))
      stragglers += ' ' + endpoints_[i].unix_path;
  }
  if (!stragglers.empty()) {
    stop();
    throw Error("cluster shards never became ready:" + stragglers);
  }
  obs::logf(obs::LogLevel::kInfo, "cluster", "%zu shard(s) up under %s",
            endpoints_.size(), opt_.dir.c_str());
}

void LocalCluster::reap(std::size_t i, int sig) {
  ShardProc& p = procs_[i];
  if (p.pid <= 0) return;
  // A stopped process cannot run its SIGTERM handler (the signal stays
  // pending forever) — wake it first so the blocking waitpid below
  // cannot hang on a paused shard.
  if (p.paused) {
    ::kill(p.pid, SIGCONT);
    p.paused = false;
  }
  ::kill(p.pid, sig);
  int status = 0;
  ::waitpid(p.pid, &status, 0);
  p.pid = -1;
}

void LocalCluster::stop() {
  for (std::size_t i = 0; i < procs_.size(); ++i) reap(i, SIGTERM);
}

void LocalCluster::kill_shard(std::size_t i) {
  reap(i, SIGKILL);
  obs::logf(obs::LogLevel::kWarn, "cluster", "killed shard %zu (%s)", i,
            endpoints_[i].unix_path.c_str());
}

void LocalCluster::pause_shard(std::size_t i) {
  ShardProc& p = procs_[i];
  if (p.pid <= 0 || p.paused) return;
  ::kill(p.pid, SIGSTOP);
  p.paused = true;
  obs::logf(obs::LogLevel::kWarn, "cluster", "paused shard %zu (%s)", i,
            endpoints_[i].unix_path.c_str());
}

void LocalCluster::resume_shard(std::size_t i) {
  ShardProc& p = procs_[i];
  if (p.pid <= 0 || !p.paused) return;
  ::kill(p.pid, SIGCONT);
  p.paused = false;
  obs::logf(obs::LogLevel::kInfo, "cluster", "resumed shard %zu (%s)", i,
            endpoints_[i].unix_path.c_str());
}

std::vector<std::size_t> LocalCluster::reap_exited() {
  std::vector<std::size_t> exited;
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    ShardProc& p = procs_[i];
    if (p.pid <= 0) continue;
    int status = 0;
    if (::waitpid(p.pid, &status, WNOHANG) == p.pid) {
      p.pid = -1;
      p.paused = false;
      exited.push_back(i);
      obs::logf(obs::LogLevel::kWarn, "cluster",
                "shard %zu (%s) exited on its own (status %d)", i,
                endpoints_[i].unix_path.c_str(), status);
    }
  }
  return exited;
}

void LocalCluster::restart_shard(std::size_t i) {
  ShardProc& p = procs_[i];
  if (p.pid > 0) {
    // The shard may already be a zombie (crashed, not yet reaped) —
    // collect it without signaling; otherwise drain it gracefully.
    int status = 0;
    if (::waitpid(p.pid, &status, WNOHANG) == p.pid) {
      p.pid = -1;
      p.paused = false;
    } else {
      reap(i, SIGTERM);
    }
  }

  // Crash-loop governance: restarts spaced further apart than the
  // cool-off window are routine operations and reset the streak; rapid
  // ones back off with decorrelated jitter and eventually refuse.
  const auto now = std::chrono::steady_clock::now();
  const auto cooloff =
      std::chrono::milliseconds(opt_.restart_backoff_cap_ms * 10);
  if (p.last_restart != std::chrono::steady_clock::time_point{} &&
      now - p.last_restart > cooloff) {
    p.restarts = 0;
    p.prev_backoff_ms = 0;
  }
  if (p.restarts >= opt_.max_crash_restarts)
    throw Error(strprintf(
        "shard %zu (%s) is crash-looping: %d restarts without a quiet "
        "period; refusing to restart again",
        i, endpoints_[i].unix_path.c_str(), p.restarts));
  if (p.restarts > 0) {
    p.prev_backoff_ms = jitter_backoff_ms(p.prev_backoff_ms,
                                          opt_.restart_backoff_base_ms,
                                          opt_.restart_backoff_cap_ms, rng_);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(p.prev_backoff_ms));
  }
  ++p.restarts;
  p.last_restart = now;

  p.pid = spawn(i);
  if (!wait_ready(i, kReadyTimeoutMs))
    throw Error("restarted shard never became ready: " +
                endpoints_[i].unix_path);
}

}  // namespace vppb::cluster
