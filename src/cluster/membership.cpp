#include "cluster/membership.hpp"

#include <algorithm>
#include <cctype>

#include "obs/log.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace vppb::cluster {
namespace {

/// The health probe's own dial and transport timeout.
constexpr int kProbeTimeoutMs = 2000;

}  // namespace

std::string ShardEndpoint::display() const {
  if (!unix_path.empty()) return unix_path;
  return strprintf("%s:%u", host.empty() ? "127.0.0.1" : host.c_str(),
                   static_cast<unsigned>(tcp_port));
}

ShardEndpoint ShardEndpoint::parse(std::uint64_t id,
                                   const std::string& spec) {
  ShardEndpoint ep;
  ep.id = id;
  if (spec.empty()) throw Error("empty shard endpoint");
  const auto colon = spec.rfind(':');
  std::string port_str;
  if (colon != std::string::npos) {
    const std::string host = spec.substr(0, colon);
    if (!host.empty() && host != "127.0.0.1" && host != "localhost") {
      // Remote shard: numeric IPv4 only.  A hostname would mean DNS,
      // and a resolver stall is an unbounded wait the dial path
      // refuses to take.
      const bool numeric = std::all_of(
          host.begin(), host.end(), [](unsigned char c) {
            return std::isdigit(c) || c == '.';
          });
      if (!numeric)
        throw Error("shard endpoint '" + spec + "': host must be a "
                    "numeric IPv4 address, 127.0.0.1/localhost, or a "
                    "unix socket path (no DNS)");
      ep.host = host;
    }
    port_str = spec.substr(colon + 1);
  } else if (std::all_of(spec.begin(), spec.end(),
                         [](unsigned char c) { return std::isdigit(c); })) {
    port_str = spec;
  }
  if (port_str.empty()) {
    ep.unix_path = spec;
    return ep;
  }
  std::int64_t port = 0;
  if (!parse_i64(port_str, port) || port <= 0 || port > 65535)
    throw Error("shard endpoint '" + spec + "': bad port");
  ep.tcp_port = static_cast<std::uint16_t>(port);
  return ep;
}

Membership::Membership(std::vector<ShardEndpoint> shards,
                       MembershipOptions opt)
    : opt_(opt), live_ring_(opt.vnodes), full_ring_(opt.vnodes),
      rng_(opt.seed ? opt.seed : 1) {
  shards_.reserve(shards.size());
  for (auto& ep : shards) {
    for (const Shard& existing : shards_) {
      if (existing.endpoint.id == ep.id)
        throw Error(strprintf("duplicate shard id %llu",
                              static_cast<unsigned long long>(ep.id)));
    }
    if (ep.id == 0) throw Error("shard id 0 is reserved for standalone");
    if (ep.unix_path.empty() && !ep.loopback() && opt_.auth_key.empty())
      throw Error("shard endpoint '" + ep.display() + "' is not "
                  "loopback: remote shards require an auth key "
                  "(--auth-key-file / VPPB_AUTH_KEY)");
    Shard s;
    s.endpoint = std::move(ep);
    full_ring_.add(s.endpoint.id);
    shards_.push_back(std::move(s));
  }
  if (shards_.empty()) throw Error("a cluster needs at least one shard");
}

Membership::~Membership() { stop(); }

void Membership::start() {
  for (std::size_t i = 0; i < shards_.size(); ++i) probe(i);
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  running_ = true;
  prober_ = std::thread([this] { probe_loop(); });
}

void Membership::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    running_ = false;
  }
  cv_.notify_all();
  if (prober_.joinable()) prober_.join();
}

server::Client Membership::dial(const ShardEndpoint& ep,
                                int timeout_ms) const {
  if (!ep.unix_path.empty())
    return server::Client::connect_unix(ep.unix_path, timeout_ms);
  return server::Client::connect_tcp(ep.host, ep.tcp_port, opt_.auth_key,
                                     timeout_ms);
}

bool Membership::probe(std::size_t idx) {
  const ShardEndpoint ep = shards_[idx].endpoint;
  server::Response resp;
  try {
    server::Client c = dial(ep, kProbeTimeoutMs);
    server::Request req;
    req.type = server::ReqType::kHealth;  // bypasses shard admission
    server::RetryPolicy once;
    once.max_attempts = 1;
    once.request_timeout_ms = kProbeTimeoutMs;
    resp = c.call_retry(req, once);
  } catch (const Error&) {
    std::lock_guard<std::mutex> lock(mu_);
    Shard& s = shards_[idx];
    if (s.healthy) {
      s.healthy = false;
      live_ring_.remove(s.endpoint.id);
    }
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  Shard& s = shards_[idx];
  const bool ready = resp.status == server::Status::kOk && resp.ready;
  if (ready) {
    if (!s.healthy) {
      s.healthy = true;
      s.prev_backoff_ms = 0;
      live_ring_.add(s.endpoint.id);
      obs::logf(obs::LogLevel::kInfo, "cluster",
                "shard %llu (%s) is up (epoch %016llx)",
                static_cast<unsigned long long>(s.endpoint.id),
                s.endpoint.display().c_str(),
                static_cast<unsigned long long>(resp.epoch));
    }
    s.epoch = resp.epoch;
    s.last_stats = resp.stats;
  } else if (s.healthy) {
    s.healthy = false;
    live_ring_.remove(s.endpoint.id);
  }
  return ready;
}

void Membership::probe_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (running_) {
    const auto now = std::chrono::steady_clock::now();
    auto next_due = now + std::chrono::milliseconds(opt_.probe_cap_ms);
    next_due = reap_idle(now, next_due);
    std::vector<std::size_t> due;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Shard& s = shards_[i];
      if (s.healthy) continue;
      if (s.next_probe <= now) {
        due.push_back(i);
        // Schedule the next attempt before probing: a probe that wins
        // resets the backoff anyway, and a crash between unlock and
        // re-lock cannot leave the shard due "now" in a hot loop.  The
        // jitter keeps a fleet of proxies from re-probing a rebooting
        // shard in synchronized waves.
        s.prev_backoff_ms = jitter_backoff_ms(
            s.prev_backoff_ms, opt_.probe_base_ms, opt_.probe_cap_ms, rng_);
        s.next_probe =
            now + std::chrono::milliseconds(s.prev_backoff_ms);
      }
      next_due = std::min(next_due, s.next_probe);
    }
    if (!due.empty()) {
      lock.unlock();
      for (std::size_t i : due) probe(i);
      lock.lock();
      continue;  // re-derive deadlines with fresh state
    }
    cv_.wait_until(lock, next_due);
  }
}

std::vector<std::size_t> Membership::route(std::uint64_t key,
                                           std::size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::size_t> out;
  if (live_ring_.empty()) return out;
  for (std::uint64_t id : live_ring_.owners(key, n)) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (shards_[i].endpoint.id == id) {
        out.push_back(i);
        break;
      }
    }
  }
  return out;
}

void Membership::eject(std::size_t idx) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    Shard& s = shards_[idx];
    if (s.healthy) {
      s.healthy = false;
      ++s.ejections;
      s.prev_backoff_ms = 0;
      s.next_probe = std::chrono::steady_clock::now();
      live_ring_.remove(s.endpoint.id);
      s.pool.clear();  // every pooled connection shares the dead peer
      obs::logf(obs::LogLevel::kWarn, "cluster",
                "shard %llu (%s) ejected; re-probing with backoff",
                static_cast<unsigned long long>(s.endpoint.id),
                s.endpoint.display().c_str());
    }
  }
  cv_.notify_all();
}

std::size_t Membership::up_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const Shard& s : shards_) n += s.healthy ? 1 : 0;
  return n;
}

std::vector<ShardView> Membership::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ShardView> out;
  out.reserve(shards_.size());
  for (const Shard& s : shards_) {
    ShardView v;
    v.endpoint = s.endpoint;
    v.healthy = s.healthy;
    v.epoch = s.epoch;
    v.ejections = s.ejections;
    v.last_stats = s.last_stats;
    out.push_back(std::move(v));
  }
  return out;
}

void Membership::note_stats(std::size_t idx, const server::StatsBody& s,
                            std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  shards_[idx].last_stats = s;
  if (epoch != 0) shards_[idx].epoch = epoch;
}

server::Client Membership::take_conn(std::size_t idx) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    Shard& s = shards_[idx];
    if (!s.pool.empty()) {
      // Newest first: the hot end of the stack stays warm while the
      // cold end ages toward the reaper.
      server::Client c = std::move(s.pool.back().conn);
      s.pool.pop_back();
      return c;
    }
  }
  return dial(shards_[idx].endpoint, opt_.dial_timeout_ms);
}

void Membership::give_back(std::size_t idx, server::Client conn) {
  std::lock_guard<std::mutex> lock(mu_);
  Shard& s = shards_[idx];
  // A connection to an ejected shard is stale by definition.
  if (s.healthy && s.pool.size() < opt_.pool_cap)
    s.pool.push_back(
        PooledConn{std::move(conn), std::chrono::steady_clock::now()});
}

std::size_t Membership::pooled_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const Shard& s : shards_) n += s.pool.size();
  return n;
}

std::chrono::steady_clock::time_point Membership::reap_idle(
    std::chrono::steady_clock::time_point now,
    std::chrono::steady_clock::time_point fallback) {
  if (opt_.pool_idle_ms <= 0) return fallback;
  const auto window = std::chrono::milliseconds(opt_.pool_idle_ms);
  auto next = fallback;
  for (Shard& s : shards_) {
    // Pools are stacks (take_conn pops the back), so the front is the
    // coldest entry — expired connections form a prefix.
    std::size_t expired = 0;
    while (expired < s.pool.size() &&
           s.pool[expired].idle_since + window <= now)
      ++expired;
    if (expired > 0)
      s.pool.erase(s.pool.begin(),
                   s.pool.begin() + static_cast<std::ptrdiff_t>(expired));
    if (!s.pool.empty())
      next = std::min(next, s.pool.front().idle_since + window);
  }
  return next;
}

}  // namespace vppb::cluster
