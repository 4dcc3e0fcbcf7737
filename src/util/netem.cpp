#include "util/netem.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace vppb::util {
namespace {

std::int64_t parse_int(const std::string& s, const std::string& entry) {
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || s.empty())
    throw Error("netem: bad number '" + s + "' in entry '" + entry + "'");
  return static_cast<std::int64_t>(v);
}

constexpr std::size_t kChunk = 16384;
constexpr int kPumpPollMs = 50;  ///< how often idle pumps re-check rules

}  // namespace

NetemRelay::NetemRelay(NetemOptions opt) : opt_(std::move(opt)) {}

NetemRelay::~NetemRelay() { stop(); }

NetemRelay::Rules NetemRelay::parse(const std::string& spec) {
  Rules r;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    std::vector<std::string> parts;
    std::size_t p = 0;
    while (p <= entry.size()) {
      std::size_t colon = entry.find(':', p);
      if (colon == std::string::npos) colon = entry.size();
      parts.push_back(entry.substr(p, colon - p));
      p = colon + 1;
    }
    const std::string& site = parts[0];
    const auto arg = [&](std::size_t i) -> std::int64_t {
      if (i >= parts.size())
        throw Error("netem: entry '" + entry + "' is missing arguments");
      return parse_int(parts[i], entry);
    };
    if (site == "delay-ms") {
      r.delay_ms = static_cast<int>(arg(1));
    } else if (site == "drop") {
      r.drop_pct = static_cast<int>(arg(1));
      if (r.drop_pct < 0 || r.drop_pct > 100)
        throw Error("netem: drop percentage out of range in '" + entry + "'");
    } else if (site == "partition") {
      r.partition_start_ms = arg(1);
      r.partition_dur_ms = arg(2);
    } else if (site == "half-open") {
      r.half_open_period = static_cast<std::uint64_t>(arg(1));
      if (r.half_open_period == 0)
        throw Error("netem: half-open period must be > 0 in '" + entry + "'");
    } else if (site == "trickle") {
      r.trickle_bytes = static_cast<std::size_t>(arg(1));
      if (r.trickle_bytes == 0)
        throw Error("netem: trickle bytes must be > 0 in '" + entry + "'");
    } else {
      throw Error("netem: unknown site '" + site + "' (know delay-ms, drop, "
                  "partition, half-open, trickle)");
    }
  }
  return r;
}

void NetemRelay::start() {
  VPPB_CHECK_MSG(!running_.load(), "netem relay already started");
  rules_ = parse(opt_.schedule);
  rng_ = opt_.seed ? opt_.seed : 1;
  if (!opt_.listen_unix.empty()) {
    listener_ = listen_unix(opt_.listen_unix);
    endpoint_ = opt_.listen_unix;
  } else {
    port_ = opt_.listen_port;
    listener_ = listen_tcp(port_);
    endpoint_ = strprintf("127.0.0.1:%u", port_);
  }
  started_at_ = std::chrono::steady_clock::now();
  running_.store(true);
  accept_thread_ = std::thread(&NetemRelay::accept_loop, this);
}

void NetemRelay::stop() {
  if (!running_.exchange(false)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto& c : conns_) {
      c->client.shutdown_both();
      c->target.shutdown_both();
    }
  }
  // The accept thread is gone, so conns_ is stable from here.
  for (auto& c : conns_) {
    if (c->up.joinable()) c->up.join();
    if (c->down.joinable()) c->down.join();
  }
  conns_.clear();
  if (!opt_.listen_unix.empty()) ::unlink(opt_.listen_unix.c_str());
}

std::int64_t NetemRelay::elapsed_ms() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - started_at_)
      .count();
}

bool NetemRelay::partitioned() const {
  if (!running_.load() || rules_.partition_start_ms < 0) return false;
  const std::int64_t t = elapsed_ms();
  return t >= rules_.partition_start_ms &&
         t < rules_.partition_start_ms + rules_.partition_dur_ms;
}

void NetemRelay::accept_loop() {
  while (running_.load()) {
    Socket s = accept_with_timeout(listener_, 100);
    if (!s.valid()) continue;
    ++accepted_;
    connections_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_unique<Conn>();
    conn->client = std::move(s);
    conn->blackholed = partitioned();
    // Seeded per-connection plan, decided up front so the two pump
    // threads never touch the generator.
    if (rules_.drop_pct > 0 &&
        static_cast<int>(xorshift64s(rng_) % 100) < rules_.drop_pct) {
      conn->cut_after = static_cast<std::size_t>(xorshift64s(rng_) % 8192);
      conn->cut_closes = true;
    } else if (rules_.half_open_period > 0 &&
               accepted_ % rules_.half_open_period == 0) {
      conn->cut_after = static_cast<std::size_t>(xorshift64s(rng_) % 8192);
      conn->cut_closes = false;
    }
    try {
      conn->target =
          opt_.target_unix.empty()
              ? connect_tcp(opt_.target_host, opt_.target_port,
                            opt_.connect_timeout_ms)
              : connect_unix(opt_.target_unix, opt_.connect_timeout_ms);
    } catch (const Error&) {
      // Target down: the client sees exactly what it would see from a
      // dead shard — a closed connection.
      continue;
    }
    conn->client.set_recv_timeout(kPumpPollMs);
    conn->target.set_recv_timeout(kPumpPollMs);
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (!running_.load()) break;
    conns_.push_back(std::move(conn));
    Conn* cp = conns_.back().get();
    cp->up = std::thread(&NetemRelay::pump, this, cp, true);
    cp->down = std::thread(&NetemRelay::pump, this, cp, false);
  }
}

void NetemRelay::pump(Conn* conn, bool upstream) {
  Socket& src = upstream ? conn->client : conn->target;
  Socket& dst = upstream ? conn->target : conn->client;
  std::uint8_t buf[kChunk];
  const std::size_t cap =
      rules_.trickle_bytes > 0 ? std::min(rules_.trickle_bytes, kChunk)
                               : kChunk;
  const auto cut = [&]() {
    if (!conn->dead.exchange(true))
      cut_.fetch_add(1, std::memory_order_relaxed);
    conn->client.shutdown_both();
    conn->target.shutdown_both();
  };
  try {
    for (;;) {
      if (!running_.load()) return;
      const bool in_partition = partitioned();
      // A connection that predates the partition is cut when the window
      // opens; one born inside it is cut when the window closes (its
      // stream integrity is unknowable — frames vanished into the
      // black hole).
      if (in_partition && !conn->blackholed) return cut();
      if (!in_partition && conn->blackholed) return cut();
      std::size_t n;
      try {
        n = src.recv_some(buf, cap);
      } catch (const SocketTimeout&) {
        continue;  // idle tick: re-check partition / stop flags
      }
      if (n == 0) {
        // Clean end-of-stream: propagate the half-close downstream so
        // in-flight bytes in the other direction still drain.
        dst.shutdown_both();
        return;
      }
      if (conn->blackholed || conn->silent.load()) {
        blackholed_.fetch_add(n, std::memory_order_relaxed);
        continue;
      }
      const std::size_t total =
          conn->moved.fetch_add(n, std::memory_order_relaxed) + n;
      if (total >= conn->cut_after) {
        if (conn->cut_closes) return cut();
        // Half-open: stop forwarding in both directions, keep the
        // sockets up.  Only deadlines or keepalive can save the peers.
        conn->silent.store(true);
        if (!conn->dead.exchange(true))
          half_open_.fetch_add(1, std::memory_order_relaxed);
        blackholed_.fetch_add(n, std::memory_order_relaxed);
        continue;
      }
      if (rules_.delay_ms > 0)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(rules_.delay_ms));
      dst.send_all(buf, n);
      forwarded_.fetch_add(n, std::memory_order_relaxed);
      if (rules_.trickle_bytes > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  } catch (const Error&) {
    // Either side vanished: cut the pair and let the peers' own
    // resilience take it from here.
    cut();
  }
}

}  // namespace vppb::util
