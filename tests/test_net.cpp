// Hostile-network hardening tests (protocol v8): the HMAC-SHA256
// primitives, the challenge–response handshake (accept, reject, replay,
// truncation, downgrade refusal), bounded socket operations (connect
// deadlines, send timeouts, total-frame deadlines, partial writes under
// a tiny SO_SNDBUF), the idle-reap and frame-ceiling defenses of both
// tiers (vppbd and the proxy share one accept path), the membership
// pool's bound + idle reaper, and the netem relay's fault schedules.
// `ctest -L net` runs this suite; it is tsan-clean — every cross-thread
// handoff goes through sockets or joins.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "cluster/membership.hpp"
#include "cluster/proxy.hpp"
#include "server/auth.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "util/error.hpp"
#include "util/hmac.hpp"
#include "util/netem.hpp"
#include "util/socket.hpp"

namespace vppb::server {
namespace {

using util::NetemOptions;
using util::NetemRelay;
using util::Socket;
using util::SocketTimeout;

/// A fresh path under the system temp dir; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& tag) {
    static std::atomic<int> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("vppb_net_" + tag + "_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter.fetch_add(1))))
                .string();
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

StatsBody fetch_stats(Client& c) {
  Request req;
  req.type = ReqType::kStats;
  const Response r = c.call(req);
  EXPECT_EQ(r.status, Status::kOk) << r.error;
  return r.stats;
}

// ---- hash primitives -------------------------------------------------------

TEST(HmacTest, Sha256KnownVectors) {
  // FIPS 180-4 example vectors.
  const std::string abc = "abc";
  EXPECT_EQ(util::to_hex(util::sha256(abc.data(), abc.size())),
            "ba7816bf8f01cfea414140de5dae2223"
            "b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(util::to_hex(util::sha256("", 0)),
            "e3b0c44298fc1c149afbf4c8996fb924"
            "27ae41e4649b934ca495991b7852b855");
  // Two blocks (56 bytes crosses the padding boundary).
  const std::string two =
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  EXPECT_EQ(util::to_hex(util::sha256(two.data(), two.size())),
            "248d6a61d20638b8e5c026930c3e6039"
            "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(HmacTest, HmacSha256Rfc4231Vectors) {
  // RFC 4231 test case 2.
  const std::string key = "Jefe";
  const std::string msg = "what do ya want for nothing?";
  EXPECT_EQ(util::to_hex(util::hmac_sha256(key.data(), key.size(),
                                           msg.data(), msg.size())),
            "5bdcc146bf60754e6a042426089575c7"
            "5a003f089d2739839dec58b964ec3843");
  // Test case 6: a key longer than the 64-byte block is pre-hashed.
  const std::string long_key(131, 0xaa);
  const std::string msg6 = "Test Using Larger Than Block-Size Key - "
                           "Hash Key First";
  EXPECT_EQ(util::to_hex(util::hmac_sha256(long_key.data(), long_key.size(),
                                           msg6.data(), msg6.size())),
            "60e431591ee0b67f0d8a26aacbf5b77f"
            "8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, ConstantTimeEqual) {
  const std::uint8_t a[4] = {1, 2, 3, 4};
  const std::uint8_t b[4] = {1, 2, 3, 4};
  const std::uint8_t c[4] = {1, 2, 3, 5};
  EXPECT_TRUE(util::constant_time_equal(a, b, 4));
  EXPECT_FALSE(util::constant_time_equal(a, c, 4));
}

// ---- handshake message codecs ----------------------------------------------

TEST(AuthCodecTest, RoundTrip) {
  Challenge c;
  c.flags = kAuthFlagRequired;
  random_nonce(c.nonce);
  std::uint8_t cb[kChallengeBytes];
  encode_challenge(c, cb);
  const Challenge c2 = parse_challenge(cb, sizeof cb);
  EXPECT_EQ(c2.flags, c.flags);
  EXPECT_EQ(std::memcmp(c2.nonce, c.nonce, kAuthNonceBytes), 0);

  ClientProof p;
  random_nonce(p.nonce);
  client_mac("k", c.nonce, p.nonce, p.mac);
  std::uint8_t pb[kClientProofBytes];
  encode_client_proof(p, pb);
  const ClientProof p2 = parse_client_proof(pb, sizeof pb);
  EXPECT_EQ(std::memcmp(p2.mac, p.mac, kAuthMacBytes), 0);

  Verdict v;
  v.status = 1;
  server_mac("k", c.nonce, p.nonce, v.mac);
  std::uint8_t vb[kVerdictBytes];
  encode_verdict(v, vb);
  const Verdict v2 = parse_verdict(vb, sizeof vb);
  EXPECT_EQ(v2.status, 1);
  EXPECT_EQ(std::memcmp(v2.mac, v.mac, kAuthMacBytes), 0);
}

TEST(AuthCodecTest, EveryTruncationRejected) {
  Challenge c;
  random_nonce(c.nonce);
  std::uint8_t cb[kChallengeBytes];
  encode_challenge(c, cb);
  for (std::size_t n = 0; n < sizeof cb; ++n)
    EXPECT_THROW(parse_challenge(cb, n), AuthError) << n;

  ClientProof p;
  random_nonce(p.nonce);
  std::uint8_t pb[kClientProofBytes];
  encode_client_proof(p, pb);
  for (std::size_t n = 0; n < sizeof pb; ++n)
    EXPECT_THROW(parse_client_proof(pb, n), AuthError) << n;

  Verdict v;
  std::uint8_t vb[kVerdictBytes];
  encode_verdict(v, vb);
  for (std::size_t n = 0; n < sizeof vb; ++n)
    EXPECT_THROW(parse_verdict(vb, n), AuthError) << n;
}

TEST(AuthCodecTest, CorruptedFieldsRejected) {
  Challenge c;
  random_nonce(c.nonce);
  std::uint8_t cb[kChallengeBytes];
  encode_challenge(c, cb);
  {
    std::uint8_t bad[kChallengeBytes];
    std::memcpy(bad, cb, sizeof cb);
    bad[0] ^= 0xff;  // magic
    EXPECT_THROW(parse_challenge(bad, sizeof bad), AuthError);
  }
  {
    std::uint8_t bad[kChallengeBytes];
    std::memcpy(bad, cb, sizeof cb);
    bad[4] = 99;  // version
    EXPECT_THROW(parse_challenge(bad, sizeof bad), AuthError);
  }
  {
    std::uint8_t bad[kChallengeBytes];
    std::memcpy(bad, cb, sizeof cb);
    bad[6] = 1;  // reserved byte must be zero
    EXPECT_THROW(parse_challenge(bad, sizeof bad), AuthError);
  }
}

TEST(AuthCodecTest, MacRolesAreDistinct) {
  std::uint8_t sn[kAuthNonceBytes], cn[kAuthNonceBytes];
  random_nonce(sn);
  random_nonce(cn);
  std::uint8_t cm[kAuthMacBytes], sm[kAuthMacBytes];
  client_mac("key", sn, cn, cm);
  server_mac("key", sn, cn, sm);
  // A server that just echoes the client's MAC (reflection) must fail.
  EXPECT_NE(std::memcmp(cm, sm, kAuthMacBytes), 0);
}

// ---- the handshake over a socket pair --------------------------------------

TEST(HandshakeTest, MatchingKeysShakeHands) {
  auto pair = util::socket_pair();
  AuthConfig cfg;
  cfg.key = "shared-secret";
  cfg.handshake_timeout_ms = 2000;
  std::thread srv([&]() { auth_accept(pair.first, cfg); });
  EXPECT_NO_THROW(auth_connect(pair.second, cfg));
  srv.join();
}

TEST(HandshakeTest, WrongKeyRejected) {
  auto pair = util::socket_pair();
  AuthConfig scfg;
  scfg.key = "right";
  AuthConfig ccfg;
  ccfg.key = "wrong";
  std::thread srv([&]() { EXPECT_THROW(auth_accept(pair.first, scfg), AuthError); });
  EXPECT_THROW(auth_connect(pair.second, ccfg), AuthError);
  srv.join();
}

TEST(HandshakeTest, MissingClientKeyRejected) {
  auto pair = util::socket_pair();
  AuthConfig scfg;
  scfg.key = "right";
  AuthConfig ccfg;  // no key
  std::thread srv([&]() { EXPECT_THROW(auth_accept(pair.first, scfg), Error); });
  EXPECT_THROW(auth_connect(pair.second, ccfg), AuthError);
  srv.join();
}

TEST(HandshakeTest, ClientRefusesDowngrade) {
  // A server that does not require auth, against a client configured
  // with a key: the client must refuse rather than silently talk to a
  // possibly spoofed endpoint.
  auto pair = util::socket_pair();
  AuthConfig scfg;  // no key: optional auth
  AuthConfig ccfg;
  ccfg.key = "i-expected-auth";
  std::thread srv([&]() { EXPECT_NO_THROW(auth_accept(pair.first, scfg)); });
  EXPECT_THROW(auth_connect(pair.second, ccfg), AuthError);
  srv.join();
}

TEST(HandshakeTest, ReplayedProofFails) {
  AuthConfig cfg;
  cfg.key = "replay-key";
  std::vector<std::uint8_t> captured(kClientProofBytes);
  {
    // A legitimate exchange, with the client side played by hand so the
    // proof bytes can be captured.
    auto pair = util::socket_pair();
    std::thread srv([&]() { auth_accept(pair.first, cfg); });
    std::uint8_t cb[kChallengeBytes];
    ASSERT_EQ(pair.second.recv_exact(cb, sizeof cb), sizeof cb);
    const Challenge c = parse_challenge(cb, sizeof cb);
    ClientProof p;
    random_nonce(p.nonce);
    client_mac(cfg.key, c.nonce, p.nonce, p.mac);
    encode_client_proof(p, captured.data());
    pair.second.send_all(captured.data(), captured.size());
    std::uint8_t vb[kVerdictBytes];
    ASSERT_EQ(pair.second.recv_exact(vb, sizeof vb), sizeof vb);
    EXPECT_EQ(parse_verdict(vb, sizeof vb).status, 0);
    srv.join();
  }
  {
    // The same proof replayed on a fresh connection: the new challenge
    // nonce changes the expected MAC, so the replay is rejected.
    auto pair = util::socket_pair();
    std::thread srv(
        [&]() { EXPECT_THROW(auth_accept(pair.first, cfg), AuthError); });
    std::uint8_t cb[kChallengeBytes];
    ASSERT_EQ(pair.second.recv_exact(cb, sizeof cb), sizeof cb);
    pair.second.send_all(captured.data(), captured.size());
    std::uint8_t vb[kVerdictBytes];
    ASSERT_EQ(pair.second.recv_exact(vb, sizeof vb), sizeof vb);
    EXPECT_EQ(parse_verdict(vb, sizeof vb).status, 1);
    srv.join();
  }
}

TEST(HandshakeTest, TruncatedPreambleRejected) {
  auto pair = util::socket_pair();
  AuthConfig cfg;
  cfg.key = "k";
  cfg.handshake_timeout_ms = 2000;
  std::thread srv([&]() { EXPECT_THROW(auth_accept(pair.first, cfg), Error); });
  std::uint8_t cb[kChallengeBytes];
  ASSERT_EQ(pair.second.recv_exact(cb, sizeof cb), sizeof cb);
  const std::uint8_t junk[10] = {'V', 'P', 'A', '8', 8, 0, 0, 0, 1, 2};
  pair.second.send_all(junk, sizeof junk);
  pair.second.shutdown_both();
  srv.join();
}

// ---- bounded socket operations ---------------------------------------------

TEST(SocketHardeningTest, ConnectFailsInBoundedTime) {
  // A listener whose accept queue is full drops further SYNs, leaving
  // the next connect stuck in SYN_SENT — a lab-made black hole, unlike
  // TEST-NET-1 which NATed or sandboxed hosts sometimes answer for.
  // (With tcp_abort_on_overflow the kernel RSTs instead; that errors
  // immediately, which also satisfies the bound.)
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(lfd, 0), 0);  // minimal queue, never accepted
  socklen_t alen = sizeof addr;
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen), 0);
  const int port = ntohs(addr.sin_port);

  std::vector<Socket> fillers;
  bool timed_out = false;
  std::int64_t ms = 0;
  for (int i = 0; i < 16 && !timed_out; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    try {
      fillers.push_back(util::connect_tcp("127.0.0.1", port, 400));
    } catch (const Error&) {
      timed_out = true;
      ms = std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - t0)
               .count();
    }
  }
  ::close(lfd);
  ASSERT_TRUE(timed_out)
      << "a backlog-0 listener admitted 16 unaccepted connections";
  EXPECT_LT(ms, 5000) << "connect must fail in bounded time, not kernel "
                         "SYN-retry minutes";
}

TEST(SocketHardeningTest, SendAllSurvivesTinySndbuf) {
  // Partial-write regression: a tiny SO_SNDBUF forces send() to take
  // the payload in many short slices; send_all must deliver every byte
  // in order anyway.
  auto pair = util::socket_pair();
  const int tiny = 4096;
  ASSERT_EQ(::setsockopt(pair.first.fd(), SOL_SOCKET, SO_SNDBUF, &tiny,
                         sizeof tiny),
            0);
  std::vector<std::uint8_t> payload(1 << 20);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 1315423911u >> 17);
  std::vector<std::uint8_t> got(payload.size());
  std::thread reader([&]() {
    std::size_t off = 0;
    // Drain slowly on purpose: the writer must block and resume.
    while (off < got.size()) {
      const std::size_t n = pair.second.recv_some(
          got.data() + off, std::min<std::size_t>(8192, got.size() - off));
      ASSERT_GT(n, 0u);
      off += n;
      if (off % (64 * 8192) == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  pair.first.send_all(payload.data(), payload.size());
  reader.join();
  EXPECT_EQ(got, payload);
}

TEST(SocketHardeningTest, FramesSurviveTinyBuffersBothSides) {
  // The same regression at the protocol layer: a whole frame pushed
  // through 4 KiB socket buffers round-trips bit-identical.
  auto pair = util::socket_pair();
  const int tiny = 4096;
  ASSERT_EQ(::setsockopt(pair.first.fd(), SOL_SOCKET, SO_SNDBUF, &tiny,
                         sizeof tiny),
            0);
  ASSERT_EQ(::setsockopt(pair.second.fd(), SOL_SOCKET, SO_RCVBUF, &tiny,
                         sizeof tiny),
            0);
  std::vector<std::uint8_t> frame(3 * 1024 * 1024 + 17);
  std::iota(frame.begin(), frame.end(), std::uint8_t{0});
  std::thread writer([&]() { write_frame(pair.first, frame); });
  std::vector<std::uint8_t> got;
  ASSERT_TRUE(read_frame(pair.second, got));
  writer.join();
  EXPECT_EQ(got, frame);
}

TEST(SocketHardeningTest, SendTimeoutUnwedgesStalledPeer) {
  // A peer that accepts and never reads: once both the socket buffers
  // are full, send_all must throw SocketTimeout instead of blocking
  // forever.
  auto pair = util::socket_pair();
  pair.first.set_send_timeout(200);
  std::vector<std::uint8_t> payload(64 << 20, 0xab);
  EXPECT_THROW(pair.first.send_all(payload.data(), payload.size()),
               SocketTimeout);
}

TEST(SocketHardeningTest, WaitReadableNamesOnlyTheSocketsThatSpoke) {
  auto quiet = util::socket_pair();
  auto spoke = util::socket_pair();
  auto closed = util::socket_pair();
  const std::vector<int> fds{quiet.second.fd(), spoke.second.fd(),
                             closed.second.fd()};
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(util::wait_readable(fds, 50).empty());
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(45));
  const std::uint8_t b = 0x42;
  spoke.first.send_all(&b, 1);
  closed.first.close();  // end-of-stream is readable too
  EXPECT_EQ(util::wait_readable(fds, -1),
            (std::vector<std::size_t>{1, 2}));
}

TEST(SocketHardeningTest, RecvDeadlineDefeatsByteTrickle) {
  // One byte per 50 ms defeats any per-recv timer; the total deadline
  // still fires.
  auto pair = util::socket_pair();
  std::atomic<bool> stop{false};
  std::thread trickler([&]() {
    const std::uint8_t b = 0x42;
    for (int i = 0; i < 40 && !stop.load(); ++i) {
      try {
        pair.first.send_all(&b, 1);
      } catch (const Error&) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });
  std::uint8_t buf[100];
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(pair.second.recv_exact_deadline(buf, sizeof buf, 300),
               SocketTimeout);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_LT(ms, 2000);
  stop.store(true);
  pair.second.shutdown_both();
  trickler.join();
}

// ---- the accept-path defenses, on both tiers -------------------------------

/// One serving tier under test, listening on the options it was made
/// with: a vppbd, or a proxy over one in-process vppbd.
struct Tier {
  std::unique_ptr<TempFile> shard_sock;
  std::unique_ptr<Server> shard;
  std::unique_ptr<cluster::Proxy> proxy;

  std::uint16_t tcp_port() const {
    return proxy ? proxy->tcp_port() : shard->tcp_port();
  }
};

using TierFactory = Tier (*)(const ListenerOptions& lo, int jobs);

Tier make_vppbd(const ListenerOptions& lo, int jobs) {
  ServerOptions so;
  static_cast<ListenerOptions&>(so) = lo;
  so.jobs = jobs;
  Tier tier;
  tier.shard = std::make_unique<Server>(so);
  tier.shard->start();
  return tier;
}

Tier make_proxy(const ListenerOptions& lo, int jobs) {
  Tier tier;
  tier.shard_sock = std::make_unique<TempFile>("shard");
  ServerOptions so;
  so.unix_path = tier.shard_sock->path();
  so.jobs = jobs;
  so.shard_id = 1;
  tier.shard = std::make_unique<Server>(so);
  tier.shard->start();
  cluster::ProxyOptions po;
  static_cast<ListenerOptions&>(po) = lo;
  po.shards.push_back(cluster::ShardEndpoint::parse(1, so.unix_path));
  tier.proxy = std::make_unique<cluster::Proxy>(po);
  tier.proxy->start();
  return tier;
}

void tcp_end_to_end_with_key(TierFactory make) {
  ListenerOptions lo;
  lo.tcp_port = 0;
  lo.auth_key = "integration-key";
  Tier tier = make(lo, 2);

  Client good = Client::connect_tcp("", tier.tcp_port(),
                                    "integration-key", 2000);
  Request req;
  req.type = ReqType::kHealth;
  const Response r = good.call(req);
  ASSERT_EQ(r.status, Status::kOk) << r.error;
  EXPECT_TRUE(r.ready);

  // Wrong key: a typed AuthError before any frame is exchanged, and
  // the tier's stats count the rejection.
  EXPECT_THROW(
      Client::connect_tcp("", tier.tcp_port(), "not-the-key", 2000),
      AuthError);
  // Missing key: same typed rejection, client-side.
  EXPECT_THROW(Client::connect_tcp("", tier.tcp_port(), "", 2000),
               AuthError);

  const StatsBody stats = fetch_stats(good);
  EXPECT_GE(stats.auth_failures, 1u);
}

TEST(ServerAuthTest, TcpEndToEndWithKey) {
  tcp_end_to_end_with_key(make_vppbd);
}

TEST(ProxyAuthTest, TcpEndToEndWithKey) {
  tcp_end_to_end_with_key(make_proxy);
}

TEST(ServerAuthTest, AuthErrorIsNeverRetried) {
  ServerOptions so;
  so.tcp_port = 0;
  so.jobs = 1;
  so.auth_key = "retry-key";
  Server server(so);
  server.start();
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(
      Client::connect_tcp("", server.tcp_port(), "wrong", 2000), AuthError);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  // A definitive rejection must not burn a retry/backoff schedule.
  EXPECT_LT(ms, 1500);
  server.stop();
}

void slowloris_is_reaped(TierFactory make) {
  ListenerOptions lo;
  lo.tcp_port = 0;
  lo.auth_key = "reap-key";
  lo.idle_timeout_ms = 200;
  Tier tier = make(lo, 1);

  // An authenticated client that then goes silent: the connection must
  // not outlive the idle deadline.
  Client idler = Client::connect_tcp("", tier.tcp_port(), "reap-key", 2000);
  Request health;
  health.type = ReqType::kHealth;
  ASSERT_EQ(idler.call(health).status, Status::kOk);
  std::this_thread::sleep_for(std::chrono::milliseconds(700));

  Client fresh = Client::connect_tcp("", tier.tcp_port(), "reap-key", 2000);
  const StatsBody stats = fetch_stats(fresh);
  EXPECT_GE(stats.idle_reaps, 1u)
      << "the idle connection must have been reaped";
}

TEST(ServerAuthTest, SlowlorisIsReaped) { slowloris_is_reaped(make_vppbd); }

TEST(ProxyAuthTest, SlowlorisIsReaped) { slowloris_is_reaped(make_proxy); }

void oversized_frame_header_rejected(TierFactory make) {
  TempFile sock("oversized");
  ListenerOptions lo;
  lo.unix_path = sock.path();
  lo.max_request_frame_bytes = 1 << 20;
  Tier tier = make(lo, 1);

  // A hostile length prefix far above the configured ceiling: the
  // tier must drop the connection without allocating the claimed
  // buffer (the ceiling is checked before the body read).
  {
    Socket raw = util::connect_unix(sock.path());
    const std::uint32_t claimed = 48u << 20;
    std::uint8_t hdr[4] = {
        static_cast<std::uint8_t>(claimed & 0xff),
        static_cast<std::uint8_t>((claimed >> 8) & 0xff),
        static_cast<std::uint8_t>((claimed >> 16) & 0xff),
        static_cast<std::uint8_t>((claimed >> 24) & 0xff)};
    raw.send_all(hdr, sizeof hdr);
    std::uint8_t byte = 0;
    // The tier closes on us; EOF (0) or a reset both prove it.
    try {
      EXPECT_EQ(raw.recv_exact(&byte, 1), 0u);
    } catch (const Error&) {
    }
  }
  // The tier itself is unharmed.
  Client c = Client::connect_unix(sock.path());
  Request health;
  health.type = ReqType::kHealth;
  EXPECT_EQ(c.call(health).status, Status::kOk);
}

TEST(ServerHardeningTest, OversizedFrameHeaderRejected) {
  oversized_frame_header_rejected(make_vppbd);
}

TEST(ProxyHardeningTest, OversizedFrameHeaderRejected) {
  oversized_frame_header_rejected(make_proxy);
}

void frame_deadline_defeats_trickled_body(TierFactory make) {
  TempFile sock("trickle");
  ListenerOptions lo;
  lo.unix_path = sock.path();
  lo.frame_deadline_ms = 300;
  Tier tier = make(lo, 1);

  {
    Socket raw = util::connect_unix(sock.path());
    const std::uint32_t claimed = 1000;
    std::uint8_t hdr[4] = {
        static_cast<std::uint8_t>(claimed & 0xff),
        static_cast<std::uint8_t>((claimed >> 8) & 0xff), 0, 0};
    raw.send_all(hdr, sizeof hdr);
    // Trickle the body at one byte per 50 ms: the total frame deadline
    // must cut us off long before the 1000 bytes arrive.
    const std::uint8_t b = 0;
    try {
      for (int i = 0; i < 40; ++i) {
        raw.send_all(&b, 1);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      FAIL() << "tier kept reading a trickled frame past its deadline";
    } catch (const Error&) {
      // The tier dropped us: exactly the point.
    }
  }
  Client c = Client::connect_unix(sock.path());
  const StatsBody stats = fetch_stats(c);
  EXPECT_GE(stats.idle_reaps, 1u);
}

TEST(ServerHardeningTest, FrameDeadlineDefeatsTrickledBody) {
  frame_deadline_defeats_trickled_body(make_vppbd);
}

TEST(ProxyHardeningTest, FrameDeadlineDefeatsTrickledBody) {
  frame_deadline_defeats_trickled_body(make_proxy);
}

void huge_string_length_costs_only_that_frame(TierFactory make) {
  TempFile sock("hugestr");
  ListenerOptions lo;
  lo.unix_path = sock.path();
  Tier tier = make(lo, 1);

  {
    // A well-framed request whose path claims 2^64 - 2 bytes: it must
    // cost its sender a typed error, not take the tier down.
    Socket raw = util::connect_unix(sock.path());
    const std::uint8_t frame[] = {0x0c, 0x00, 0x00, 0x00, 0x09, 0x00,
                                  0xfe, 0xff, 0xff, 0xff, 0xff, 0xff,
                                  0xff, 0xff, 0xff, 0x01};
    raw.send_all(frame, sizeof frame);
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(read_frame(raw, payload));
    EXPECT_EQ(decode_response(payload).status, Status::kError);
  }
  Client c = Client::connect_unix(sock.path());
  Request health;
  health.type = ReqType::kHealth;
  EXPECT_EQ(c.call(health).status, Status::kOk);
}

TEST(ServerHardeningTest, HugeStringLengthCostsOnlyThatFrame) {
  huge_string_length_costs_only_that_frame(make_vppbd);
}

TEST(ProxyHardeningTest, HugeStringLengthCostsOnlyThatFrame) {
  huge_string_length_costs_only_that_frame(make_proxy);
}

// ---- membership pool bound + reaper ----------------------------------------

TEST(MembershipPoolTest, PoolIsBoundedAndReaped) {
  TempFile sock("pool");
  ServerOptions so;
  so.unix_path = sock.path();
  so.jobs = 1;
  so.shard_id = 1;
  Server server(so);
  server.start();

  cluster::MembershipOptions mopt;
  mopt.probe_cap_ms = 50;  // frequent prober wakeups -> prompt reaping
  mopt.pool_cap = 2;
  mopt.pool_idle_ms = 150;
  cluster::Membership m(
      {cluster::ShardEndpoint::parse(1, sock.path())}, mopt);
  m.start();
  ASSERT_EQ(m.up_count(), 1u);

  // Four concurrent checkouts force four dials; only pool_cap survive
  // the give-back.
  std::vector<Client> held;
  for (int i = 0; i < 4; ++i) held.push_back(m.take_conn(0));
  for (auto& c : held) m.give_back(0, std::move(c));
  held.clear();
  EXPECT_EQ(m.pooled_count(), 2u) << "give_back must respect pool_cap";

  // Idle past the window: the prober's sweep closes them.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (m.pooled_count() > 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  EXPECT_EQ(m.pooled_count(), 0u)
      << "idle pooled connections must be reaped";
  m.stop();
  server.stop();
}

// ---- the netem relay -------------------------------------------------------

TEST(NetemTest, ScheduleParserRejectsGarbage) {
  NetemOptions opt;
  opt.target_unix = "unused.sock";
  for (const char* bad :
       {"drop", "drop:101", "drop:-1", "half-open:0", "trickle:0",
        "warp-speed:9", "delay-ms:xyz"}) {
    NetemOptions o = opt;
    o.schedule = bad;
    NetemRelay r(std::move(o));
    EXPECT_THROW(r.start(), Error) << bad;
  }
}

TEST(NetemTest, TransparentRelayPassesFrames) {
  TempFile ssock("relay_srv");
  ServerOptions so;
  so.unix_path = ssock.path();
  so.jobs = 1;
  Server server(so);
  server.start();

  TempFile rsock("relay_lst");
  NetemOptions nopt;
  nopt.listen_unix = rsock.path();
  nopt.target_unix = ssock.path();
  NetemRelay relay(std::move(nopt));
  relay.start();

  Client c = Client::connect_unix(rsock.path());
  Request health;
  health.type = ReqType::kHealth;
  const Response r = c.call(health);
  EXPECT_EQ(r.status, Status::kOk) << r.error;
  EXPECT_GT(relay.forwarded_bytes(), 0u);
  relay.stop();
  server.stop();
}

TEST(NetemTest, DropScheduleCutsConnections) {
  TempFile ssock("drop_srv");
  ServerOptions so;
  so.unix_path = ssock.path();
  so.jobs = 1;
  Server server(so);
  server.start();

  TempFile rsock("drop_lst");
  NetemOptions nopt;
  nopt.listen_unix = rsock.path();
  nopt.target_unix = ssock.path();
  nopt.schedule = "drop:100";
  nopt.seed = 11;
  NetemRelay relay(std::move(nopt));
  relay.start();

  // The seeded cut fires after a random prefix of up to 8 KiB has
  // flowed; health round-trips are tiny, so keep hammering one
  // connection until the cumulative bytes cross the threshold.
  Request health;
  health.type = ReqType::kHealth;
  RetryPolicy once;
  once.max_attempts = 1;
  once.request_timeout_ms = 1000;
  int failures = 0;
  try {
    Client c = Client::connect_unix(rsock.path());
    for (int i = 0; i < 2000; ++i) (void)c.call_retry(health, once);
  } catch (const Error&) {
    ++failures;
  }
  EXPECT_GT(failures, 0) << "a 100% drop schedule must cut connections";
  EXPECT_GE(relay.cut_connections(), 1u);
  relay.stop();
  server.stop();
}

TEST(NetemTest, PartitionWindowOpensAndHeals) {
  TempFile ssock("part_srv");
  ServerOptions so;
  so.unix_path = ssock.path();
  so.jobs = 1;
  Server server(so);
  server.start();

  TempFile rsock("part_lst");
  NetemOptions nopt;
  nopt.listen_unix = rsock.path();
  nopt.target_unix = ssock.path();
  nopt.schedule = "partition:0:600";
  NetemRelay relay(std::move(nopt));
  relay.start();
  EXPECT_TRUE(relay.partitioned());

  Request health;
  health.type = ReqType::kHealth;
  // Inside the window: connections are black-holed — accepted, then
  // nothing — so a bounded client times out.
  RetryPolicy once;
  once.max_attempts = 1;
  once.request_timeout_ms = 300;
  EXPECT_THROW(
      {
        Client c = Client::connect_unix(rsock.path());
        (void)c.call_retry(health, once);
      },
      Error);
  EXPECT_GT(relay.blackholed_bytes(), 0u);

  // After the window closes, the path heals.
  while (relay.partitioned())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Client c = Client::connect_unix(rsock.path());
  const Response r = c.call(health);
  EXPECT_EQ(r.status, Status::kOk) << r.error;
  relay.stop();
  server.stop();
}

TEST(NetemTest, TrickleDelaysButDelivers) {
  TempFile ssock("trk_srv");
  ServerOptions so;
  so.unix_path = ssock.path();
  so.jobs = 1;
  Server server(so);
  server.start();

  TempFile rsock("trk_lst");
  NetemOptions nopt;
  nopt.listen_unix = rsock.path();
  nopt.target_unix = ssock.path();
  nopt.schedule = "trickle:16,delay-ms:1";
  NetemRelay relay(std::move(nopt));
  relay.start();

  Client c = Client::connect_unix(rsock.path());
  Request health;
  health.type = ReqType::kHealth;
  const Response r = c.call(health);
  EXPECT_EQ(r.status, Status::kOk) << r.error;
  relay.stop();
  server.stop();
}

}  // namespace
}  // namespace vppb::server
