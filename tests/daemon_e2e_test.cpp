// End-to-end over real UDP loopback: a thinaird daemon on a background
// thread, clients in their own threads. Verifies (a) live clients derive
// byte-identical keys, (b) the live run reproduces the in-process
// reference bit-for-bit under the same hub seed (the hub's erasure draws
// are a pure function of seed, roster and frame order), and (c) concurrent
// sessions draw from independent streams.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "netd/client.h"
#include "netd/daemon.h"
#include "netd/hub.h"
#include "netd/node_session.h"

namespace thinair::netd {
namespace {

NodeConfig make_node(std::uint16_t id, std::uint16_t members,
                     std::uint64_t session) {
  NodeConfig c;
  c.session_id = session;
  c.node = id;
  c.members = members;
  c.x_packets_per_round = members > 2 ? 32 : 16;
  c.payload_bytes = 16;
  c.payload_seed = 1000 + id;
  return c;
}

// The in-process reference: the same NodeSessions pumped synchronously
// against a hub with the same config — no sockets, no threads. The hub's
// draw sequence depends only on (seed, roster, kData frame order), and
// rounds are lockstep, so this must equal the live run byte-for-byte.
// Node p sends from, and is reached at, hub address p.
std::vector<std::vector<std::uint8_t>> reference_secrets(
    const HubConfig& hc, const std::vector<NodeConfig>& configs) {
  SessionHub hub(hc);
  std::vector<std::unique_ptr<NodeSession>> nodes;
  for (const NodeConfig& c : configs)
    nodes.push_back(std::make_unique<NodeSession>(c));
  double now = 0.0;
  for (auto& n : nodes) n->start(now);
  std::vector<std::uint8_t> dgram;
  std::vector<Outgoing> out;
  for (int iter = 0; iter < 200000; ++iter) {
    bool any = false;
    for (std::size_t p = 0; p < nodes.size(); ++p) {
      while (nodes[p]->poll_datagram(dgram)) {
        any = true;
        out.clear();
        hub.on_datagram(dgram, p, now, out);
        for (const Outgoing& o : out)
          if (!nodes[o.to]->done()) nodes[o.to]->on_datagram(o.datagram, now);
      }
    }
    bool all_done = true;
    for (const auto& n : nodes) {
      EXPECT_FALSE(n->failed()) << n->error();
      all_done = all_done && n->done();
    }
    if (all_done) break;
    if (!any) {
      now += 0.02;
      for (auto& n : nodes) n->on_tick(now);
    }
  }
  std::vector<std::vector<std::uint8_t>> secrets;
  for (const auto& n : nodes) {
    EXPECT_TRUE(n->done()) << "reference run did not complete";
    secrets.push_back(n->secret());
  }
  return secrets;
}

// Daemon on a background thread for the duration of one test.
class DaemonThread {
 public:
  explicit DaemonThread(HubConfig hc) {
    DaemonConfig dc;
    dc.hub = std::move(hc);
    daemon_ = std::make_unique<Daemon>(dc);  // binds here; port() is valid
    thread_ = std::thread([this] { daemon_->run(); });
  }
  ~DaemonThread() { stop(); }
  // Stop the loop and wait for it: every datagram it read is handled.
  void stop() {
    daemon_->stop();
    if (thread_.joinable()) thread_.join();
  }
  [[nodiscard]] std::uint16_t port() const { return daemon_->port(); }
  [[nodiscard]] const Daemon& daemon() const { return *daemon_; }

 private:
  std::unique_ptr<Daemon> daemon_;
  std::thread thread_;
};

std::vector<ClientResult> run_clients(std::uint16_t port,
                                      const std::vector<NodeConfig>& configs) {
  std::vector<ClientResult> results(configs.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < configs.size(); ++i)
    threads.emplace_back([&, i] {
      ClientConfig cc;
      cc.port = port;
      cc.node = configs[i];
      results[i] = run_client(cc);
    });
  for (auto& t : threads) t.join();
  return results;
}

TEST(DaemonE2E, TwoClientsAgreeAndMatchReference) {
  HubConfig hc;
  hc.seed = 77;
  const std::uint64_t sid = 0xE2E2;
  const std::vector<NodeConfig> configs = {make_node(0, 2, sid),
                                           make_node(1, 2, sid)};

  DaemonThread daemon(hc);
  const auto results = run_clients(daemon.port(), configs);
  ASSERT_TRUE(results[0].ok) << results[0].error;
  ASSERT_TRUE(results[1].ok) << results[1].error;
  EXPECT_FALSE(results[0].secret.empty());
  EXPECT_EQ(results[0].secret, results[1].secret);
  EXPECT_EQ(results[0].rounds, 2u);

  const auto reference = reference_secrets(hc, configs);
  ASSERT_EQ(reference.size(), 2u);
  EXPECT_EQ(results[0].secret, reference[0])
      << "live daemon run diverged from the in-process simulation";
}

TEST(DaemonE2E, FourClientsAgreeAndMatchReference) {
  HubConfig hc;
  hc.seed = 1234;
  const std::uint64_t sid = 0xE2E4;
  std::vector<NodeConfig> configs;
  for (std::uint16_t id = 0; id < 4; ++id)
    configs.push_back(make_node(id, 4, sid));

  DaemonThread daemon(hc);
  const auto results = run_clients(daemon.port(), configs);
  for (std::size_t i = 0; i < results.size(); ++i)
    ASSERT_TRUE(results[i].ok) << "client " << i << ": " << results[i].error;
  EXPECT_FALSE(results[0].secret.empty());
  for (std::size_t i = 1; i < results.size(); ++i)
    EXPECT_EQ(results[0].secret, results[i].secret);

  const auto reference = reference_secrets(hc, configs);
  EXPECT_EQ(results[0].secret, reference[0]);
}

TEST(DaemonE2E, TwoConcurrentSessionsStayIsolated) {
  HubConfig hc;
  hc.seed = 5;
  DaemonThread daemon(hc);

  std::vector<NodeConfig> a = {make_node(0, 2, 100), make_node(1, 2, 100)};
  std::vector<NodeConfig> b = {make_node(0, 2, 200), make_node(1, 2, 200)};
  std::vector<ClientResult> ra, rb;
  std::thread ta([&] { ra = run_clients(daemon.port(), a); });
  std::thread tb([&] { rb = run_clients(daemon.port(), b); });
  ta.join();
  tb.join();

  ASSERT_TRUE(ra[0].ok && ra[1].ok && rb[0].ok && rb[1].ok);
  EXPECT_EQ(ra[0].secret, ra[1].secret);
  EXPECT_EQ(rb[0].secret, rb[1].secret);
  // Per-session Rng streams derive from (hub seed, session id): different
  // sessions must not share draws even with identical rosters and payloads.
  EXPECT_NE(ra[0].secret, rb[0].secret);
}

// The last kBye closes the session, and with it the hub's record of every
// member's address: the daemon keeps no table of its own.
TEST(DaemonE2E, ClosedSessionLeavesNoPeerEntries) {
  DaemonThread daemon(HubConfig{});
  std::vector<NodeConfig> configs;
  for (std::uint16_t id = 0; id < 3; ++id)
    configs.push_back(make_node(id, 3, 0xB00C));
  const auto results = run_clients(daemon.port(), configs);
  for (std::size_t i = 0; i < results.size(); ++i)
    ASSERT_TRUE(results[i].ok) << "client " << i << ": " << results[i].error;
  daemon.stop();
  EXPECT_FALSE(daemon.daemon().hub().has_session(0xB00C));
}

}  // namespace
}  // namespace thinair::netd
