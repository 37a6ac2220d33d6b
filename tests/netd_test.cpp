// In-process exercise of the thinaird core: NodeSessions pumped against a
// SessionHub with no sockets involved. Covers multi-party key equality,
// cross-run determinism, keys pinned to a recorded digest, heavy loss,
// relay loss + kNack recovery, the eavesdropper attach, roster-size
// checks, idle expiry through the on_tick scan, and the hub counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "channel/rng.h"
#include "netd/hub.h"
#include "netd/node_session.h"
#include "netd/wire.h"
#include "util/sha256.h"

namespace thinair::netd {
namespace {

// Drives N NodeSessions against one hub on a shared fake clock. Datagrams
// flow synchronously; the optional drop hooks simulate UDP loss on either
// direction so the ARQ / kNack machinery actually has work to do.
class LoopHarness {
 public:
  explicit LoopHarness(HubConfig config) : hub(std::move(config)) {}

  void add_node(NodeConfig config) {
    index_of_[config.node] = nodes_.size();
    nodes_.push_back(std::make_unique<NodeSession>(config));
  }

  // Returns true when every node reached kDone before `deadline_s` of
  // virtual time elapsed.
  bool run(double deadline_s = 600.0, double dt = 0.02) {
    for (auto& n : nodes_) n->start(now_);
    while (now_ < deadline_s) {
      while (step()) {
      }
      if (all_done()) return true;
      for (const auto& n : nodes_)
        if (n->failed()) {
          ADD_FAILURE() << "node failed: " << n->error();
          return false;
        }
      now_ += dt;
      for (auto& n : nodes_) n->on_tick(now_);
      std::vector<Outgoing> out;
      hub.on_tick(now_, out);
      route(out);
    }
    return false;
  }

  [[nodiscard]] const NodeSession& node(std::size_t i) const {
    return *nodes_[i];
  }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  SessionHub hub;
  // Return true to drop. Called once per datagram in each direction.
  std::function<bool(const Outgoing&)> drop_to_client;
  std::function<bool(const std::vector<std::uint8_t>&)> drop_to_hub;

 private:
  bool step() {
    bool any = false;
    std::vector<std::uint8_t> dgram;
    std::vector<Outgoing> out;
    for (auto& n : nodes_) {
      while (n->poll_datagram(dgram)) {
        any = true;
        if (drop_to_hub && drop_to_hub(dgram)) continue;
        out.clear();
        hub.on_datagram(dgram, now_, out);
        route(out);
      }
    }
    return any;
  }

  void route(const std::vector<Outgoing>& out) {
    for (const Outgoing& o : out) {
      if (drop_to_client && drop_to_client(o)) continue;
      const auto it = index_of_.find(o.node);
      if (it != index_of_.end())
        nodes_[it->second]->on_datagram(o.datagram, now_);
    }
  }

  [[nodiscard]] bool all_done() const {
    for (const auto& n : nodes_)
      if (!n->done()) return false;
    return true;
  }

  std::vector<std::unique_ptr<NodeSession>> nodes_;
  std::map<std::uint16_t, std::size_t> index_of_;
  double now_ = 0.0;
};

NodeConfig make_node(std::uint16_t id, std::uint16_t members,
                     std::uint64_t session = 0xA11CE) {
  NodeConfig c;
  c.session_id = session;
  c.node = id;
  c.members = members;
  // Enough x-packets that the loo-fraction estimator leaves a nonzero
  // secret even with four terminals' reception classes to separate.
  c.x_packets_per_round = members > 2 ? 32 : 16;
  c.payload_bytes = 16;
  c.payload_seed = 1000 + id;
  return c;
}

std::vector<std::vector<std::uint8_t>> run_session(
    HubConfig hc, std::uint16_t members,
    LoopHarness** harness_out = nullptr) {
  static std::unique_ptr<LoopHarness> keep;  // outlive for stats queries
  keep = std::make_unique<LoopHarness>(std::move(hc));
  for (std::uint16_t id = 0; id < members; ++id)
    keep->add_node(make_node(id, members));
  EXPECT_TRUE(keep->run()) << "session did not complete";
  std::vector<std::vector<std::uint8_t>> secrets;
  for (std::size_t i = 0; i < keep->size(); ++i)
    secrets.push_back(keep->node(i).secret());
  if (harness_out != nullptr) *harness_out = keep.get();
  return secrets;
}

TEST(NetdLoop, TwoPartyKeysMatch) {
  const auto secrets = run_session(HubConfig{}, 2);
  ASSERT_EQ(secrets.size(), 2u);
  EXPECT_FALSE(secrets[0].empty());
  EXPECT_EQ(secrets[0], secrets[1]);
}

TEST(NetdLoop, FourPartyKeysMatch) {
  const auto secrets = run_session(HubConfig{}, 4);
  ASSERT_EQ(secrets.size(), 4u);
  EXPECT_FALSE(secrets[0].empty());
  for (std::size_t i = 1; i < secrets.size(); ++i)
    EXPECT_EQ(secrets[0], secrets[i]) << "node " << i << " disagrees";
}

TEST(NetdLoop, DeterministicAcrossRuns) {
  HubConfig hc;
  hc.seed = 42;
  const auto a = run_session(hc, 3);
  const auto b = run_session(hc, 3);
  EXPECT_EQ(a, b);

  HubConfig other = hc;
  other.seed = 43;
  const auto c = run_session(other, 3);
  EXPECT_NE(a[0], c[0]) << "different hub seeds must draw different erasures";
}

TEST(NetdLoop, SurvivesHeavyLoss) {
  HubConfig hc;
  hc.loss_p = 0.3;
  const auto secrets = run_session(hc, 3);
  EXPECT_FALSE(secrets[0].empty());
  EXPECT_EQ(secrets[0], secrets[1]);
  EXPECT_EQ(secrets[0], secrets[2]);
}

TEST(NetdLoop, RecoversFromDroppedRelays) {
  LoopHarness h{HubConfig{}};
  h.add_node(make_node(0, 2));
  h.add_node(make_node(1, 2));
  // Drop every 5th hub->client datagram: relays develop gaps (kNack
  // recovery) and acks vanish (ARQ retransmit must kick in).
  std::size_t counter = 0;
  h.drop_to_client = [&counter](const Outgoing&) {
    return ++counter % 5 == 0;
  };
  ASSERT_TRUE(h.run());
  EXPECT_EQ(h.node(0).secret(), h.node(1).secret());
  EXPECT_FALSE(h.node(0).secret().empty());
  EXPECT_GT(h.hub.stats().nack_retransmits.load(), 0u);
}

TEST(NetdLoop, RecoversFromDroppedClientFrames) {
  LoopHarness h{HubConfig{}};
  h.add_node(make_node(0, 2));
  h.add_node(make_node(1, 2));
  std::size_t counter = 0;
  h.drop_to_hub = [&counter](const std::vector<std::uint8_t>&) {
    return ++counter % 7 == 0;
  };
  ASSERT_TRUE(h.run());
  EXPECT_EQ(h.node(0).secret(), h.node(1).secret());
  EXPECT_FALSE(h.node(0).secret().empty());
}

TEST(NetdLoop, LossyDeliveryActuallyErases) {
  // With loss and several rounds, at least one kData frame must miss at
  // least one peer — otherwise the "lossy" channel is not lossy and the
  // scheme's secrecy premise is void. With two members, a kTxReport's
  // delivery mask is empty exactly when the one peer's draw erased it.
  HubConfig hc;
  hc.loss_p = 0.4;
  LoopHarness h{hc};
  h.add_node(make_node(0, 2));
  h.add_node(make_node(1, 2));
  std::size_t erased = 0;
  h.drop_to_client = [&erased](const Outgoing& o) {
    const DecodeResult d = decode(o.datagram);
    if (d.frame.has_value() &&
        d.frame->header.type ==
            static_cast<std::uint8_t>(FrameType::kTxReport) &&
        d.frame->header.aux == 0)
      ++erased;
    return false;
  };
  ASSERT_TRUE(h.run());
  EXPECT_GT(erased, 0u);
  EXPECT_GT(h.hub.stats().frames_relayed.load(), 0u);
}

TEST(NetdNode, RelayBeforeReadyIsBufferedNotFatal) {
  // A kRelay can reach a joining node before (or instead of) the single
  // kReady datagram — UDP reorders, and a forged datagram with a matching
  // session id is always possible. With the roster still empty this used
  // to divide by zero in alice_of(); it must buffer instead.
  NodeSession node(make_node(0, 2));
  node.start(0.0);
  Frame relay;
  relay.header.type = static_cast<std::uint8_t>(FrameType::kRelay);
  relay.header.session = 0xA11CE;
  relay.header.node = 1;
  relay.header.phase = static_cast<std::uint8_t>(WirePhase::kXData);
  relay.header.aux = 0;  // relay-stream seq
  relay.payload.assign(16, 0xAB);
  node.on_datagram(encode(relay), 0.1);
  EXPECT_FALSE(node.failed());
  EXPECT_EQ(node.state(), NodeSession::State::kJoining);
}

TEST(NetdLoop, SurvivesLostReady) {
  // kReady is sent exactly once per member; if it vanishes, the joining
  // node's periodic attach replay must pull a fresh copy out of the hub.
  LoopHarness h{HubConfig{}};
  h.add_node(make_node(0, 2));
  h.add_node(make_node(1, 2));
  std::size_t dropped = 0;
  h.drop_to_client = [&dropped](const Outgoing& o) {
    const DecodeResult d = decode(o.datagram);
    if (d.frame.has_value() &&
        static_cast<FrameType>(d.frame->header.type) == FrameType::kReady &&
        dropped < 2) {
      ++dropped;
      return true;  // both members' first kReady vanish
    }
    return false;
  };
  ASSERT_TRUE(h.run());
  EXPECT_EQ(dropped, 2u);
  EXPECT_EQ(h.node(0).secret(), h.node(1).secret());
  EXPECT_FALSE(h.node(0).secret().empty());
}

// Pins the hub's erasure draws across versions. Fixed-seed groups at four
// loss rates and roster sizes 2-5 run to completion; every member's key
// is hashed in run order. The digest is a recorded constant, not computed
// from the code under test: a hub change that moves any draw, reorders
// the draws or lets client retransmits draw again changes it. Every third
// group also drops a seeded 10% of hub->client datagrams so NACK recovery
// and the ack cache take part.
TEST(NetdLoop, KeysMatchRecordedDigest) {
  util::Sha256 digest;
  std::size_t keys = 0;
  for (const double loss : {0.1, 0.2, 0.4, 0.6})
    for (std::uint16_t members = 2; members <= 5; ++members)
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        HubConfig hc;
        hc.loss_p = loss;
        hc.seed = seed;
        LoopHarness h{hc};
        for (std::uint16_t id = 0; id < members; ++id)
          h.add_node(make_node(id, members));
        channel::Rng udp_loss(seed);
        if (seed == 3)
          h.drop_to_client = [&udp_loss](const Outgoing&) {
            return udp_loss.bernoulli(0.1);
          };
        ASSERT_TRUE(h.run()) << "loss " << loss << ", members " << members
                             << ", seed " << seed;
        for (std::size_t i = 0; i < h.size(); ++i) {
          EXPECT_EQ(h.node(i).secret(), h.node(0).secret());
          digest.update(h.node(i).secret());
          ++keys;
        }
      }
  EXPECT_EQ(keys, 168u);
  EXPECT_EQ(digest.hex(),
            "0bf4f5bae4aac580ba1a954f332bb2c3b090c14a1721ab11c1d9de4fd05ff786");
}

// An eavesdropper joins through a raw kAttach carrying kFlagEve: it fills
// a roster slot but is no terminal, hears every reliable broadcast and
// only the kData frames its own erasure draws let through.
TEST(NetdHub, EveAttachListensWithoutJoiningRoster) {
  HubConfig hc;
  hc.seed = 9;
  LoopHarness h{hc};
  h.add_node(make_node(0, 3));
  h.add_node(make_node(1, 3));

  Frame eve;
  eve.header.type = static_cast<std::uint8_t>(FrameType::kAttach);
  eve.header.flags = kFlagEve;
  eve.header.session = 0xA11CE;
  eve.header.node = 2;
  eve.header.aux = 3;
  std::vector<Outgoing> out;
  h.hub.on_datagram(encode(eve), 0.0, out);

  // (source node, phase, round, seq) of each distinct terminal broadcast.
  using Key = std::tuple<std::uint16_t, std::uint8_t, std::uint32_t,
                         std::uint32_t>;
  std::set<Key> data_sent, ctrl_sent, heard_by_eve;
  std::size_t eve_x_relays = 0;
  h.drop_to_hub = [&](const std::vector<std::uint8_t>& dgram) {
    const DecodeResult d = decode(dgram);
    if (d.frame.has_value()) {
      const FrameHeader& hd = d.frame->header;
      const Key key{hd.node, hd.phase, hd.round, hd.seq};
      if (hd.type == static_cast<std::uint8_t>(FrameType::kData))
        data_sent.insert(key);
      if (hd.type == static_cast<std::uint8_t>(FrameType::kCtrl))
        ctrl_sent.insert(key);
    }
    return false;
  };
  h.drop_to_client = [&](const Outgoing& o) {
    const DecodeResult d = decode(o.datagram);
    if (o.node == 2 && d.frame.has_value() &&
        d.frame->header.type == static_cast<std::uint8_t>(FrameType::kRelay)) {
      const FrameHeader& hd = d.frame->header;
      heard_by_eve.insert({hd.node, hd.phase, hd.round, hd.seq});
      if (hd.phase == static_cast<std::uint8_t>(WirePhase::kXData))
        ++eve_x_relays;
    }
    return false;
  };

  ASSERT_TRUE(h.run());
  EXPECT_FALSE(h.node(0).secret().empty());
  EXPECT_EQ(h.node(0).secret(), h.node(1).secret());
  EXPECT_EQ(h.node(0).roster(), (std::vector<std::uint16_t>{0, 1}));
  EXPECT_EQ(h.node(1).roster(), (std::vector<std::uint16_t>{0, 1}));
  ASSERT_FALSE(ctrl_sent.empty());
  for (const Key& key : ctrl_sent)
    EXPECT_TRUE(heard_by_eve.count(key) == 1) << "Eve missed a kCtrl relay";
  ASSERT_FALSE(data_sent.empty());
  EXPECT_GT(eve_x_relays, 0u);
  EXPECT_LT(eve_x_relays, data_sent.size());
}

TEST(NetdHub, NackPastRingRepliesError) {
  SessionHub hub(HubConfig{});
  std::vector<Outgoing> out;
  auto send = [&](const Frame& f) {
    out.clear();
    hub.on_datagram(encode(f), 0.0, out);
  };

  Frame attach;
  attach.header.type = static_cast<std::uint8_t>(FrameType::kAttach);
  attach.header.session = 5;
  attach.header.aux = 2;
  attach.header.node = 0;
  send(attach);
  attach.header.node = 1;
  send(attach);

  // 68 reliable broadcasts from node 0: node 1's relay ring (depth 64)
  // evicts relay seqs 0-3.
  for (std::uint32_t i = 0; i < 68; ++i) {
    Frame ctrl;
    ctrl.header.type = static_cast<std::uint8_t>(FrameType::kCtrl);
    ctrl.header.session = 5;
    ctrl.header.node = 0;
    ctrl.header.seq = i;
    send(ctrl);
  }

  // A NACK for an evicted seq must fail fast with kError, not silently
  // resend nothing and leave the member re-NACKing forever.
  Frame nack;
  nack.header.type = static_cast<std::uint8_t>(FrameType::kNack);
  nack.header.session = 5;
  nack.header.node = 1;
  nack.header.aux = 0;
  send(nack);
  bool saw_error = false;
  for (const Outgoing& o : out) {
    const DecodeResult d = decode(o.datagram);
    ASSERT_TRUE(d.frame.has_value());
    if (static_cast<FrameType>(d.frame->header.type) == FrameType::kError &&
        o.node == 1)
      saw_error = true;
  }
  EXPECT_TRUE(saw_error);

  // A NACK still inside the ring retransmits the tail as before.
  nack.header.aux = 66;
  send(nack);
  std::size_t relays = 0;
  for (const Outgoing& o : out) {
    const DecodeResult d = decode(o.datagram);
    if (d.frame.has_value() &&
        static_cast<FrameType>(d.frame->header.type) == FrameType::kRelay)
      ++relays;
  }
  EXPECT_EQ(relays, 2u) << "expected seqs 66 and 67 resent";
}

TEST(NetdHub, SessionExpiresWhenIdle) {
  HubConfig hc;
  hc.idle_timeout_s = 1.0;
  SessionHub hub(hc);

  Frame attach;
  attach.header.type = static_cast<std::uint8_t>(FrameType::kAttach);
  attach.header.session = 99;
  attach.header.node = 0;
  attach.header.aux = 2;  // expect a second member that never arrives
  std::vector<Outgoing> out;
  hub.on_datagram(encode(attach), 0.0, out);
  ASSERT_EQ(hub.session_count(), 1u);

  out.clear();
  hub.on_tick(0.5, out);
  EXPECT_EQ(hub.session_count(), 1u) << "expired before the timeout";

  out.clear();
  hub.on_tick(5.0, out);
  EXPECT_EQ(hub.session_count(), 0u);
  EXPECT_EQ(hub.stats().sessions_expired.load(), 1u);
  bool saw_expired = false;
  for (const Outgoing& o : out) {
    const DecodeResult d = decode(o.datagram);
    ASSERT_TRUE(d.frame.has_value());
    if (static_cast<FrameType>(d.frame->header.type) == FrameType::kExpired &&
        o.node == 0 && o.session == 99)
      saw_expired = true;
  }
  EXPECT_TRUE(saw_expired);
}

TEST(NetdHub, ActivityDefersExpiry) {
  HubConfig hc;
  hc.idle_timeout_s = 1.0;
  SessionHub hub(hc);

  Frame attach;
  attach.header.type = static_cast<std::uint8_t>(FrameType::kAttach);
  attach.header.session = 7;
  attach.header.node = 0;
  attach.header.aux = 2;
  std::vector<Outgoing> out;
  hub.on_datagram(encode(attach), 0.0, out);

  // Keep touching the session: re-attach (idempotent) every 0.6s. Each
  // touch pushes the idle deadline back, so no tick may expire it.
  for (int i = 1; i <= 5; ++i) {
    out.clear();
    hub.on_tick(0.6 * i, out);
    hub.on_datagram(encode(attach), 0.6 * i, out);
    ASSERT_EQ(hub.session_count(), 1u) << "expired at t=" << 0.6 * i;
  }
  out.clear();
  hub.on_tick(3.0 + hc.idle_timeout_s + 0.5, out);
  EXPECT_EQ(hub.session_count(), 0u);
}

TEST(NetdHub, CountsSessionsAndFrames) {
  LoopHarness* h = nullptr;
  (void)run_session(HubConfig{}, 2, &h);
  ASSERT_NE(h, nullptr);
  const HubStats& s = h->hub.stats();
  EXPECT_GT(s.datagrams_in.load(), 0u);
  EXPECT_GT(s.frames_relayed.load(), 0u);
  EXPECT_EQ(s.sessions_opened.load(), 1u);
  EXPECT_EQ(s.sessions_closed.load(), 1u);
  EXPECT_EQ(s.decode_errors.load(), 0u);
  EXPECT_EQ(h->hub.session_count(), 0u) << "kBye should close the session";
}

TEST(NetdHub, RejectsOutOfRangeConfig) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double p : {-0.1, 1.5, nan}) {
    HubConfig hc;
    hc.loss_p = p;
    EXPECT_THROW(SessionHub hub(hc), std::invalid_argument) << "loss " << p;
  }
  for (const double t : {0.0, -1.0, nan}) {
    HubConfig hc;
    hc.idle_timeout_s = t;
    EXPECT_THROW(SessionHub hub(hc), std::invalid_argument) << "timeout " << t;
  }
  HubConfig certain_loss;
  certain_loss.loss_p = 1.0;
  EXPECT_NO_THROW(SessionHub hub(certain_loss));
}

TEST(NetdHub, RejectsGarbageAndCountsIt) {
  SessionHub hub(HubConfig{});
  std::vector<Outgoing> out;
  const std::vector<std::uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF};
  hub.on_datagram(garbage, 0.0, out);
  EXPECT_EQ(hub.stats().decode_errors.load(), 1u);
  EXPECT_TRUE(out.empty());
}

// attach/bye churn: each cycle opens one session and its last kBye closes
// it, so the table is empty between cycles and the counters match.
TEST(NetdHub, AttachByeChurnClosesEverySession) {
  SessionHub hub(HubConfig{});
  std::vector<Outgoing> out;
  const auto control = [](FrameType t, std::uint64_t session,
                          std::uint16_t node, std::uint32_t aux) {
    Frame f;
    f.header.type = static_cast<std::uint8_t>(t);
    f.header.session = session;
    f.header.node = node;
    f.header.aux = aux;
    return encode(f);
  };

  constexpr std::size_t kCycles = 512;
  for (std::size_t i = 0; i < kCycles; ++i) {
    const std::uint64_t id = 1 + i;
    for (std::uint16_t node = 0; node < 2; ++node) {
      out.clear();
      hub.on_datagram(control(FrameType::kAttach, id, node, 2), 0.0, out);
    }
    ASSERT_EQ(hub.session_count(), 1u);
    for (std::uint16_t node = 0; node < 2; ++node) {
      out.clear();
      hub.on_datagram(control(FrameType::kBye, id, node, 0), 0.0, out);
    }
    ASSERT_EQ(hub.session_count(), 0u);
  }

  EXPECT_EQ(hub.stats().sessions_opened.load(), kCycles);
  EXPECT_EQ(hub.stats().sessions_closed.load(), kCycles);
}

// The declared roster size is range-checked at its full 32-bit width:
// 65538 must not pass as its low 16 bits, 2, and open a 2-member session.
TEST(NetdHub, AttachRejectsRosterSizePastSixteenBits) {
  SessionHub hub(HubConfig{});
  std::vector<Outgoing> out;
  Frame attach;
  attach.header.type = static_cast<std::uint8_t>(FrameType::kAttach);
  attach.header.session = 9;
  attach.header.aux = 65538;
  for (std::uint16_t node = 0; node < 2; ++node) {
    attach.header.node = node;
    out.clear();
    hub.on_datagram(encode(attach), 0.0, out);
    ASSERT_EQ(out.size(), 1u) << "node " << node;
    const DecodeResult d = decode(out[0].datagram);
    ASSERT_TRUE(d.frame.has_value());
    EXPECT_EQ(static_cast<FrameType>(d.frame->header.type), FrameType::kError)
        << "node " << node;
    EXPECT_EQ(std::string(d.frame->payload.begin(), d.frame->payload.end()),
              "attach: expected member count out of range");
  }
  EXPECT_FALSE(hub.has_session(9));
  EXPECT_EQ(hub.stats().sessions_opened.load(), 0u);
}

// Pumps two externally owned NodeSessions against a hub to completion and
// returns the (agreed) secret — the reuse test below runs the same pair
// twice through reset().
std::vector<std::uint8_t> pump_pair(SessionHub& hub, NodeSession& n0,
                                    NodeSession& n1) {
  NodeSession* nodes[2] = {&n0, &n1};
  double now = 0.0;
  std::vector<std::uint8_t> dgram;
  std::vector<Outgoing> out;
  const auto route = [&](const std::vector<Outgoing>& msgs) {
    for (const Outgoing& o : msgs)
      if (o.node < 2) nodes[o.node]->on_datagram(o.datagram, now);
  };
  n0.start(now);
  n1.start(now);
  while (now < 600.0) {
    bool any = true;
    while (any) {
      any = false;
      for (NodeSession* n : nodes)
        while (n->poll_datagram(dgram)) {
          any = true;
          out.clear();
          hub.on_datagram(dgram, now, out);
          route(out);
        }
    }
    if (n0.done() && n1.done()) break;
    for (NodeSession* n : nodes)
      if (n->failed()) {
        ADD_FAILURE() << "node failed: " << n->error();
        return {};
      }
    now += 0.02;
    for (NodeSession* n : nodes) n->on_tick(now);
    out.clear();
    hub.on_tick(now, out);
    route(out);
  }
  EXPECT_TRUE(n0.done() && n1.done()) << "session did not complete";
  EXPECT_EQ(n0.secret(), n1.secret());
  return n0.secret();
}

// The NodeSession reset contract: a reused terminal on a fresh hub at the
// same seed derives exactly the bytes its first (freshly constructed)
// lifecycle did.
TEST(NetdNode, ResetRestoresConstructionEquivalentState) {
  NodeSession a(make_node(0, 2));
  NodeSession b(make_node(1, 2));
  HubConfig hc;
  hc.seed = 77;

  SessionHub first_hub(hc);
  const std::vector<std::uint8_t> first = pump_pair(first_hub, a, b);
  EXPECT_FALSE(first.empty());

  a.reset(make_node(0, 2));
  b.reset(make_node(1, 2));
  EXPECT_TRUE(a.secret().empty()) << "reset kept the previous secret";
  SessionHub second_hub(hc);
  EXPECT_EQ(pump_pair(second_hub, a, b), first);
}

}  // namespace
}  // namespace thinair::netd
