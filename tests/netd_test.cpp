// In-process exercise of the thinaird core: NodeSessions pumped against a
// SessionHub with no sockets involved. Covers multi-party key equality,
// cross-run determinism, keys pinned to a recorded digest, heavy loss,
// relay loss + kNack recovery, the eavesdropper attach, roster-size
// checks, idle expiry through the on_tick scan, and the hub counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
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
// direction so the ARQ / kNack machinery actually has work to do, and the
// copy hooks repeat client datagrams, at once or stale.
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
  // Return true to deliver a second copy of a delivered client datagram:
  // a duplicate straight after it, or a held copy once its node's next
  // datagram has reached the hub (a stale retransmit overtaken by a newer
  // one).
  std::function<bool(const std::vector<std::uint8_t>&)> duplicate_to_hub;
  std::function<bool(const std::vector<std::uint8_t>&)> hold_to_hub;

 private:
  bool step() {
    bool any = false;
    std::vector<std::uint8_t> dgram;
    held_.resize(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      while (nodes_[i]->poll_datagram(dgram)) {
        any = true;
        if (drop_to_hub && drop_to_hub(dgram)) continue;
        to_hub(dgram);
        if (duplicate_to_hub && duplicate_to_hub(dgram)) to_hub(dgram);
        for (const auto& stale : std::exchange(held_[i], {})) to_hub(stale);
        if (hold_to_hub && hold_to_hub(dgram)) held_[i].push_back(dgram);
      }
    }
    return any;
  }

  void to_hub(const std::vector<std::uint8_t>& dgram) {
    std::vector<Outgoing> out;
    hub.on_datagram(dgram, now_, out);
    route(out);
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
  std::vector<std::vector<std::vector<std::uint8_t>>> held_;  // per node
  double now_ = 0.0;
};

// Whether a datagram holds a frame of `type`.
bool carries(const std::vector<std::uint8_t>& datagram, FrameType type) {
  const std::vector<Frame> frames = decode_all(datagram).frames;
  return std::any_of(frames.begin(), frames.end(), [type](const Frame& f) {
    return f.header.type == static_cast<std::uint8_t>(type);
  });
}

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
  // Drop every 5th relay-bearing hub->client datagram: relays develop gaps
  // (kNack recovery) and acks riding with them vanish (ARQ retransmit must
  // kick in).
  std::size_t counter = 0;
  h.drop_to_client = [&counter](const Outgoing& o) {
    return carries(o.datagram, FrameType::kRelay) && ++counter % 5 == 0;
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

// docs/daemon.md: the hub's draws are a pure function of the kData frame
// order, and retransmits are draw-neutral. So copies of client datagrams,
// repeated at once or arriving after a newer datagram, must leave every
// key and the relay count exactly as in the fault-free run.
TEST(NetdLoop, StaleAndDuplicateClientDatagramsDrawNothing) {
  struct Outcome {
    std::vector<std::vector<std::uint8_t>> keys;
    std::uint64_t relayed = 0;
  };
  const auto run = [](const std::function<void(LoopHarness&)>& faults) {
    HubConfig hc;
    hc.loss_p = 0.3;
    hc.seed = 11;
    LoopHarness h{hc};
    for (std::uint16_t id = 0; id < 3; ++id) h.add_node(make_node(id, 3));
    faults(h);
    EXPECT_TRUE(h.run());
    Outcome o;
    for (std::size_t i = 0; i < h.size(); ++i)
      o.keys.push_back(h.node(i).secret());
    o.relayed = h.hub.stats().frames_relayed.load();
    return o;
  };
  const Outcome clean = run([](LoopHarness&) {});
  ASSERT_FALSE(clean.keys[0].empty());
  const auto expect_clean = [&clean](const Outcome& o, const char* faults) {
    EXPECT_EQ(o.keys, clean.keys) << faults;
    EXPECT_EQ(o.relayed, clean.relayed) << faults;
  };

  // The case to try first: Alice's first x-packets arrive again after her
  // next datagram. Once, this drew and relayed them a second time.
  bool held = false;
  expect_clean(run([&held](LoopHarness& h) {
                 h.hold_to_hub = [&held](const std::vector<std::uint8_t>& d) {
                   if (held || !carries(d, FrameType::kData)) return false;
                   return held = true;
                 };
               }),
               "the first kData datagram arriving again, stale");
  EXPECT_TRUE(held);

  const auto always = [](const std::vector<std::uint8_t>&) { return true; };
  expect_clean(run([&](LoopHarness& h) { h.hold_to_hub = always; }),
               "every client datagram arriving again, stale");
  expect_clean(run([&](LoopHarness& h) { h.duplicate_to_hub = always; }),
               "every client datagram duplicated");
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
    for (const Frame& f : decode_all(o.datagram).frames)
      if (f.header.type == static_cast<std::uint8_t>(FrameType::kTxReport) &&
          f.header.aux == 0)
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

// Takes `node` of a two-member session (ids 0 and 1) through attach and
// roster, as the hub would, into round 0, whose Alice is node 0.
void join_two_member_session(NodeSession& node) {
  node.start(0.0);
  Frame ok;
  ok.header.type = static_cast<std::uint8_t>(FrameType::kAttachOk);
  ok.header.session = 0xA11CE;
  node.on_datagram(encode(ok), 0.0);
  Frame ready;
  ready.header.type = static_cast<std::uint8_t>(FrameType::kReady);
  ready.header.session = 0xA11CE;
  ready.payload = {2, 0, 0, 0, 0, 1, 0, 0};  // u16 count, (u16 id, u8 flags)
  node.on_datagram(encode(ready), 0.0);
}

// The `seq`-th relay of a round-0 control frame sent by node `from`.
std::vector<std::uint8_t> ctrl_relay(std::uint16_t from, WirePhase phase,
                                     std::uint32_t seq,
                                     std::vector<std::uint8_t> payload) {
  Frame relay;
  relay.header.type = static_cast<std::uint8_t>(FrameType::kRelay);
  relay.header.session = 0xA11CE;
  relay.header.node = from;
  relay.header.phase = static_cast<std::uint8_t>(phase);
  relay.header.aux = seq;
  relay.payload = std::move(payload);
  return encode(relay);
}

TEST(NetdNode, HostileControlPayloadsFailTheSessionNotTheProcess) {
  // Reports Alice decodes before she checks their universe: 2^32 - 1
  // once wrapped the bitmap size to 0 and read past it; 2^32 - 16 once
  // reserved 512 MiB for a 5-byte payload.
  for (const std::vector<std::uint8_t>& report :
       {std::vector<std::uint8_t>{0xFF, 0xFF, 0xFF, 0xFF},
        std::vector<std::uint8_t>{0xF0, 0xFF, 0xFF, 0xFF, 0x00}}) {
    NodeSession alice(make_node(0, 2));
    join_two_member_session(alice);
    ASSERT_EQ(alice.state(), NodeSession::State::kRunning);
    EXPECT_NO_THROW(
        alice.on_datagram(ctrl_relay(1, WirePhase::kReport, 0, report), 0.1));
    EXPECT_TRUE(alice.failed());
    EXPECT_FALSE(alice.error().empty());
  }

  // A y-announcement of 256 combinations has no phase-2 plan over
  // GF(2^8); the s-announcement that follows once threw out of
  // on_datagram.
  NodeSession bob(make_node(1, 2));
  join_two_member_session(bob);
  ASSERT_EQ(bob.state(), NodeSession::State::kRunning);
  std::vector<std::uint8_t> y_ann = {0x00, 0x01};  // 256 empty combinations
  y_ann.resize(2 + 256 * 2, 0);
  const std::vector<std::uint8_t> s_ann = {0x01, 0x00, 0x00, 0x00};
  EXPECT_NO_THROW({
    bob.on_datagram(ctrl_relay(0, WirePhase::kEndOfX, 0, {16, 0, 0, 0}), 0.1);
    bob.on_datagram(ctrl_relay(0, WirePhase::kYAnnouncement, 1, y_ann), 0.1);
    bob.on_datagram(ctrl_relay(0, WirePhase::kSAnnouncement, 2, s_ann), 0.1);
  });
  EXPECT_TRUE(bob.failed());
  EXPECT_NE(bob.error().find("pool too large"), std::string::npos)
      << bob.error();
}

TEST(NetdLoop, SurvivesLostReady) {
  // kReady is sent exactly once per member; if it vanishes, the joining
  // node's periodic attach replay must pull a fresh copy out of the hub.
  LoopHarness h{HubConfig{}};
  h.add_node(make_node(0, 2));
  h.add_node(make_node(1, 2));
  std::size_t dropped = 0;
  h.drop_to_client = [&dropped](const Outgoing& o) {
    if (carries(o.datagram, FrameType::kReady) && dropped < 2) {
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
    for (const Frame& f : decode_all(dgram).frames) {
      const FrameHeader& hd = f.header;
      const Key key{hd.node, hd.phase, hd.round, hd.seq};
      if (hd.type == static_cast<std::uint8_t>(FrameType::kData))
        data_sent.insert(key);
      if (hd.type == static_cast<std::uint8_t>(FrameType::kCtrl))
        ctrl_sent.insert(key);
    }
    return false;
  };
  h.drop_to_client = [&](const Outgoing& o) {
    if (o.node != 2) return false;
    for (const Frame& f : decode_all(o.datagram).frames) {
      const FrameHeader& hd = f.header;
      if (hd.type != static_cast<std::uint8_t>(FrameType::kRelay)) continue;
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

  // 68 reliable broadcasts from node 0, at stream seqs 0-67: node 1's
  // relay ring (depth 64) evicts relay seqs 0-3.
  for (std::uint32_t i = 0; i < 68; ++i) {
    Frame ctrl;
    ctrl.header.type = static_cast<std::uint8_t>(FrameType::kCtrl);
    ctrl.header.session = 5;
    ctrl.header.node = 0;
    ctrl.header.seq = i;
    ctrl.header.aux = i;
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
    const DecodeAllResult d = decode_all(o.datagram);
    ASSERT_FALSE(d.frames.empty());
    for (const Frame& f : d.frames)
      if (static_cast<FrameType>(f.header.type) == FrameType::kError &&
          o.node == 1)
        saw_error = true;
  }
  EXPECT_TRUE(saw_error);

  // A NACK still inside the ring retransmits the tail as before.
  nack.header.aux = 66;
  send(nack);
  std::size_t relays = 0;
  for (const Outgoing& o : out)
    for (const Frame& f : decode_all(o.datagram).frames)
      if (static_cast<FrameType>(f.header.type) == FrameType::kRelay)
        ++relays;
  EXPECT_EQ(relays, 2u) << "expected seqs 66 and 67 resent";
}

// The replies to one datagram are coalesced per destination; a lone
// attach is still answered by a one-frame kAttachOk datagram.
TEST(NetdHub, RepliesCoalescePerDestination) {
  SessionHub hub(HubConfig{});
  std::vector<Outgoing> out;
  const auto frame_types = [](const Outgoing& o) {
    std::vector<FrameType> types;
    for (const Frame& f : decode_all(o.datagram).frames)
      types.push_back(static_cast<FrameType>(f.header.type));
    return types;
  };

  Frame attach;
  attach.header.type = static_cast<std::uint8_t>(FrameType::kAttach);
  attach.header.session = 5;
  attach.header.aux = 2;
  hub.on_datagram(encode(attach), 0.0, out);
  ASSERT_EQ(out.size(), 1u);
  const DecodeResult ok = decode(out[0].datagram);
  ASSERT_TRUE(ok.frame.has_value());
  EXPECT_EQ(static_cast<FrameType>(ok.frame->header.type),
            FrameType::kAttachOk);

  out.clear();
  attach.header.node = 1;
  hub.on_datagram(encode(attach), 0.0, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].node, 1);
  EXPECT_EQ(frame_types(out[0]),
            (std::vector<FrameType>{FrameType::kAttachOk, FrameType::kReady}));
  EXPECT_EQ(out[1].node, 0);
  EXPECT_EQ(frame_types(out[1]), std::vector<FrameType>{FrameType::kReady});

  // Three reliable broadcasts in one datagram: one datagram of three acks
  // back to the sender, one of three relays to the peer.
  std::vector<std::uint8_t> burst;
  for (std::uint32_t i = 0; i < 3; ++i) {
    Frame ctrl;
    ctrl.header.type = static_cast<std::uint8_t>(FrameType::kCtrl);
    ctrl.header.session = 5;
    ctrl.header.seq = i;
    ctrl.header.aux = i;
    ctrl.payload.assign(10, static_cast<std::uint8_t>(i));
    encode_into(ctrl, burst);
  }
  out.clear();
  hub.on_datagram(burst, 0.0, out);
  ASSERT_EQ(out.size(), 2u);
  const auto [to_peer, to_sender] =
      out[0].node == 1 ? std::pair{out[0], out[1]} : std::pair{out[1], out[0]};
  EXPECT_EQ(frame_types(to_sender), std::vector<FrameType>(
                                        3, FrameType::kCtrlAck));
  EXPECT_EQ(frame_types(to_peer), std::vector<FrameType>(3, FrameType::kRelay));
  EXPECT_EQ(hub.stats().frames_relayed.load(), 3u);
}

// One datagram, one sender: a datagram whose frames name two (session,
// node) pairs is one decode error, and none of its frames acts.
TEST(NetdHub, MixedSenderDatagramIsOneDecodeError) {
  SessionHub hub(HubConfig{});
  std::vector<Outgoing> out;
  Frame attach;
  attach.header.type = static_cast<std::uint8_t>(FrameType::kAttach);
  attach.header.session = 5;
  attach.header.aux = 2;
  for (std::uint16_t node = 0; node < 2; ++node) {
    attach.header.node = node;
    hub.on_datagram(encode(attach), 0.0, out);
  }

  Frame ctrl;
  ctrl.header.type = static_cast<std::uint8_t>(FrameType::kCtrl);
  ctrl.header.session = 5;
  // Frames at stream seqs 0 and 1, the second from (session, node).
  const auto pair_of = [&ctrl](std::uint64_t session, std::uint16_t node) {
    std::vector<std::uint8_t> dgram = encode(ctrl);
    Frame other = ctrl;
    other.header.session = session;
    other.header.node = node;
    other.header.aux = 1;
    encode_into(other, dgram);
    return dgram;
  };
  std::uint64_t errors = 0;
  for (const auto& dgram : {pair_of(5, 1), pair_of(6, 0)}) {
    out.clear();
    EXPECT_FALSE(hub.on_datagram(dgram, 0.0, out).has_value());
    EXPECT_EQ(hub.stats().decode_errors.load(), ++errors);
    EXPECT_TRUE(out.empty());
  }
  EXPECT_EQ(hub.stats().frames_relayed.load(), 0u);

  out.clear();
  const std::optional<PeerKey> sender =
      hub.on_datagram(pair_of(5, 0), 0.0, out);
  ASSERT_TRUE(sender.has_value());
  EXPECT_EQ(*sender, (PeerKey{5, 0}));
  EXPECT_EQ(hub.stats().decode_errors.load(), errors);
  EXPECT_EQ(hub.stats().frames_relayed.load(), 2u);
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
