// In-process exercise of the thinaird core: NodeSessions pumped against a
// SessionHub with no sockets involved. Covers multi-party key equality,
// cross-run determinism, keys pinned to a recorded digest, heavy loss,
// relay loss + kNack recovery, the eavesdropper attach, roster-size
// checks, idle expiry through the on_tick scan, the hub counters, reply
// addressing, fig1's N (with a lost datagram of relays), a member's memory
// under floods of out-of-range seqs and of relays past a gap, and a
// hostile member whose control payloads arrive mutated.
//
// The hub sees each datagram's transport address as an opaque number;
// here a member sends from, and is reached at, the address equal to its
// node id.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>  // mallinfo2
#endif

#include "channel/rng.h"
#include "fuzz_mutate.h"
#include "gf/mds.h"
#include "netd/hub.h"
#include "netd/node_session.h"
#include "netd/wire.h"
#include "packet/serialize.h"
#include "sanitizers.h"
#include "util/sha256.h"

namespace thinair::netd {
namespace {

// Drives N NodeSessions against one hub on a shared fake clock. Datagrams
// flow synchronously; the optional drop hooks simulate UDP loss on either
// direction so the ARQ / kNack machinery actually has work to do, the
// copy hooks repeat client datagrams, at once or stale, and the rewrite
// hook lets a test tamper with what a client sends.
class LoopHarness {
 public:
  explicit LoopHarness(HubConfig config) : hub(std::move(config)) {}

  void add_node(NodeConfig config) {
    index_of_[config.node] = nodes_.size();
    address_.push_back(config.node);
    nodes_.push_back(std::make_unique<NodeSession>(config));
  }

  // Returns true when every node reached kDone before 600 s of virtual
  // time elapsed; each failed node adds a test failure.
  bool run() {
    run_until_ended();
    for (const auto& n : nodes_)
      if (n->failed()) ADD_FAILURE() << "node failed: " << n->error();
    return all_done();
  }

  // Returns true when every node but the one at index `skip` has ended,
  // done or failed, before 600 s of virtual time elapsed.
  bool run_until_ended(std::size_t skip = SIZE_MAX) {
    constexpr double kDeadlineS = 600.0, kDt = 0.02;
    for (auto& n : nodes_) n->start(now_);
    while (now_ < kDeadlineS) {
      while (step()) {
      }
      bool ended = true;
      for (std::size_t i = 0; i < nodes_.size(); ++i)
        ended &= i == skip || nodes_[i]->done() || nodes_[i]->failed();
      if (ended) return true;
      now_ += kDt;
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
  // Called on every client datagram before the drop hook; may rewrite it.
  std::function<void(std::vector<std::uint8_t>&)> rewrite_to_hub;

 private:
  bool step() {
    bool any = false;
    std::vector<std::uint8_t> dgram;
    held_.resize(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      while (nodes_[i]->poll_datagram(dgram)) {
        any = true;
        if (rewrite_to_hub) rewrite_to_hub(dgram);
        if (drop_to_hub && drop_to_hub(dgram)) continue;
        to_hub(dgram, address_[i]);
        if (duplicate_to_hub && duplicate_to_hub(dgram))
          to_hub(dgram, address_[i]);
        for (const auto& stale : std::exchange(held_[i], {}))
          to_hub(stale, address_[i]);
        if (hold_to_hub && hold_to_hub(dgram)) held_[i].push_back(dgram);
      }
    }
    return any;
  }

  void to_hub(const std::vector<std::uint8_t>& dgram, std::uint64_t from) {
    std::vector<Outgoing> out;
    hub.on_datagram(dgram, from, now_, out);
    route(out);
  }

  void route(const std::vector<Outgoing>& out) {
    for (const Outgoing& o : out) {
      if (drop_to_client && drop_to_client(o)) continue;
      const auto it = index_of_.find(o.to);
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
  std::vector<std::uint64_t> address_;             // per node: its node id
  std::map<std::uint64_t, std::size_t> index_of_;  // by address
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
  // to divide by zero picking the round's Alice; it must buffer instead.
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

// Takes `node` through attach and the roster `ready` (kReady's payload:
// u16 count, then u16 id + u8 flags per member), as the hub would, into
// round 0. The default roster is nodes 0 and 1; round 0's Alice is node 0.
void join_session(NodeSession& node,
                  std::vector<std::uint8_t> ready = {2, 0, 0, 0, 0, 1, 0, 0}) {
  node.start(0.0);
  Frame ok;
  ok.header.type = static_cast<std::uint8_t>(FrameType::kAttachOk);
  ok.header.session = 0xA11CE;
  node.on_datagram(encode(ok), 0.0);
  Frame roster;
  roster.header.type = static_cast<std::uint8_t>(FrameType::kReady);
  roster.header.session = 0xA11CE;
  roster.payload = std::move(ready);
  node.on_datagram(encode(roster), 0.0);
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
    join_session(alice);
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
  join_session(bob);
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

  // Members agree on N, as they do on the payload size: a kEndOfX that
  // carries another N ends the session, where a receiver once took N
  // from it.
  NodeSession carol(make_node(1, 2));  // N = 16
  join_session(carol);
  ASSERT_EQ(carol.state(), NodeSession::State::kRunning);
  EXPECT_NO_THROW(carol.on_datagram(
      ctrl_relay(0, WirePhase::kEndOfX, 0, {17, 0, 0, 0}), 0.1));
  EXPECT_TRUE(carol.failed());
  EXPECT_FALSE(carol.error().empty());
}

// An eavesdropper is a hub member but no terminal, so the round's Alice
// hears any report it sends. Counted, such a report once completed her
// report set and threw out of on_datagram.
TEST(NetdNode, EavesdropperReportIsNotCounted) {
  NodeSession alice(make_node(0, 3));  // N = 32
  join_session(alice, {3, 0, 0, 0, 0, 1, 0, 0, 2, 0, kFlagEve});
  ASSERT_EQ(alice.state(), NodeSession::State::kRunning);
  packet::ReceptionReport report;
  report.universe = 32;
  EXPECT_NO_THROW(alice.on_datagram(
      ctrl_relay(2, WirePhase::kReport, 0, packet::encode(report)), 0.1));
  EXPECT_EQ(alice.state(), NodeSession::State::kRunning) << alice.error();
  EXPECT_EQ(alice.rounds_completed(), 0u);
}

// Bytes the heap holds, read from glibc outside the sanitizers (which
// interpose the allocator); nullopt where that reading means nothing.
std::optional<std::size_t> heap_in_use() {
#if defined(__GLIBC__) && !THINAIR_UNDER_SANITIZER
  return mallinfo2().uordblks;
#else
  return std::nullopt;
#endif
}

// The round's Alice can send x- and z-payloads under any seq. A receiver
// keeps one x-payload per seq below its own N and fails the session at a
// z seq no plan has, so 100,000 seqs past those bounds leave its heap
// where it was. Storing them cost 11 MB once.
TEST(NetdNode, OutOfRangeSeqsLeaveTheHeapBounded) {
  constexpr std::uint32_t kFlood = 100000;
  constexpr std::size_t kSlack = std::size_t{256} << 10;
  std::uint32_t relay_seq = 0;
  // kFlood round-0 relays from node 0, seqs from `first`, as full datagrams.
  const auto flood = [&relay_seq](NodeSession& node, WirePhase phase,
                                  std::uint32_t first) {
    Frame relay;
    relay.header.type = static_cast<std::uint8_t>(FrameType::kRelay);
    relay.header.session = 0xA11CE;
    relay.header.phase = static_cast<std::uint8_t>(phase);
    relay.payload.assign(16, 0xAB);
    std::vector<std::uint8_t> dgram;
    for (std::uint32_t i = 0; i < kFlood; ++i) {
      if (dgram.size() + kHeaderSize + relay.payload.size() > kMaxDatagram) {
        node.on_datagram(dgram, 0.1);
        dgram.clear();
      }
      relay.header.seq = first + i;
      relay.header.aux = relay_seq++;
      encode_into(relay, dgram);
    }
    node.on_datagram(dgram, 0.1);
  };
  NodeSession bob(make_node(1, 2));  // N = 16
  join_session(bob);
  const std::optional<std::size_t> before = heap_in_use();

  flood(bob, WirePhase::kXData, 16);
  EXPECT_EQ(bob.state(), NodeSession::State::kRunning) << bob.error();
  if (before) {
    EXPECT_LT(*heap_in_use(), *before + kSlack);
  }

  flood(bob, WirePhase::kZCoded, gf::mds::kMaxColumns);
  EXPECT_TRUE(bob.failed());
  EXPECT_FALSE(bob.error().empty());
  if (before) {
    EXPECT_LT(*heap_in_use(), *before + kSlack);
  }
}

// Relays past a gap wait for it to fill, up to kRelayWindowBytes of
// frames; the hub replays the rest on kNack. So 100,000 relays at relay
// seqs 1-100,000 (seq 0 never comes), which anyone who knows a member's
// port and session id can send, leave the member's heap bounded. Holding
// them all once grew it by 14.4 MB.
TEST(NetdNode, RelaysPastAGapLeaveTheHeapBounded) {
  NodeSession bob(make_node(1, 2));
  join_session(bob);
  Frame relay;
  relay.header.type = static_cast<std::uint8_t>(FrameType::kRelay);
  relay.header.session = 0xA11CE;
  relay.header.phase = static_cast<std::uint8_t>(WirePhase::kXData);
  relay.payload.assign(16, 0xAB);
  std::vector<std::uint8_t> dgram;
  dgram.reserve(kMaxDatagram);
  const std::optional<std::size_t> before = heap_in_use();

  for (std::uint32_t seq = 1; seq <= 100000; ++seq) {
    if (dgram.size() + kHeaderSize + relay.payload.size() > kMaxDatagram) {
      bob.on_datagram(dgram, 0.1);
      dgram.clear();
    }
    relay.header.seq = seq % 16;
    relay.header.aux = seq;
    encode_into(relay, dgram);
  }
  bob.on_datagram(dgram, 0.1);
  EXPECT_EQ(bob.state(), NodeSession::State::kRunning) << bob.error();
  if (before) {
    EXPECT_LT(*heap_in_use(), *before + 4 * kRelayWindowBytes);
  }
}

// Applies `edit` to every kCtrl frame in a datagram `node` sent, keeping
// the datagram's framing.
template <typename Edit>
void edit_ctrl_frames(std::vector<std::uint8_t>& dgram, std::uint16_t node,
                      Edit edit) {
  DecodeAllResult decoded = decode_all(dgram);
  if (decoded.frames.empty() || decoded.frames.front().header.node != node)
    return;
  std::vector<std::uint8_t> out;
  for (Frame& f : decoded.frames) {
    if (f.header.type == static_cast<std::uint8_t>(FrameType::kCtrl)) edit(f);
    encode_into(f, out);
  }
  if (out.size() <= kMaxDatagram) dgram = std::move(out);
}

// Rewrites the kCtrl payloads of one member's datagrams to the hub with
// seeded mutations (test::mutate): its reports, kEndOfX markers, y- and
// s-announcements and z-payloads. Headers and stream seqs stay intact, so
// the hub accepts and relays the mutants, and the ARQ works as usual: the
// mutation of a frame depends only on the seed and the frame's stream
// seq, so a retransmit carries the same bytes. Each frame is mutated with
// probability 1/one_in, so a session can fail at any of its control
// frames, or finish with mutants that still decode.
struct HostileMember {
  std::uint16_t node;
  std::uint64_t seed;
  std::uint64_t one_in;
  std::map<WirePhase, std::size_t>* mutated;  // frames, by phase

  void operator()(std::vector<std::uint8_t>& dgram) const {
    edit_ctrl_frames(dgram, node, [this](Frame& f) {
      std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + f.header.aux);
      if (rng() % one_in != 0) return;
      for (std::size_t k = 1 + rng() % 3; k > 0; --k)
        test::mutate(f.payload, rng);
      ++(*mutated)[static_cast<WirePhase>(f.header.phase)];
    });
  }
};

// NodeSession's contract with a hostile roster member (node_session.h):
// whatever control payloads one member sends, every other member ends
// before the harness deadline, with its secret or through fail() with a
// message, and none throws out of on_datagram or on_tick. Keys are not
// compared: a member that lies about what it received or announced can
// make them differ, which is what the paper's Sec. 2 authentication is
// for.
TEST(NetdLoop, HostileMemberCannotCrashOrWedgeHonestOnes) {
  constexpr std::uint64_t kSeeds = 1000;
  constexpr double kLoss[] = {0.2, 0.4, 0.6};
  std::map<WirePhase, std::size_t> mutated;
  std::size_t honest = 0, honest_failed = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto members = static_cast<std::uint16_t>(2 + seed % 3);
    const auto hostile = static_cast<std::uint16_t>((seed / 3) % members);
    SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                 std::to_string(members) + " members, node " +
                 std::to_string(hostile) + " hostile");
    HubConfig hc;
    hc.loss_p = kLoss[(seed / 7) % 3];
    hc.seed = seed;
    LoopHarness h{hc};
    for (std::uint16_t id = 0; id < members; ++id)
      h.add_node(make_node(id, members));
    const std::uint64_t one_in = std::uint64_t{1} << (seed % 4);  // 1..8
    h.rewrite_to_hub = HostileMember{hostile, seed, one_in, &mutated};
    bool ended = false;
    EXPECT_NO_THROW(ended = h.run_until_ended(hostile));
    EXPECT_TRUE(ended) << "an honest member is still waiting";
    for (std::uint16_t id = 0; id < members; ++id) {
      if (id == hostile) continue;
      const NodeSession& node = h.node(id);
      ++honest;
      if (node.failed()) {
        ++honest_failed;
        EXPECT_FALSE(node.error().empty()) << "node " << id;
      } else {
        EXPECT_TRUE(node.done()) << "node " << id;
      }
    }
  }
  // Every kind of control payload was mutated, and the mutants reached
  // both outcomes.
  for (const WirePhase phase :
       {WirePhase::kReport, WirePhase::kEndOfX, WirePhase::kYAnnouncement,
        WirePhase::kZCoded, WirePhase::kSAnnouncement})
    EXPECT_GT(mutated[phase], 0u) << "phase " << static_cast<int>(phase);
  EXPECT_GT(honest_failed, 0u);
  EXPECT_LT(honest_failed, honest);
}

// Regression literal from the test above (its seed 5: four members, node
// 1 hostile). Round 0's Alice fails on a report she cannot decode, and
// the other receivers used to wait for her y-announcement for ever,
// their relay probes keeping the hub session alive.
TEST(NetdLoop, MemberThatStopsEndsTheOthers) {
  LoopHarness h{HubConfig{}};
  for (std::uint16_t id = 0; id < 3; ++id) h.add_node(make_node(id, 3));
  h.rewrite_to_hub = [](std::vector<std::uint8_t>& dgram) {
    edit_ctrl_frames(dgram, 2, [](Frame& f) {
      if (f.header.phase == static_cast<std::uint8_t>(WirePhase::kReport))
        f.payload.clear();
    });
  };
  ASSERT_TRUE(h.run_until_ended(2));
  EXPECT_EQ(h.node(0).error(), "undecodable reception report");
  ASSERT_TRUE(h.node(1).failed());
  EXPECT_NE(h.node(1).error().find("a member stopped"), std::string::npos)
      << h.node(1).error();
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

// fig1's N = 200 in a live session. A round's combination announcements
// at that N outgrow an 8 KiB frame, which once failed sessions from
// N = 130.
TEST(NetdLoop, KeysAgreeAtThePapersN) {
  for (const double loss : {0.2, 0.5, 0.8})
    for (std::uint16_t members = 2; members <= 4; ++members) {
      SCOPED_TRACE("loss " + std::to_string(loss) + ", " +
                   std::to_string(members) + " members");
      HubConfig hc;
      hc.loss_p = loss;
      LoopHarness h{hc};
      for (std::uint16_t id = 0; id < members; ++id) {
        NodeConfig c = make_node(id, members);
        c.x_packets_per_round = 200;
        h.add_node(c);
      }
      ASSERT_TRUE(h.run());
      for (std::size_t i = 1; i < h.size(); ++i)
        EXPECT_EQ(h.node(i).secret(), h.node(0).secret()) << "node " << i;
    }
}

// One lost datagram of relays is recoverable at fig1's N: a round's
// x-relays to a receiver ride in one datagram of about 160 frames, and
// the kNack that follows its loss once found most of them evicted from a
// relay ring 64 frames deep, which ended the whole group.
TEST(NetdLoop, RecoversALostDatagramOfRelaysAtThePapersN) {
  for (std::uint16_t members = 2; members <= 4; ++members) {
    SCOPED_TRACE(std::to_string(members) + " members");
    HubConfig hc;
    hc.loss_p = 0.2;
    LoopHarness h{hc};
    for (std::uint16_t id = 0; id < members; ++id) {
      NodeConfig c = make_node(id, members);
      c.x_packets_per_round = 200;
      h.add_node(c);
    }
    std::size_t dropped = 0;  // x-relays in the one dropped datagram
    h.drop_to_client = [&dropped](const Outgoing& o) {
      if (dropped > 0) return false;
      const std::vector<Frame> frames = decode_all(o.datagram).frames;
      const auto x_relays = static_cast<std::size_t>(
          std::count_if(frames.begin(), frames.end(), [](const Frame& f) {
            return f.header.type ==
                       static_cast<std::uint8_t>(FrameType::kRelay) &&
                   f.header.phase ==
                       static_cast<std::uint8_t>(WirePhase::kXData);
          }));
      if (x_relays < 100) return false;
      dropped = x_relays;
      return true;
    };
    ASSERT_TRUE(h.run());
    EXPECT_GT(dropped, 64u);
    EXPECT_GT(h.hub.stats().nack_retransmits.load(), 64u);
    for (std::size_t i = 1; i < h.size(); ++i)
      EXPECT_EQ(h.node(i).secret(), h.node(0).secret()) << "node " << i;
  }
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
  h.hub.on_datagram(encode(eve), 2, 0.0, out);

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
    if (o.to != 2) return false;
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
    hub.on_datagram(encode(f), f.header.node, 0.0, out);
  };

  Frame attach;
  attach.header.type = static_cast<std::uint8_t>(FrameType::kAttach);
  attach.header.session = 5;
  attach.header.aux = 2;
  attach.header.node = 0;
  send(attach);
  attach.header.node = 1;
  send(attach);

  // Reliable broadcasts of the largest frame from node 0, two more than
  // node 1's relay ring holds (kRelayWindowBytes): the ring evicts relay
  // seqs 0 and 1.
  constexpr std::uint32_t kFrames = kRelayWindowBytes / kMaxDatagram + 2;
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    Frame ctrl;
    ctrl.header.type = static_cast<std::uint8_t>(FrameType::kCtrl);
    ctrl.header.session = 5;
    ctrl.header.node = 0;
    ctrl.header.seq = i;
    ctrl.header.aux = i;
    ctrl.payload.assign(kMaxPayload, static_cast<std::uint8_t>(i));
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
          o.to == 1)
        saw_error = true;
  }
  EXPECT_TRUE(saw_error);

  // A NACK still inside the ring retransmits the tail as before.
  nack.header.aux = kFrames - 2;
  send(nack);
  std::size_t relays = 0;
  for (const Outgoing& o : out)
    for (const Frame& f : decode_all(o.datagram).frames)
      if (static_cast<FrameType>(f.header.type) == FrameType::kRelay)
        ++relays;
  EXPECT_EQ(relays, 2u) << "expected the last two seqs resent";
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
  hub.on_datagram(encode(attach), 0, 0.0, out);
  ASSERT_EQ(out.size(), 1u);
  const DecodeResult ok = decode(out[0].datagram);
  ASSERT_TRUE(ok.frame.has_value());
  EXPECT_EQ(static_cast<FrameType>(ok.frame->header.type),
            FrameType::kAttachOk);

  out.clear();
  attach.header.node = 1;
  hub.on_datagram(encode(attach), 1, 0.0, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].to, 1u);
  EXPECT_EQ(frame_types(out[0]),
            (std::vector<FrameType>{FrameType::kAttachOk, FrameType::kReady}));
  EXPECT_EQ(out[1].to, 0u);
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
  hub.on_datagram(burst, 0, 0.0, out);
  ASSERT_EQ(out.size(), 2u);
  const auto [to_peer, to_sender] =
      out[0].to == 1 ? std::pair{out[0], out[1]} : std::pair{out[1], out[0]};
  EXPECT_EQ(frame_types(to_sender), std::vector<FrameType>(
                                        3, FrameType::kCtrlAck));
  EXPECT_EQ(frame_types(to_peer), std::vector<FrameType>(3, FrameType::kRelay));
  EXPECT_EQ(hub.stats().frames_relayed.load(), 3u);
}

// The hub is the one record of where a member is: a reply to a member goes
// to the address its latest datagram came from, and a reply to anyone
// else goes back to the address of the datagram that drew it.
TEST(NetdHub, RepliesGoWhereEachSenderIs) {
  SessionHub hub(HubConfig{});
  using Sent = std::vector<std::pair<std::uint64_t, std::vector<FrameType>>>;
  std::vector<Outgoing> out;
  // (address, frame types) of each datagram in `out`.
  const auto sent = [&out] {
    Sent got;
    for (const Outgoing& o : out) {
      got.emplace_back(o.to, std::vector<FrameType>{});
      for (const Frame& f : decode_all(o.datagram).frames)
        got.back().second.push_back(static_cast<FrameType>(f.header.type));
    }
    return got;
  };
  const auto send = [&](FrameType type, std::uint64_t session,
                        std::uint16_t node, std::uint32_t aux,
                        std::uint64_t from) {
    Frame f;
    f.header.type = static_cast<std::uint8_t>(type);
    f.header.session = session;
    f.header.node = node;
    f.header.aux = aux;
    out.clear();
    hub.on_datagram(encode(f), from, 0.0, out);
    return sent();
  };
  constexpr std::uint64_t kA = 101, kB = 102, kMoved = 103, kStranger = 104;

  // Two members attach from their own addresses, and each hears there.
  EXPECT_EQ(send(FrameType::kAttach, 5, 0, 2, kA),
            (Sent{{kA, {FrameType::kAttachOk}}}));
  EXPECT_EQ(send(FrameType::kAttach, 5, 1, 2, kB),
            (Sent{{kB, {FrameType::kAttachOk, FrameType::kReady}},
                  {kA, {FrameType::kReady}}}));

  // Node 0 moves: its ack, and the next relay to it, go to the new address.
  EXPECT_EQ(send(FrameType::kCtrl, 5, 0, 0, kMoved),
            (Sent{{kB, {FrameType::kRelay}}, {kMoved, {FrameType::kCtrlAck}}}));
  EXPECT_EQ(send(FrameType::kCtrl, 5, 1, 0, kB),
            (Sent{{kMoved, {FrameType::kRelay}}, {kB, {FrameType::kCtrlAck}}}));

  // A non-member's kData, and a frame for an unknown session, are answered
  // where they came from, and move no member.
  EXPECT_EQ(send(FrameType::kData, 5, 7, 0, kStranger),
            (Sent{{kStranger, {FrameType::kError}}}));
  EXPECT_EQ(send(FrameType::kData, 6, 0, 0, kStranger),
            (Sent{{kStranger, {FrameType::kExpired}}}));

  // Expiry reaches each member at its last address.
  out.clear();
  hub.on_tick(HubConfig{}.idle_timeout_s + 1.0, out);
  EXPECT_EQ(sent(), (Sent{{kMoved, {FrameType::kExpired}},
                          {kB, {FrameType::kExpired}}}));
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
    hub.on_datagram(encode(attach), node, 0.0, out);
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
    hub.on_datagram(dgram, 0, 0.0, out);
    EXPECT_EQ(hub.stats().decode_errors.load(), ++errors);
    EXPECT_TRUE(out.empty());
  }
  EXPECT_EQ(hub.stats().frames_relayed.load(), 0u);

  out.clear();
  hub.on_datagram(pair_of(5, 0), 0, 0.0, out);
  EXPECT_FALSE(out.empty());
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
  hub.on_datagram(encode(attach), 0, 0.0, out);
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
        d.frame->header.node == 0 && d.frame->header.session == 99)
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
  hub.on_datagram(encode(attach), 0, 0.0, out);

  // Keep touching the session: re-attach (idempotent) every 0.6s. Each
  // touch pushes the idle deadline back, so no tick may expire it.
  for (int i = 1; i <= 5; ++i) {
    out.clear();
    hub.on_tick(0.6 * i, out);
    hub.on_datagram(encode(attach), 0, 0.6 * i, out);
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
  hub.on_datagram(garbage, 0, 0.0, out);
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
      hub.on_datagram(control(FrameType::kAttach, id, node, 2), node, 0.0,
                      out);
    }
    ASSERT_EQ(hub.session_count(), 1u);
    for (std::uint16_t node = 0; node < 2; ++node) {
      out.clear();
      hub.on_datagram(control(FrameType::kBye, id, node, 0), node, 0.0, out);
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
    hub.on_datagram(encode(attach), node, 0.0, out);
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
      if (o.to < 2) nodes[o.to]->on_datagram(o.datagram, now);
  };
  n0.start(now);
  n1.start(now);
  while (now < 600.0) {
    bool any = true;
    while (any) {
      any = false;
      for (std::uint64_t from = 0; from < 2; ++from)
        while (nodes[from]->poll_datagram(dgram)) {
          any = true;
          out.clear();
          hub.on_datagram(dgram, from, now, out);
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
