#pragma once
// One terminal's half of a live key agreement, sans-io.
//
// A NodeSession is the distributed counterpart of GroupSecretSession: it
// owns exactly one terminal and speaks the thinaird wire protocol to a
// SessionHub, reusing the unmodified phase-1/phase-2 computations
// (core/phase1.h, core/phase2.h). Rounds rotate the Alice role through
// the roster in ascending node-id order; whichever terminal's turn it is
// drives the round:
//
//   as Alice     broadcast N x-payloads (kData, drawn from the node's own
//                payload stream), mark the end (kEndOfX), collect every
//                peer's reception report, run phase 1 + phase 2 exactly as
//                the in-process session does, and reliably broadcast the
//                y identities, the z contents and the s identities.
//   as receiver  record which x-packets survived the hub's erasure draws,
//                report them, rebuild Alice's pool view from the public
//                y-announcement (audience = {self} iff the combination's
//                support lies inside the own reception set), rebuild the
//                phase-2 plan from public sizes alone (plan_phase2(M, L)),
//                repair the missing y-packets from the z contents and
//                evaluate the s-packets.
//
// Both sides append the same s-payload bytes, so every terminal of a
// session derives the byte-identical secret — the property the e2e tests
// pin against the in-process reference.
//
// The class is sans-io and clock-free: callers feed received datagrams
// (on_datagram), advance time (on_tick) and drain outgoing datagrams
// (poll_datagram). Reliability over real UDP comes from two mechanisms:
// stop-and-wait ARQ towards the hub, one datagram in flight that packs
// every queued kData/kCtrl frame it can hold (each stamped with this
// member's stream seq in aux; kAttach and kBye travel alone), cleared by
// the ack of its last frame and retransmitted whole on timeout — the hub
// accepts frames in stream order only, so retransmits are draw-neutral —
// and an ordered relay stream from the hub (per-member sequence numbers;
// gaps trigger kNack recovery, idle periods a probe kNack so a lost final
// relay cannot deadlock the round). The roster announcement (kReady) is
// covered too: relays that overtake it are buffered until the roster
// arrives, and a joining node whose attach was acked re-sends the attach
// on the probe timer — the hub replays kAttachOk/kReady idempotently — so
// a lost kReady cannot wedge the join.

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "channel/rng.h"
#include "core/reception.h"
#include "netd/wire.h"
#include "packet/arena.h"
#include "packet/serialize.h"

namespace thinair::netd {

struct NodeConfig {
  std::uint64_t session_id = 1;
  std::uint16_t node = 0;      // this terminal's id (< 64)
  std::uint16_t members = 2;   // expected roster size (all clients agree)
  std::size_t x_packets_per_round = 24;  // N
  std::size_t payload_bytes = 32;
  std::size_t rounds = 0;  // 0 = one round per terminal
  std::uint64_t payload_seed = 7;  // this node's x-payload stream
  double rto_s = 0.05;     // ARQ retransmit timeout
  double probe_s = 0.25;   // idle relay-probe period
  std::size_t max_retries = 200;  // ARQ attempts before giving up
};

class NodeSession {
 public:
  enum class State : std::uint8_t {
    kIdle,       // constructed, start() not called
    kJoining,    // attach sent, waiting for the roster
    kRunning,    // key agreement in progress
    kClosing,    // all rounds done, kBye in flight
    kDone,       // secret complete, session closed
    kFailed,     // protocol error (see error())
  };

  explicit NodeSession(NodeConfig config);

  /// Restore construction-equivalent state for a new config: every state
  /// machine field returns to its initial value; the payload arena keeps
  /// its blocks (trimmed to the watermark policy) and containers keep
  /// their capacity. A reused NodeSession therefore derives exactly the
  /// bytes a freshly constructed one would, which lets a load generator
  /// re-key one terminal object group after group.
  void reset(NodeConfig config);

  /// Queue the attach handshake. Idempotent.
  void start(double now_s);

  /// Feed one datagram received from the hub.
  void on_datagram(std::span<const std::uint8_t> bytes, double now_s);

  /// Advance timers: ARQ retransmission and the idle relay probe.
  void on_tick(double now_s);

  /// Drain the next outgoing datagram into `out`. Returns false when
  /// nothing is pending.
  bool poll_datagram(std::vector<std::uint8_t>& out);

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] bool done() const { return state_ == State::kDone; }
  [[nodiscard]] bool failed() const { return state_ == State::kFailed; }
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Concatenated s-payloads over all rounds (the shared secret).
  [[nodiscard]] const std::vector<std::uint8_t>& secret() const {
    return secret_;
  }
  /// Roster of terminals, ascending node id (valid once running).
  [[nodiscard]] const std::vector<std::uint16_t>& roster() const {
    return roster_;
  }
  [[nodiscard]] std::size_t rounds_completed() const { return round_; }

 private:
  // Receiver-side state of one round, keyed by round index.
  struct RoundRx {
    std::map<std::uint32_t, std::vector<std::uint8_t>> x;  // seq -> payload
    std::uint32_t universe = 0;  // N, learned from kEndOfX (0 = not yet)
    bool reported = false;
    std::optional<packet::Announcement> y_ann;
    std::map<std::uint32_t, std::vector<std::uint8_t>> z;  // seq -> payload
  };

  // Alice-side state of the round this node is driving.
  struct AliceRound {
    std::vector<std::vector<std::uint8_t>> x;  // all N payloads
    std::map<std::uint16_t, packet::ReceptionReport> reports;
  };

  void fail(std::string why);
  void queue_frame(Frame f);           // reliable (ARQ) path
  void send_immediate(const Frame& f);  // fire-and-forget (kNack)
  void pump(double now_s);
  void on_hub_frame(const Frame& f, double now_s);
  void on_relay(const Frame& f, double now_s);
  void drain_relays(double now_s);  // deliver buffered in-order relays
  void deliver(const Frame& f, double now_s);  // in-order relayed frame
  void on_ctrl(const Frame& f, double now_s);
  void maybe_start_round(double now_s);
  void start_alice_round(double now_s);
  void finish_alice_round(double now_s);
  void finish_receiver_round(std::uint32_t round,
                             const packet::Announcement& s_ann, double now_s);
  void round_complete(double now_s);
  /// Node id driving `round`, or an id no member can hold while the
  /// roster is still unknown (node ids are < 64; never divides by zero).
  [[nodiscard]] std::uint16_t alice_of(std::uint32_t round) const {
    return roster_.empty() ? 0xFFFF : roster_[round % roster_.size()];
  }
  [[nodiscard]] std::size_t total_rounds() const {
    return config_.rounds == 0 ? roster_.size() : config_.rounds;
  }

  NodeConfig config_;
  State state_ = State::kIdle;
  std::string error_;
  channel::Rng payload_rng_;
  packet::PayloadArena arena_;

  // Outgoing: stop-and-wait ARQ over `queue_`, plus an immediate outbox.
  std::deque<Frame> queue_;
  // The header of the in-flight datagram's last frame: its ack clears the
  // whole datagram.
  std::optional<FrameHeader> inflight_;
  std::vector<std::uint8_t> inflight_wire_;
  std::uint32_t next_stream_seq_ = 0;  // aux of the next kData/kCtrl frame
  double last_send_s_ = 0.0;
  std::size_t retries_ = 0;
  std::deque<std::vector<std::uint8_t>> outbox_;

  // Incoming: ordered relay stream reassembly.
  std::uint32_t next_relay_ = 0;
  std::map<std::uint32_t, Frame> pending_relays_;
  double last_rx_s_ = 0.0;
  double last_probe_s_ = 0.0;

  // Protocol state.
  bool attached_ = false;
  std::vector<std::uint16_t> roster_;  // terminals, ascending id
  std::uint32_t round_ = 0;            // rounds completed locally
  bool round_active_ = false;
  std::map<std::uint32_t, RoundRx> rx_;
  std::optional<AliceRound> alice_;
  std::vector<std::uint8_t> secret_;
};

}  // namespace thinair::netd
