#pragma once
// The session hub: thinaird's transport-independent core.
//
// A hub plays the paper's broadcast medium for many concurrent sessions.
// Clients attach to a session (kAttach, declaring the expected roster
// size); once the roster is complete the hub tells everyone (kReady) and
// from then on relays each member's frames to the session's peers:
//
//   kData  — the lossy channel. The hub draws one Bernoulli erasure per
//            peer per frame from the session's own seeded Rng (members
//            visited in ascending node-id order, so the draw sequence is
//            a pure function of the session seed and the frame order),
//            relays to the survivors and reports the delivery mask back
//            to the sender (kTxReport). This is what makes loopback
//            exhibit the paper's erasure-driven secrecy.
//   kCtrl  — the reliable broadcast. Relayed to every peer, no draws,
//            acknowledged with kCtrlAck.
//
// A client datagram carries one or more frames; each kData/kCtrl frame
// holds the sender's stream seq in aux. The hub accepts a member's frame
// only at that member's next stream seq, so every frame draws at most
// once and in stream order. A lower seq is a stale or repeated copy and
// draws nothing; if it opens the datagram the hub accepted last, that
// datagram's acknowledgements are replayed (they were lost). A higher seq
// is dropped, and the client's retransmit refills the gap. Client-side
// ARQ therefore cannot perturb the draw sequence.
//
// Every relay carries a per-receiver sequence number (aux) so receivers
// detect UDP loss as a gap and recover via kNack from the hub's per-member
// relay ring, which keeps the newest kRelayWindowBytes of relays.
//
// The hub is sans-io: it consumes raw datagrams, each with the opaque
// transport address it came from, and emits datagrams addressed the same
// way. The session table is the one record of where a member is: each
// member's address is the one its latest datagram came from, and a reply
// to anyone else (a non-member, a frame for an unknown or closed session)
// goes back to the sender's address. The replies to one incoming datagram
// are coalesced: the frames bound for one address ride back to back, in
// order, in as few datagrams as kMaxDatagram allows. The UDP daemon
// (daemon.h) and the in-process reference harness (tests) drive the same
// code, which is what makes daemon runs comparable to in-process runs
// under the same seeds.
// Idle sessions expire when on_tick() scans the session table.

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <vector>

#include "channel/rng.h"
#include "netd/wire.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace thinair::netd {

struct HubConfig {
  double loss_p = 0.2;           // iid per-link erasure probability, [0, 1]
  std::uint64_t seed = 1;        // base seed; per-session streams derive
  double idle_timeout_s = 30.0;  // expire sessions idle this long (> 0)
  std::size_t max_sessions = 0;  // 0 = unlimited
};

/// Daemon-visible counters. Each atomic sits on its own cache line so the
/// event-loop thread and any monitoring reader never false-share.
struct HubStats {
  alignas(64) std::atomic<std::uint64_t> datagrams_in{0};
  alignas(64) std::atomic<std::uint64_t> decode_errors{0};
  alignas(64) std::atomic<std::uint64_t> sessions_opened{0};
  alignas(64) std::atomic<std::uint64_t> sessions_closed{0};
  alignas(64) std::atomic<std::uint64_t> sessions_expired{0};
  alignas(64) std::atomic<std::uint64_t> frames_relayed{0};
  alignas(64) std::atomic<std::uint64_t> nack_retransmits{0};
};

/// A datagram the hub wants delivered to the transport address `to`.
struct Outgoing {
  std::uint64_t to = 0;
  std::vector<std::uint8_t> datagram;
};

class SessionHub {
 public:
  /// Throws std::invalid_argument unless loss_p is in [0, 1] and
  /// idle_timeout_s > 0.
  explicit SessionHub(HubConfig config);

  /// Feed one datagram received from transport address `from`, which the
  /// hub never interprets (the daemon packs an IPv4 address and port into
  /// it); `now_s` is the transport's monotonic clock (drives idle expiry
  /// only — the erasure draws depend on the frame order alone). Responses
  /// are appended to `out`. A datagram that does not decode, or whose
  /// frames name more than one (session, node) pair, is one decode error
  /// and draws no reply.
  void on_datagram(std::span<const std::uint8_t> bytes, std::uint64_t from,
                   double now_s, std::vector<Outgoing>& out);

  /// Expire, in session-id order, every session idle since
  /// `now_s - idle_timeout_s`, emitting kExpired to each member's address.
  void on_tick(double now_s, std::vector<Outgoing>& out);

  [[nodiscard]] const HubStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t session_count() const {
    util::MutexLock lock(&mu_);
    return sessions_.size();
  }
  [[nodiscard]] bool has_session(std::uint64_t id) const {
    util::MutexLock lock(&mu_);
    return sessions_.contains(id);
  }

 private:
  class Replies;  // coalesces the replies to one datagram (hub.cpp)

  struct Member {
    std::uint64_t address = 0;  // where its latest datagram came from
    bool eve = false;
    bool bye = false;
    std::uint32_t next_relay_seq = 0;   // next seq this member will be sent
    std::uint32_t next_stream_seq = 0;  // the one client seq accepted next
    // The last datagram this member's frames were accepted from: the
    // stream seq of its first frame, and the acks sent for it (32-byte
    // frames back to back), replayed when a copy of it arrives again.
    std::uint32_t acked_first = 0;
    std::vector<std::uint8_t> acks;
    // Encoded relays by relay seq, oldest first, trimmed to
    // kRelayWindowBytes of frames; ring_bytes is their total size.
    std::deque<std::pair<std::uint32_t, std::vector<std::uint8_t>>> ring;
    std::size_t ring_bytes = 0;
  };

  struct Session {
    std::uint16_t expected = 0;
    bool ready = false;
    channel::Rng rng;
    double last_active_s = 0.0;  // transport clock (idle expiry)
    // Ascending node-id order — the erasure-draw iteration order.
    std::map<std::uint16_t, Member> members;

    explicit Session(channel::Rng r) : rng(r) {}
  };

  /// Handle frame `f` of a datagram whose first frame carries aux
  /// `opening_aux`; `opens` says whether `f` is that first frame.
  void on_frame(Frame& f, std::uint32_t opening_aux, bool opens, double now_s,
                Replies& out) THINAIR_REQUIRES(mu_);
  void handle_attach(const Frame& f, double now_s, Replies& out)
      THINAIR_REQUIRES(mu_);
  void handle_broadcast(Session& s, Frame& f, std::uint32_t opening_aux,
                        bool opens, Replies& out) THINAIR_REQUIRES(mu_);
  void handle_nack(Session& s, const Frame& f, Replies& out)
      THINAIR_REQUIRES(mu_);
  void handle_bye(std::uint64_t id, Session& s, const Frame& f, Replies& out)
      THINAIR_REQUIRES(mu_);

  /// Relay `relay` to `member`, stamping the per-member relay seq.
  void relay_to(Member& member, Frame& relay, Replies& out)
      THINAIR_REQUIRES(mu_);

  [[nodiscard]] static Frame make_control(FrameType type, std::uint64_t session,
                                          std::uint16_t node,
                                          std::uint32_t aux = 0);

  HubConfig config_;  // immutable after construction
  HubStats stats_;    // per-line atomics, updated without the mutex
  // The session table is the hub's mutable core. The mutex makes the hub
  // thread-safe for embedders (the single-threaded daemon pays one
  // uncontended lock per datagram — noise against the recvfrom syscall)
  // and, more importantly here, lets the thread-safety analysis
  // machine-check that every handler runs with the table held:
  // the erasure-draw determinism argument assumes kData frames are
  // processed one at a time per session.
  mutable util::Mutex mu_;
  // Ordered by session id: the expiry scan, and the kExpired frames it
  // emits, follow that order.
  std::map<std::uint64_t, Session> sessions_ THINAIR_GUARDED_BY(mu_);
};

}  // namespace thinair::netd
