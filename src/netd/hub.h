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
// Every relay carries a per-receiver sequence number (aux) so receivers
// detect UDP loss as a gap and recover via kNack from the hub's per-member
// relay ring. Retransmitted client frames are absorbed by a per-member
// last-ack cache: the cached acknowledgement is replayed and *no* new
// erasure draws happen, so client-side ARQ cannot perturb the draw
// sequence.
//
// The hub is sans-io: it consumes raw datagrams and emits datagrams
// addressed by (session, node); the UDP daemon (daemon.h) and the
// in-process reference harness (tests) drive the same code, which is what
// makes daemon runs comparable to in-process runs under the same seeds.
// Idle sessions expire when on_tick() scans the session table.

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "channel/rng.h"
#include "netd/wire.h"
#include "runtime/object_pool.h"
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

/// A datagram the hub wants delivered to (session, node); the transport
/// owns the mapping to an actual peer address.
struct Outgoing {
  std::uint64_t session = 0;
  std::uint16_t node = 0;
  std::vector<std::uint8_t> datagram;
};

class SessionHub {
 public:
  /// Throws std::invalid_argument unless loss_p is in [0, 1] and
  /// idle_timeout_s > 0.
  explicit SessionHub(HubConfig config);

  /// Feed one received datagram; `now_s` is the transport's monotonic
  /// clock (drives idle expiry only — the erasure draws depend on the
  /// frame order alone). Responses are appended to `out`.
  void on_datagram(std::span<const std::uint8_t> bytes, double now_s,
                   std::vector<Outgoing>& out);

  /// Expire, in session-id order, every session idle since
  /// `now_s - idle_timeout_s`, emitting kExpired to its members.
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

  /// Counters of the session free-list pool (create/destroy churn reuses
  /// session records instead of rebuilding them).
  [[nodiscard]] runtime::PoolCounters session_pool_counters() const;

 private:
  struct AckKey {
    std::uint8_t type = 0;
    std::uint8_t phase = 0;
    std::uint32_t round = 0;
    std::uint32_t seq = 0;
    friend bool operator==(const AckKey&, const AckKey&) = default;
  };

  struct Member {
    bool eve = false;
    bool bye = false;
    std::uint32_t next_relay_seq = 0;  // next seq this member will be sent
    std::optional<AckKey> last_key;    // retransmit-absorbing ack cache
    std::vector<std::uint8_t> last_ack;
    std::deque<std::pair<std::uint32_t, std::vector<std::uint8_t>>> ring;
  };

  struct Session {
    std::uint16_t expected = 0;
    bool ready = false;
    channel::Rng rng;
    double last_active_s = 0.0;  // transport clock (idle expiry)
    // Ascending node-id order — the erasure-draw iteration order.
    std::map<std::uint16_t, Member> members;

    explicit Session(channel::Rng r) : rng(r) {}

    /// Construction-equivalent state for pooled reuse (every field a
    /// fresh Session(r) would hold — the runtime::ObjectPool contract).
    void reset(channel::Rng r) {
      expected = 0;
      ready = false;
      rng = r;
      last_active_s = 0.0;
      members.clear();
    }
  };
  using SessionHandle = runtime::ObjectPool<Session>::Handle;

  void handle_attach(const Frame& f, double now_s, std::vector<Outgoing>& out)
      THINAIR_REQUIRES(mu_);
  void handle_broadcast(Session& s, const Frame& f, std::vector<Outgoing>& out)
      THINAIR_REQUIRES(mu_);
  void handle_nack(Session& s, const Frame& f, std::vector<Outgoing>& out)
      THINAIR_REQUIRES(mu_);
  void handle_bye(std::uint64_t id, Session& s, const Frame& f,
                  std::vector<Outgoing>& out) THINAIR_REQUIRES(mu_);

  /// Relay `wire` to member `node`, stamping the per-member relay seq.
  void relay_to(std::uint64_t session_id, std::uint16_t node, Member& member,
                Frame wire, std::vector<Outgoing>& out) THINAIR_REQUIRES(mu_);

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
  // Session records are pooled: close/expire releases the record to the
  // free list and the next attach reuses it via reset(), so attach/bye
  // churn does not allocate per session. Declared before sessions_ so the
  // handles release into a live pool during destruction.
  runtime::ObjectPool<Session> session_pool_ THINAIR_GUARDED_BY(mu_);
  // Ordered by session id: the expiry scan, and the kExpired frames it
  // emits, follow that order.
  std::map<std::uint64_t, SessionHandle> sessions_ THINAIR_GUARDED_BY(mu_);
};

}  // namespace thinair::netd
