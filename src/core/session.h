#pragma once
// The full secret-agreement protocol, end to end (Sec. 3).
//
// A GroupSecretSession drives one or more protocol rounds over a Medium:
//
//   per round (one terminal playing Alice; the role rotates by default —
//   Sec. 3.2's "avoiding the worst-case scenario"):
//     1. Alice broadcasts N random x-packets over the lossy channel.
//     2. Every other terminal reliably broadcasts its reception report.
//     3. Alice builds the y-pool (phase 1) and reliably broadcasts the
//        y identities.
//     4. Alice reliably broadcasts the M - L z-packets (contents) and the
//        s identities (phase 2); every terminal decodes the group secret.
//
// The session performs the *real* computation on every side — terminals
// reconstruct their y-packets from the x-payloads they actually received,
// repair the missing ones from the z-contents and evaluate the s-packets —
// and verifies that all terminals agree on the secret bit-for-bit. In
// parallel it accumulates Eve's exact view (analysis::EveView) and scores
// each round's reliability, the paper's Figure-2 metric.

#include <cstdint>
#include <vector>

#include "analysis/leakage.h"
#include "core/phase1.h"
#include "core/phase2.h"
#include "core/round.h"
#include "net/medium.h"
#include "packet/packet.h"

namespace thinair::core {

struct SessionConfig {
  std::size_t x_packets_per_round = 90;  // N; 90 spreads over all 9 patterns
  std::size_t payload_bytes = packet::kPaperPayloadBytes;  // 100 B
  std::size_t rounds = 0;        // 0 = one round per terminal
  bool rotate_alice = true;      // Sec. 3.2's worst-case avoidance
  EstimatorSpec estimator;       // Sec. 3.3 strategy (default loo-fraction)
  PoolStrategy pool_strategy = PoolStrategy::kClassShared;
  /// Backing storage for all round payloads. When set, the session resets
  /// and reuses it at every round boundary (so a sweep worker running
  /// thousands of sessions allocates its payload memory once); the arena
  /// must outlive the session and not be shared with a concurrently
  /// running one. When null the session owns a private arena.
  packet::PayloadArena* arena = nullptr;
};

/// Outcome of a single round.
struct RoundOutcome {
  packet::NodeId alice;
  std::size_t universe = 0;                // N
  std::vector<std::size_t> pairwise_size;  // M_i, aligned with receivers
  std::size_t pool_size = 0;               // M
  std::size_t group_packets = 0;           // L
  std::size_t secret_bits = 0;             // L * payload * 8
  /// Distinct data-plane packets the algorithm fundamentally needs
  /// (N + (M - L) for the group algorithm, N + (n-2)L for unicast) —
  /// retransmissions excluded; this is what the Figure-1 forms count.
  std::size_t data_packets = 0;
  analysis::LeakageReport leakage;         // vs. the (union) eavesdropper
};

/// Outcome of a whole session.
struct SessionResult {
  std::vector<RoundOutcome> rounds;
  std::vector<std::uint8_t> secret;  // concatenated s-payloads, all rounds
  net::Ledger ledger;                // every byte transmitted in this run
  double duration_s = 0.0;           // virtual airtime incl. gaps

  [[nodiscard]] std::size_t secret_bits() const { return secret.size() * 8; }

  /// Equivocation-weighted reliability across rounds (the per-experiment
  /// number aggregated in Figure 2).
  [[nodiscard]] double reliability() const;

  /// Paper's efficiency: secret bits / all transmitted bits.
  [[nodiscard]] double efficiency() const;

  /// Secret bits / data-plane payload bits (x- and z-payloads only) — the
  /// quantity the Figure-1 closed forms model.
  [[nodiscard]] double data_efficiency(std::size_t payload_bytes) const;

  /// Secret generation rate in bits per second of channel time.
  [[nodiscard]] double secret_rate_bps() const;
};

class GroupSecretSession {
 public:
  /// The medium must have >= 2 attached terminals. Eavesdroppers attached
  /// to the medium are scored as one (multi-antenna) adversary holding the
  /// union of their receptions. Throws std::invalid_argument on too few
  /// terminals, N == 0 or empty payloads.
  GroupSecretSession(net::Medium& medium, SessionConfig config);

  /// Run the configured number of rounds and return the result. May be
  /// called repeatedly; each call continues the same virtual clock and
  /// round counter but returns an independent result (ledger delta of
  /// this run only).
  SessionResult run();

  [[nodiscard]] const SessionConfig& config() const { return config_; }

 private:
  RoundOutcome run_round(packet::NodeId alice, packet::RoundId round,
                         SessionResult& result);

  [[nodiscard]] packet::PayloadArena& arena() {
    return config_.arena != nullptr ? *config_.arena : owned_arena_;
  }

  net::Medium* medium_;  // never null
  SessionConfig config_;
  packet::PayloadArena owned_arena_;  // used when config_.arena is null
  std::uint32_t next_round_ = 0;
  // Round-loop scratch reused across rounds: contents are rewritten every
  // use, only capacity survives, so reuse cannot change observable bytes.
  packet::Packet scratch_pkt_;
  std::vector<std::size_t> receiver_cells_;
};

}  // namespace thinair::core
