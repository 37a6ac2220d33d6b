#pragma once
// The unicast baseline of Sec. 3.2 / Figure 1.
//
// After phase 1, Alice holds a pair-wise secret with each terminal. The
// naive way to a group secret is to pick one (the first terminal's) as the
// group secret and unicast it to every other terminal, one-time-padded
// with that terminal's own pair-wise secret. Correct and perfectly secret
// when the pads are — but it costs (n - 2) * L extra packet transmissions,
// so its efficiency L / (N + (n-2)L) collapses as n grows. That collapse
// is the motivation for phase 2's coded redistribution.

#include "core/session.h"

namespace thinair::core {

/// Runs phase 1 identically to GroupSecretSession, then distributes the
/// group secret by pad-and-unicast instead of phase 2. Produces the same
/// result/metrics types so benches can compare the two algorithms
/// side by side.
class UnicastSession {
 public:
  /// Same preconditions and throws as GroupSecretSession's constructor.
  UnicastSession(net::Medium& medium, SessionConfig config);

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
  // Round-loop scratch, reused like GroupSecretSession's: only capacity
  // survives a round.
  packet::Packet scratch_pkt_;
  std::vector<std::size_t> receiver_cells_;
};

}  // namespace thinair::core
