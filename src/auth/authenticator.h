#pragma once
// Message authentication for the protocol's control plane.
//
// Against an *active* Eve the terminals must authenticate reception
// reports, announcements and z-packets, or Eve could impersonate a
// terminal (Sec. 2). The paper notes the bootstrap is fundamentally
// unavoidable: the group shares a small initial secret when it first
// meets; every later message consumes a fresh one-time MAC key drawn from
// the SecretPool that the protocol itself keeps refilling — so the system
// becomes self-sustaining ("any shared secrets subsequently generated do
// not depend in any way on the bootstrap information").
//
// The Authenticator wraps that lifecycle: seed it with bootstrap bytes,
// refill it with protocol output, and tag/verify messages. Both sides must
// consume keys in the same order (the protocol's messages are strictly
// ordered, so a per-session counter suffices).

#include <cstdint>
#include <optional>
#include <vector>

#include "auth/onetime_mac.h"
#include "core/secret.h"

namespace thinair::auth {

struct AuthenticatedMessage {
  std::vector<std::uint8_t> body;
  std::uint64_t sequence = 0;  // key index used
  MacTag tag;
};

class Authenticator {
 public:
  /// `bootstrap` seeds the key pool (the small initial shared secret).
  explicit Authenticator(std::vector<std::uint8_t> bootstrap);

  /// Add freshly agreed secret bytes (protocol output) to the key pool.
  void refill(const std::vector<std::uint8_t>& secret_bytes);

  /// Tag a message, consuming one key. Returns std::nullopt when the pool
  /// is exhausted (callers must then run more protocol rounds).
  [[nodiscard]] std::optional<AuthenticatedMessage> sign(
      std::vector<std::uint8_t> body);

  /// Verify a message, consuming the *same* key sequence. Out-of-order
  /// sequences fail (keys are one-time; replays must not verify).
  [[nodiscard]] bool verify(const AuthenticatedMessage& msg);

 private:
  [[nodiscard]] std::optional<MacKey> key_for(std::uint64_t sequence);

  core::SecretPool pool_;
  std::uint64_t next_sign_ = 0;
  std::uint64_t next_verify_ = 0;
  // Keys already drawn from the pool, indexed by sequence; sign/verify may
  // interleave so both sides of a simulated pair can share one instance in
  // tests.
  std::vector<MacKey> drawn_;
};

}  // namespace thinair::auth
