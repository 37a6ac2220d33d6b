#include "auth/authenticator.h"

namespace thinair::auth {

Authenticator::Authenticator(std::vector<std::uint8_t> bootstrap) {
  pool_.deposit(bootstrap);
}

void Authenticator::refill(const std::vector<std::uint8_t>& secret_bytes) {
  pool_.deposit(secret_bytes);
}

std::optional<MacKey> Authenticator::key_for(std::uint64_t sequence) {
  while (drawn_.size() <= sequence) {
    auto bytes = pool_.draw(MacKey::kBytes);
    if (!bytes.has_value()) return std::nullopt;
    drawn_.push_back(MacKey::from_bytes(*bytes));
  }
  return drawn_[sequence];
}

std::optional<AuthenticatedMessage> Authenticator::sign(
    std::vector<std::uint8_t> body) {
  const auto key = key_for(next_sign_);
  if (!key.has_value()) return std::nullopt;
  AuthenticatedMessage msg{std::move(body), next_sign_, {}};
  msg.tag = compute_mac(*key, msg.body);
  ++next_sign_;
  return msg;
}

bool Authenticator::verify(const AuthenticatedMessage& msg) {
  // One-time keys: only the next expected sequence may verify, so replayed
  // or reordered traffic is rejected outright.
  if (msg.sequence != next_verify_) return false;
  const auto key = key_for(msg.sequence);
  if (!key.has_value()) return false;
  if (!verify_mac(*key, msg.body, msg.tag)) return false;
  ++next_verify_;
  return true;
}

}  // namespace thinair::auth
