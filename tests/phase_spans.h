#pragma once
// Test helper for the phase functions' arena form: owning payloads go in
// as spans (an empty span is a missed packet), and span results come
// back as owning payloads so tests compare them byte for byte.

#include <cstdint>
#include <span>
#include <vector>

#include "channel/rng.h"
#include "packet/arena.h"
#include "packet/packet.h"

namespace thinair::test {

/// `n` payloads of `size` random bytes.
inline std::vector<packet::Payload> random_payloads(std::size_t n,
                                                    std::size_t size,
                                                    std::uint64_t seed) {
  channel::Rng rng(seed);
  std::vector<packet::Payload> out(n);
  for (auto& p : out) {
    p.resize(size);
    for (auto& b : p) b = rng.next_byte();
  }
  return out;
}

/// Spans viewing every payload; `payloads` must outlive them.
inline std::vector<packet::ConstByteSpan> spans(
    std::span<const packet::Payload> payloads) {
  return std::vector<packet::ConstByteSpan>(payloads.begin(), payloads.end());
}

/// What a node holds: a span of payloads[i] for every index in `held`,
/// an empty span for the rest.
inline std::vector<packet::ConstByteSpan> held_spans(
    std::span<const packet::Payload> payloads,
    std::span<const std::uint32_t> held) {
  std::vector<packet::ConstByteSpan> out(payloads.size());
  for (const std::uint32_t i : held) out[i] = payloads[i];
  return out;
}

/// Owning copies of `views`; an empty span becomes an empty payload.
inline std::vector<packet::Payload> bytes(
    std::span<const packet::ConstByteSpan> views) {
  std::vector<packet::Payload> out;
  out.reserve(views.size());
  for (const packet::ConstByteSpan v : views)
    out.emplace_back(v.begin(), v.end());
  return out;
}

}  // namespace thinair::test
