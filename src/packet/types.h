#pragma once
// Strong identifier types shared across the library.

#include <compare>
#include <cstdint>
#include <functional>
#include <iosfwd>

namespace thinair::packet {

/// Identifies a node attached to the broadcast network. Terminals are
/// numbered 0..n-1 (terminal 0 plays "Alice" in the paper's exposition);
/// the eavesdropper and interferers receive ids outside that range.
struct NodeId {
  std::uint16_t value = 0;
  friend constexpr auto operator<=>(NodeId, NodeId) = default;
};

/// Identifies a packet within one protocol round: x-packets are numbered
/// 0..N-1 in transmission order, and derived packets (y/z/s) are numbered
/// within their own kind.
struct PacketSeq {
  std::uint32_t value = 0;
  friend constexpr auto operator<=>(PacketSeq, PacketSeq) = default;
};

/// Identifies one protocol round (one terminal playing Alice once).
struct RoundId {
  std::uint32_t value = 0;
  friend constexpr auto operator<=>(RoundId, RoundId) = default;
};

std::ostream& operator<<(std::ostream& os, NodeId id);

}  // namespace thinair::packet

template <>
struct std::hash<thinair::packet::NodeId> {
  std::size_t operator()(thinair::packet::NodeId id) const noexcept {
    return std::hash<std::uint16_t>{}(id.value);
  }
};
