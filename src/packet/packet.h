#pragma once
// Packet representation.
//
// The paper's protocol exchanges several kinds of packets (Sec. 3):
//   x  random payloads broadcast unreliably over the lossy channel;
//   z  coded payloads sent by *reliable* broadcast in phase 2;
//   reception reports, combination announcements and acks: control
//      messages, also reliably broadcast.
// y- and s-packets never appear on the air (only their combination
// *identities* do) — that is the whole point of the scheme — so they are
// not Packet instances; they live as decoded payloads at each terminal.

#include <cstdint>
#include <string_view>
#include <vector>

#include "packet/types.h"

namespace thinair::packet {

enum class Kind : std::uint8_t {
  kData = 0,         // x-packet (random payload)
  kCoded = 1,        // z-packet (coded payload, phase 2 step 1)
  kReport = 2,       // reception report (phase 1 step 2)
  kAnnouncement = 3, // combination identities (phase 1 step 3 / phase 2 step 3)
  kAck = 4,          // link-layer ack used by reliable broadcast
  kCipher = 5,       // encrypted application payload (unicast baseline)
};

[[nodiscard]] std::string_view to_string(Kind k);

using Payload = std::vector<std::uint8_t>;

/// On-air representation of a frame. `payload` carries the body whose size
/// is what the efficiency metric charges; `header_size()` adds the fixed
/// per-frame overhead (kind, source, round, sequence, length, FCS) modeled
/// after a slim 802.11-style header.
struct Packet {
  Kind kind = Kind::kData;
  NodeId source;
  RoundId round;
  PacketSeq seq;
  Payload payload;

  /// Fixed per-frame header + trailer bytes used for byte accounting.
  [[nodiscard]] static constexpr std::size_t header_size() { return 16; }

  [[nodiscard]] std::size_t wire_size() const {
    return header_size() + payload.size();
  }
};

/// The payload size used throughout the paper's testbed: 100-byte packets
/// (Sec. 4), i.e. 800 secret bits per fully-secret packet.
inline constexpr std::size_t kPaperPayloadBytes = 100;

}  // namespace thinair::packet
