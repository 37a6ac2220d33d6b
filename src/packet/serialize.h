#pragma once
// Wire encodings for the protocol's control messages.
//
// The efficiency metric of Sec. 4 divides secret bits by *all* transmitted
// bits, so control messages must have a concrete size. We define compact,
// round-trippable encodings for the two control payloads:
//   - reception reports (phase 1 step 2): a bitmap over the N x-packets;
//   - combination announcements (phase 1 step 3 / phase 2 steps 1 & 3):
//     a list of Combination descriptors.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "packet/combination.h"
#include "packet/packet.h"

namespace thinair::packet {

/// Which of the N x-packets a terminal received, as indices in [0, N).
struct ReceptionReport {
  std::uint32_t universe = 0;           // N
  std::vector<std::uint32_t> received;  // strictly increasing indices
  friend bool operator==(const ReceptionReport&,
                         const ReceptionReport&) = default;
};

[[nodiscard]] Payload encode(const ReceptionReport& r);
/// encode() into a caller-owned payload (cleared first): a session
/// re-encoding into the same buffer every round reuses its capacity.
void encode_into(const ReceptionReport& r, Payload& out);
/// Total: rejects (nullopt) a universe above `max_universe` and any input
/// whose length is not exactly the encoding's, never throws, and never
/// allocates more than the reported indices.
[[nodiscard]] std::optional<ReceptionReport> decode_report(
    std::span<const std::uint8_t> bytes, std::uint32_t max_universe);

/// A batch of combination identities (one per derived packet).
struct Announcement {
  std::vector<Combination> combinations;
  friend bool operator==(const Announcement&, const Announcement&) = default;
};

[[nodiscard]] Payload encode(const Announcement& a);
/// encode() into a caller-owned payload (cleared first), reusing capacity.
void encode_into(const Announcement& a, Payload& out);
/// Total: rejects (nullopt) truncated or trailing input, never throws, and
/// reserves nothing its input is too short to fill.
[[nodiscard]] std::optional<Announcement> decode_announcement(
    std::span<const std::uint8_t> bytes);

}  // namespace thinair::packet
