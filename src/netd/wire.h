#pragma once
// The thinaird wire protocol: frames of a fixed 32-byte little-endian
// header followed by an optional payload, carried back to back, one or
// more per UDP datagram.
//
// The daemon plays the paper's broadcast medium over real sockets, so the
// frame header carries exactly what the medium seam needs to route and
// account a transmission: which session, which node, which protocol phase,
// which round, and a sequence number — plus an `aux` word whose meaning
// depends on the frame type (delivery mask for kTxReport, relay stream
// position for kRelay, first missing relay seq for kNack, the sender's
// stream seq for a client's kData/kCtrl).
//
// A sender packs every frame it has ready for one destination into one
// datagram of at most kMaxDatagram bytes, the size of one frame at the
// largest payload. decode_all() splits a datagram into its frames;
// decode() parses a datagram that holds exactly one.
//
// Decoding is strict and total: neither decoder reads out of bounds or
// throws, and each classifies every malformed input (short header, bad
// magic or version, unknown type, length mismatch with the datagram,
// oversized payload or datagram). decode_all() rejects the whole datagram
// when any frame in it is malformed. The fuzz suite in tests/wire_test.cpp
// holds both to that under ASan/UBSan.

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace thinair::netd {

inline constexpr std::uint16_t kMagic = 0x5441;  // "TA" little-endian
inline constexpr std::uint8_t kVersion = 2;
inline constexpr std::size_t kHeaderSize = 32;
/// Hard cap on payload bytes per frame: the largest that keeps one frame
/// in one UDP datagram over IPv4 (65,507 bytes). The largest control
/// payloads are the combination announcements (M combinations of up to N
/// 5-byte terms each). They outgrow 8 KiB from about N = 130, below
/// fig1's N = 200, and this cap from about N = 350. payload_len, a u16,
/// still holds kMaxPayload + 1.
inline constexpr std::size_t kMaxPayload = 65475;
/// Hard cap on one datagram: one frame at the largest payload, or several
/// smaller frames back to back. Datagrams past ~1.4 KiB IP-fragment off
/// loopback.
inline constexpr std::size_t kMaxDatagram = kHeaderSize + kMaxPayload;
/// The relay stream's recovery horizon, in encoded frame bytes: the hub
/// keeps each member's newest relays up to this total for kNack replay,
/// and a member holds out-of-order relays up to the same total. Several
/// full datagrams, so losing any one datagram of relays is recoverable.
inline constexpr std::size_t kRelayWindowBytes = 4 * kMaxDatagram;

/// Every kind of frame the daemon or a client can emit.
enum class FrameType : std::uint8_t {
  kAttach = 0,    // client -> hub: join a session (payload: AttachRequest)
  kAttachOk = 1,  // hub -> client: attach accepted (aux = members so far)
  kReady = 2,     // hub -> client: roster complete (payload: member ids)
  kData = 3,      // client -> hub: lossy broadcast (aux = stream seq)
  kTxReport = 4,  // hub -> sender: kData accounted (aux = delivered mask)
  kCtrl = 5,      // client -> hub: reliable broadcast (aux = stream seq)
  kCtrlAck = 6,   // hub -> sender: kCtrl accepted and relayed
  kRelay = 7,     // hub -> peer: relayed frame (aux = per-member relay seq)
  kNack = 8,      // client -> hub: relay gap (aux = first missing seq)
  kBye = 9,       // client -> hub: done with the session
  kError = 10,    // hub -> client: protocol violation (payload: message)
  kExpired = 11,  // hub -> client: session idle-expired
};
inline constexpr std::uint8_t kMaxFrameType = 11;

/// Protocol phase of a relayed frame, so a receiving state machine can
/// dispatch without decoding payloads it does not expect.
enum class WirePhase : std::uint8_t {
  kXData = 0,          // phase 1 step 1: an x-packet payload
  kReport = 1,         // phase 1 step 2: a reception report
  kYAnnouncement = 2,  // phase 1 step 3: y identities
  kSAnnouncement = 3,  // phase 2 step 3: s identities
  kZCoded = 4,         // phase 2 step 1: a z-packet payload
  kEndOfX = 5,         // Alice's end-of-x marker (payload = u32 universe N;
                       // relays repurpose aux for the stream seq)
};

/// Header flag bits. Bits 1-7 are undefined; decode() does not check them.
inline constexpr std::uint8_t kFlagEve = 0x01;  // kAttach: as eavesdropper

struct FrameHeader {
  std::uint16_t magic = kMagic;
  std::uint8_t version = kVersion;
  std::uint8_t type = 0;   // FrameType
  std::uint8_t flags = 0;  // kFlag* bits
  std::uint8_t phase = 0;  // WirePhase (kData/kCtrl/kRelay frames)
  std::uint16_t node = 0;  // sender's node id (client->hub) or relay source
  std::uint64_t session = 0;
  std::uint32_t round = 0;
  std::uint32_t seq = 0;  // per-(phase, round) packet sequence
  std::uint32_t aux = 0;  // type-dependent (see FrameType)
  std::uint16_t payload_len = 0;
  std::uint16_t reserved = 0;

  friend bool operator==(const FrameHeader&, const FrameHeader&) = default;
};

struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;

  friend bool operator==(const Frame&, const Frame&) = default;
};

enum class DecodeError : std::uint8_t {
  kNone = 0,
  kTooShort,        // datagram shorter than the fixed header
  kBadMagic,        // first two bytes are not kMagic
  kBadVersion,      // version byte != kVersion
  kBadType,         // type byte > kMaxFrameType
  kLengthMismatch,  // payload_len disagrees with the bytes that follow
  kOversized,       // payload_len > kMaxPayload, or datagram > kMaxDatagram
};

[[nodiscard]] std::string_view to_string(DecodeError e);

struct DecodeResult {
  std::optional<Frame> frame;  // engaged iff error == kNone
  DecodeError error = DecodeError::kNone;
};

struct DecodeAllResult {
  std::vector<Frame> frames;  // non-empty iff error == kNone
  DecodeError error = DecodeError::kNone;
};

/// Append one serialized frame to `out`. header.payload_len is taken from
/// payload.size() (the field value in `header` is ignored). Throws
/// std::invalid_argument when the payload exceeds kMaxPayload.
void encode_into(const Frame& frame, std::vector<std::uint8_t>& out);

/// Serialize a frame into a one-frame datagram (see encode_into).
[[nodiscard]] std::vector<std::uint8_t> encode(const Frame& frame);

/// Parse a datagram that holds exactly one frame. Total: never throws,
/// never reads out of bounds.
[[nodiscard]] DecodeResult decode(std::span<const std::uint8_t> datagram);

/// Split a datagram into its frames, in order. Total: never throws, never
/// reads out of bounds; one malformed frame rejects the whole datagram.
[[nodiscard]] DecodeAllResult decode_all(
    std::span<const std::uint8_t> datagram);

}  // namespace thinair::netd
