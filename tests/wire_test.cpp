// thinaird wire codec: encode/decode round trip and fuzz-style decode
// robustness (truncations, bad magic/version/type, oversized lengths,
// flipped bytes), for one-frame datagrams (decode) and multi-frame ones
// (decode_all) — both must stay total under ASan/UBSan.
#include <gtest/gtest.h>

#include <vector>

#include "channel/rng.h"
#include "netd/wire.h"

namespace thinair::netd {
namespace {

Frame random_frame(channel::Rng& rng) {
  Frame f;
  f.header.type = static_cast<std::uint8_t>(rng.next_below(kMaxFrameType + 1));
  f.header.flags = static_cast<std::uint8_t>(rng.next_u64());
  f.header.phase = static_cast<std::uint8_t>(rng.next_below(6));
  f.header.node = static_cast<std::uint16_t>(rng.next_u64());
  f.header.session = rng.next_u64();
  f.header.round = static_cast<std::uint32_t>(rng.next_u64());
  f.header.seq = static_cast<std::uint32_t>(rng.next_u64());
  f.header.aux = static_cast<std::uint32_t>(rng.next_u64());
  f.header.reserved = static_cast<std::uint16_t>(rng.next_u64());
  f.payload.resize(rng.next_below(300));
  for (auto& b : f.payload) b = rng.next_byte();
  return f;
}

// 1-6 seeded frames back to back, within kMaxDatagram. `starts`, when
// given, receives each frame's offset.
std::vector<std::uint8_t> random_datagram(
    channel::Rng& rng, std::vector<std::size_t>* starts = nullptr) {
  std::vector<std::uint8_t> out;
  const std::size_t frames = 1 + rng.next_below(6);
  for (std::size_t i = 0; i < frames; ++i) {
    const Frame f = random_frame(rng);
    if (out.size() + kHeaderSize + f.payload.size() > kMaxDatagram) break;
    if (starts != nullptr) starts->push_back(out.size());
    encode_into(f, out);
  }
  return out;
}

// The frames re-encoded back to back.
std::vector<std::uint8_t> reencode(const std::vector<Frame>& frames) {
  std::vector<std::uint8_t> out;
  for (const Frame& f : frames) encode_into(f, out);
  return out;
}

TEST(Wire, HeaderSizeIsFixed) {
  const Frame f;
  EXPECT_EQ(encode(f).size(), kHeaderSize);
}

TEST(Wire, RoundTripDifferential) {
  channel::Rng rng(0xC0DEC);
  for (int i = 0; i < 2000; ++i) {
    Frame f = random_frame(rng);
    const std::vector<std::uint8_t> wire = encode(f);
    ASSERT_EQ(wire.size(), kHeaderSize + f.payload.size());
    const DecodeResult d = decode(wire);
    ASSERT_EQ(d.error, DecodeError::kNone) << to_string(d.error);
    ASSERT_TRUE(d.frame.has_value());
    // encode() stamps payload_len; mirror it before comparing.
    f.header.payload_len = static_cast<std::uint16_t>(f.payload.size());
    EXPECT_EQ(*d.frame, f);
    // Re-encode must be byte-identical.
    EXPECT_EQ(encode(*d.frame), wire);
  }
}

TEST(Wire, EncodeRejectsOversizedPayload) {
  Frame f;
  f.payload.resize(kMaxPayload + 1);
  EXPECT_THROW((void)encode(f), std::invalid_argument);
}

TEST(Wire, DecodeTooShort) {
  channel::Rng rng(7);
  const Frame f = random_frame(rng);
  const std::vector<std::uint8_t> wire = encode(f);
  for (std::size_t len = 0; len < kHeaderSize; ++len) {
    const DecodeResult d =
        decode(std::span<const std::uint8_t>(wire.data(), len));
    EXPECT_EQ(d.error, DecodeError::kTooShort);
    EXPECT_FALSE(d.frame.has_value());
  }
}

TEST(Wire, DecodeTruncatedAndExtendedPayloads) {
  channel::Rng rng(8);
  Frame f = random_frame(rng);
  f.payload.assign(64, 0x5A);
  const std::vector<std::uint8_t> wire = encode(f);
  // Any length mismatch between payload_len and the datagram is rejected.
  for (std::size_t cut = kHeaderSize; cut < wire.size(); ++cut) {
    const DecodeResult d =
        decode(std::span<const std::uint8_t>(wire.data(), cut));
    EXPECT_EQ(d.error, DecodeError::kLengthMismatch);
  }
  std::vector<std::uint8_t> extended = wire;
  extended.push_back(0);
  EXPECT_EQ(decode(extended).error, DecodeError::kLengthMismatch);
}

TEST(Wire, DecodeBadMagicVersionType) {
  Frame f;
  std::vector<std::uint8_t> wire = encode(f);
  {
    auto bad = wire;
    bad[0] ^= 0xFF;
    EXPECT_EQ(decode(bad).error, DecodeError::kBadMagic);
  }
  {
    auto bad = wire;
    bad[2] = kVersion + 1;
    EXPECT_EQ(decode(bad).error, DecodeError::kBadVersion);
  }
  {
    auto bad = wire;
    bad[3] = kMaxFrameType + 1;
    EXPECT_EQ(decode(bad).error, DecodeError::kBadType);
  }
}

TEST(Wire, DecodeOversizedLengthField) {
  Frame f;
  std::vector<std::uint8_t> wire = encode(f);
  // Claim a payload length beyond kMaxPayload without providing bytes.
  const std::uint16_t huge = static_cast<std::uint16_t>(kMaxPayload + 1);
  wire[28] = static_cast<std::uint8_t>(huge);
  wire[29] = static_cast<std::uint8_t>(huge >> 8);
  EXPECT_EQ(decode(wire).error, DecodeError::kOversized);
}

TEST(Wire, FuzzRandomBuffersNeverCrash) {
  channel::Rng rng(0xF022);
  std::size_t decoded = 0;
  for (int i = 0; i < 20000; ++i) {
    std::vector<std::uint8_t> buf(rng.next_below(96));
    for (auto& b : buf) b = rng.next_byte();
    const DecodeResult d = decode(buf);
    if (d.frame.has_value()) {
      ++decoded;
      EXPECT_EQ(d.error, DecodeError::kNone);
    } else {
      EXPECT_NE(d.error, DecodeError::kNone);
    }
  }
  // Random bytes essentially never form a valid frame (magic + version).
  EXPECT_LT(decoded, 5u);
}

TEST(Wire, FuzzFlippedFieldsOnValidFrames) {
  channel::Rng rng(0xF1E1D);
  for (int i = 0; i < 4000; ++i) {
    const Frame f = random_frame(rng);
    std::vector<std::uint8_t> wire = encode(f);
    // Flip 1-4 random bytes anywhere in the datagram.
    const std::size_t flips = 1 + rng.next_below(4);
    for (std::size_t k = 0; k < flips; ++k)
      wire[rng.next_below(wire.size())] ^= static_cast<std::uint8_t>(
          1u << rng.next_below(8));
    const DecodeResult d = decode(wire);  // must not crash; any verdict ok
    if (d.frame.has_value()) {
      // Whatever decoded must re-encode to the same bytes (header integrity).
      EXPECT_EQ(encode(*d.frame), wire);
    }
  }
}

TEST(Wire, DecodeAllRoundTrip) {
  channel::Rng rng(0xA11F);
  for (int i = 0; i < 1000; ++i) {
    std::vector<Frame> frames;
    std::vector<std::uint8_t> wire;
    for (std::size_t k = 1 + rng.next_below(6); k > 0; --k) {
      Frame f = random_frame(rng);
      f.header.payload_len = static_cast<std::uint16_t>(f.payload.size());
      encode_into(f, wire);
      frames.push_back(std::move(f));
    }
    const DecodeAllResult d = decode_all(wire);
    ASSERT_EQ(d.error, DecodeError::kNone) << to_string(d.error);
    EXPECT_EQ(d.frames, frames);
    // decode() parses exactly one frame per datagram.
    EXPECT_EQ(decode(wire).error, frames.size() == 1
                                      ? DecodeError::kNone
                                      : DecodeError::kLengthMismatch);
  }
}

TEST(Wire, DecodeAllRejectsEmptyAndOversizedDatagrams) {
  EXPECT_EQ(decode_all({}).error, DecodeError::kTooShort);

  Frame f;
  f.payload.resize(kMaxPayload);
  std::vector<std::uint8_t> wire = encode(f);
  ASSERT_EQ(wire.size(), kMaxDatagram);
  EXPECT_EQ(decode_all(wire).frames.size(), 1u);
  // One more frame, valid on its own, takes the datagram past the cap.
  encode_into(Frame{}, wire);
  const DecodeAllResult d = decode_all(wire);
  EXPECT_EQ(d.error, DecodeError::kOversized);
  EXPECT_TRUE(d.frames.empty());
}

// Seeded multi-frame datagrams, truncated, extended, spliced and with a
// frame's payload_len flipped. decode_all must return a verdict for each
// (never throw, never read out of bounds), reject with no frames, or
// accept frames that re-encode to exactly the input bytes.
TEST(Wire, FuzzDecodeAllMutatedDatagrams) {
  channel::Rng rng(0xD1A6);
  std::size_t accepted = 0, rejected = 0;
  for (int i = 0; i < 8000; ++i) {
    std::vector<std::size_t> starts;
    std::vector<std::uint8_t> wire = random_datagram(rng, &starts);
    // Every other cut lands on a frame boundary.
    const auto cut = [&rng](const std::vector<std::uint8_t>& bytes,
                            const std::vector<std::size_t>& bounds) {
      return rng.next_below(2) == 0 ? bounds[rng.next_below(bounds.size())]
                                    : rng.next_below(bytes.size() + 1);
    };
    switch (i % 4) {
      case 0:  // truncated
        wire.resize(cut(wire, starts));
        break;
      case 1:  // extended
        for (std::size_t k = 1 + rng.next_below(40); k > 0; --k)
          wire.push_back(rng.next_byte());
        break;
      case 2: {  // spliced: a prefix of this datagram, a suffix of another
        std::vector<std::size_t> other_starts;
        const std::vector<std::uint8_t> other =
            random_datagram(rng, &other_starts);
        wire.resize(cut(wire, starts));
        wire.insert(wire.end(),
                    other.begin() + static_cast<std::ptrdiff_t>(
                                        cut(other, other_starts)),
                    other.end());
        break;
      }
      default: {  // one bit of one frame's payload_len flipped
        const std::size_t at = starts[rng.next_below(starts.size())] + 28 +
                               rng.next_below(2);
        wire[at] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
        break;
      }
    }
    const DecodeAllResult d = decode_all(wire);
    if (d.error == DecodeError::kNone) {
      ++accepted;
      ASSERT_FALSE(d.frames.empty());
      EXPECT_EQ(reencode(d.frames), wire);
    } else {
      ++rejected;
      EXPECT_TRUE(d.frames.empty());
    }
  }
  // Both verdicts occur: cuts and splices at frame boundaries stay valid
  // (unless empty or past the cap); the rest must be rejected.
  EXPECT_GT(accepted, 500u) << accepted;
  EXPECT_GT(rejected, 5000u) << rejected;
}

TEST(Wire, FuzzDecodeAllRandomBuffers) {
  channel::Rng rng(0xB0F);
  for (int i = 0; i < 20000; ++i) {
    std::vector<std::uint8_t> buf(rng.next_below(200));
    for (auto& b : buf) b = rng.next_byte();
    // Seed half the buffers with a valid frame's magic and version so the
    // parse gets past the first checks.
    if (i % 2 == 0 && buf.size() >= 3) {
      buf[0] = static_cast<std::uint8_t>(kMagic);
      buf[1] = static_cast<std::uint8_t>(kMagic >> 8);
      buf[2] = kVersion;
    }
    const DecodeAllResult d = decode_all(buf);
    EXPECT_EQ(d.error == DecodeError::kNone, !d.frames.empty());
    if (!d.frames.empty()) {
      EXPECT_EQ(reencode(d.frames), buf);
    }
  }
}

}  // namespace
}  // namespace thinair::netd
