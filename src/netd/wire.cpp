#include "netd/wire.h"

#include <cstring>
#include <stdexcept>

namespace thinair::netd {

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

std::string_view to_string(DecodeError e) {
  switch (e) {
    case DecodeError::kNone: return "none";
    case DecodeError::kTooShort: return "too-short";
    case DecodeError::kBadMagic: return "bad-magic";
    case DecodeError::kBadVersion: return "bad-version";
    case DecodeError::kBadType: return "bad-type";
    case DecodeError::kLengthMismatch: return "length-mismatch";
    case DecodeError::kOversized: return "oversized";
  }
  return "unknown";
}

void encode_into(const Frame& frame, std::vector<std::uint8_t>& out) {
  if (frame.payload.size() > kMaxPayload)
    throw std::invalid_argument("netd::encode: payload exceeds kMaxPayload");

  const FrameHeader& h = frame.header;
  put_u16(out, h.magic);
  out.push_back(h.version);
  out.push_back(h.type);
  out.push_back(h.flags);
  out.push_back(h.phase);
  put_u16(out, h.node);
  put_u64(out, h.session);
  put_u32(out, h.round);
  put_u32(out, h.seq);
  put_u32(out, h.aux);
  put_u16(out, static_cast<std::uint16_t>(frame.payload.size()));
  put_u16(out, h.reserved);
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
}

std::vector<std::uint8_t> encode(const Frame& frame) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderSize + frame.payload.size());
  encode_into(frame, out);
  return out;
}

namespace {

/// Parse the header at the front of `bytes`, which holds at least
/// kHeaderSize bytes, checking every field that does not depend on where
/// the frame ends.
DecodeError read_header(std::span<const std::uint8_t> bytes, FrameHeader& h) {
  const std::uint8_t* p = bytes.data();
  h.magic = get_u16(p);
  if (h.magic != kMagic) return DecodeError::kBadMagic;
  h.version = p[2];
  if (h.version != kVersion) return DecodeError::kBadVersion;
  h.type = p[3];
  if (h.type > kMaxFrameType) return DecodeError::kBadType;
  h.flags = p[4];
  h.phase = p[5];
  h.node = get_u16(p + 6);
  h.session = get_u64(p + 8);
  h.round = get_u32(p + 16);
  h.seq = get_u32(p + 20);
  h.aux = get_u32(p + 24);
  h.payload_len = get_u16(p + 28);
  h.reserved = get_u16(p + 30);
  if (h.payload_len > kMaxPayload) return DecodeError::kOversized;
  return DecodeError::kNone;
}

}  // namespace

DecodeResult decode(std::span<const std::uint8_t> datagram) {
  if (datagram.size() < kHeaderSize)
    return {std::nullopt, DecodeError::kTooShort};
  Frame frame;
  if (const DecodeError e = read_header(datagram, frame.header);
      e != DecodeError::kNone)
    return {std::nullopt, e};
  if (frame.header.payload_len != datagram.size() - kHeaderSize)
    return {std::nullopt, DecodeError::kLengthMismatch};
  frame.payload.assign(datagram.begin() + kHeaderSize, datagram.end());
  return {std::move(frame), DecodeError::kNone};
}

DecodeAllResult decode_all(std::span<const std::uint8_t> datagram) {
  DecodeAllResult result;
  const auto reject = [&result](DecodeError e) {
    result.frames.clear();
    result.error = e;
    return std::move(result);
  };
  if (datagram.size() > kMaxDatagram) return reject(DecodeError::kOversized);
  // An empty datagram reads as one frame too short for its header.
  do {
    if (datagram.size() < kHeaderSize) return reject(DecodeError::kTooShort);
    Frame& frame = result.frames.emplace_back();
    if (const DecodeError e = read_header(datagram, frame.header);
        e != DecodeError::kNone)
      return reject(e);
    const std::size_t len = frame.header.payload_len;
    if (len > datagram.size() - kHeaderSize)
      return reject(DecodeError::kLengthMismatch);
    frame.payload.assign(datagram.begin() + kHeaderSize,
                         datagram.begin() + kHeaderSize + len);
    datagram = datagram.subspan(kHeaderSize + len);
  } while (!datagram.empty());
  return result;
}

}  // namespace thinair::netd
