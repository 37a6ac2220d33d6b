#include "packet/serialize.h"

namespace thinair::packet {

namespace {

void put_u16(Payload& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(Payload& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v & 0xFF));
    v >>= 8;
  }
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::optional<std::uint8_t> u8() {
    if (pos_ + 1 > bytes_.size()) return std::nullopt;
    return bytes_[pos_++];
  }
  std::optional<std::uint16_t> u16() {
    if (pos_ + 2 > bytes_.size()) return std::nullopt;
    const std::uint16_t v = static_cast<std::uint16_t>(
        bytes_[pos_] | (static_cast<std::uint16_t>(bytes_[pos_ + 1]) << 8));
    pos_ += 2;
    return v;
  }
  std::optional<std::uint32_t> u32() {
    if (pos_ + 4 > bytes_.size()) return std::nullopt;
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
      v = (v << 8) | bytes_[pos_ + static_cast<std::size_t>(i)];
    pos_ += 4;
    return v;
  }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }
  [[nodiscard]] bool done() const { return pos_ == bytes_.size(); }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

Payload encode(const ReceptionReport& r) {
  Payload out;
  encode_into(r, out);
  return out;
}

void encode_into(const ReceptionReport& r, Payload& out) {
  out.clear();
  put_u32(out, r.universe);
  // Bitmap over the universe: ceil(N / 8) bytes, appended zeroed then set
  // in place (no temporary). Sized in std::size_t: N + 7 wraps in 32 bits.
  const std::size_t head = out.size();
  out.resize(head + (std::size_t{r.universe} + 7) / 8, 0);
  for (std::uint32_t idx : r.received) {
    if (idx < r.universe)
      out[head + idx / 8] |= static_cast<std::uint8_t>(1u << (idx % 8));
  }
}

std::optional<ReceptionReport> decode_report(
    std::span<const std::uint8_t> bytes, std::uint32_t max_universe) {
  Reader in(bytes);
  const auto universe = in.u32();
  if (!universe || *universe > max_universe) return std::nullopt;
  // The bitmap is exactly the rest of the input, read in place.
  if (in.remaining() != (std::size_t{*universe} + 7) / 8) return std::nullopt;
  const std::span<const std::uint8_t> bitmap = bytes.last(in.remaining());
  ReceptionReport r;
  r.universe = *universe;
  for (std::uint32_t idx = 0; idx < r.universe; ++idx)
    if (bitmap[idx / 8] & (1u << (idx % 8))) r.received.push_back(idx);
  return r;
}

Payload encode(const Announcement& a) {
  Payload out;
  encode_into(a, out);
  return out;
}

void encode_into(const Announcement& a, Payload& out) {
  out.clear();
  put_u16(out, static_cast<std::uint16_t>(a.combinations.size()));
  for (const Combination& c : a.combinations) {
    put_u16(out, static_cast<std::uint16_t>(c.terms().size()));
    for (const Term& t : c.terms()) {
      put_u32(out, t.index);
      out.push_back(t.coeff.value());
    }
  }
}

std::optional<Announcement> decode_announcement(
    std::span<const std::uint8_t> bytes) {
  // Reserve only what the input can fill: a combination takes at least
  // its 2-byte term count, a term 5 bytes (u32 index, u8 coefficient).
  Reader in(bytes);
  const auto count = in.u16();
  if (!count || in.remaining() < std::size_t{*count} * 2) return std::nullopt;
  Announcement a;
  a.combinations.reserve(*count);
  for (std::uint16_t i = 0; i < *count; ++i) {
    const auto nterms = in.u16();
    if (!nterms || in.remaining() < std::size_t{*nterms} * 5)
      return std::nullopt;
    std::vector<Term> terms;
    terms.reserve(*nterms);
    for (std::uint16_t t = 0; t < *nterms; ++t) {
      const auto index = in.u32();
      const auto coeff = in.u8();
      if (!index || !coeff) return std::nullopt;
      terms.push_back({*index, gf::GF256(*coeff)});
    }
    a.combinations.emplace_back(std::move(terms));
  }
  if (!in.done()) return std::nullopt;
  return a;
}

}  // namespace thinair::packet
