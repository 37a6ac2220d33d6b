// Fixture: hand-rolled datagram parsing — exactly what let early daemon
// builds be confused by truncated and spoofed frames. All framing must go
// through wire::decode()'s total parse.
#include <cstdint>
#include <cstring>
#include <span>

struct RawHeader {
  std::uint32_t magic;
  std::uint16_t kind;
};

int classify(std::span<const std::uint8_t> datagram) {
  if (datagram.size() < 6) return -1;
  const auto* h = reinterpret_cast<const RawHeader*>(datagram.data());  // finding
  if (h->magic != 0x54414EDFu) return -1;
  return datagram[4] | (datagram[5] << 8);  // finding: raw byte picking
}
