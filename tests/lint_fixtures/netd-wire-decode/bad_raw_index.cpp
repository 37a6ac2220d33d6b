// Fixture: a daemon loop reading frame fields straight out of its receive
// buffers by index, with no cast to give it away. Both buffer names the
// netd IO code uses are covered: 'bytes' for a received datagram and
// 'buf' for a scratch copy.
#include <cstdint>
#include <vector>

struct Relay {
  std::uint16_t session;
  std::uint8_t kind;
};

Relay peek(const std::vector<std::uint8_t>& bytes, std::uint8_t (&buf)[32]) {
  Relay r{};
  if (bytes.size() < 8) return r;
  r.session = static_cast<std::uint16_t>(bytes[6] | (bytes[7] << 8));  // finding
  r.kind = buf[3];  // finding: a scratch copy is still raw wire bytes
  return r;
}
