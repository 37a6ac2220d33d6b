#pragma once
// Transmitted-traffic accounting.
//
// The paper's efficiency metric (Sec. 4) is "the number of shared secret
// bits generated by the terminals divided by the total number of bits that
// the terminals transmitted during the experiment". The ledger records
// every byte the medium carries, split by traffic class, so benches can
// report both the all-inclusive number and the data-plane-only number that
// matches the closed-form analysis.

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>

namespace thinair::net {

enum class TrafficClass : std::uint8_t {
  kData = 0,     // x-packets
  kCoded = 1,    // z-packet contents
  kControl = 2,  // reception reports + combination announcements
  kAck = 3,      // reliable-broadcast acknowledgements
  kCipher = 4,   // encrypted payloads (unicast baseline)
};
inline constexpr std::size_t kTrafficClassCount = 5;

class Ledger {
 public:
  void add(TrafficClass cls, std::size_t bytes, double airtime_s);

  [[nodiscard]] std::size_t bytes(TrafficClass cls) const;
  [[nodiscard]] std::size_t frames(TrafficClass cls) const;
  [[nodiscard]] std::size_t total_bytes() const;
  [[nodiscard]] std::size_t total_bits() const { return total_bytes() * 8; }
  [[nodiscard]] double total_airtime_s() const { return airtime_s_; }

  /// Bytes of x-packet and z-packet payload traffic only — the quantity
  /// the Figure-1 closed forms count.
  [[nodiscard]] std::size_t data_plane_bytes() const {
    return bytes(TrafficClass::kData) + bytes(TrafficClass::kCoded);
  }

  /// Componentwise difference (for "traffic since a snapshot"); all of
  /// other's counters must be <= this ledger's.
  [[nodiscard]] Ledger since(const Ledger& snapshot) const;

 private:
  std::array<std::size_t, kTrafficClassCount> bytes_{};
  std::array<std::size_t, kTrafficClassCount> frames_{};
  double airtime_s_ = 0.0;
};

std::ostream& operator<<(std::ostream& os, const Ledger& ledger);

}  // namespace thinair::net
