#include "net/ledger.h"

#include <ostream>
#include <stdexcept>

namespace thinair::net {

namespace {
constexpr const char* kNames[kTrafficClassCount] = {"data", "coded", "control",
                                                    "ack", "cipher"};
}

void Ledger::add(TrafficClass cls, std::size_t bytes, double airtime_s) {
  const auto i = static_cast<std::size_t>(cls);
  bytes_[i] += bytes;
  frames_[i] += 1;
  airtime_s_ += airtime_s;
}

std::size_t Ledger::bytes(TrafficClass cls) const {
  return bytes_[static_cast<std::size_t>(cls)];
}

std::size_t Ledger::frames(TrafficClass cls) const {
  return frames_[static_cast<std::size_t>(cls)];
}

std::size_t Ledger::total_bytes() const {
  std::size_t total = 0;
  for (std::size_t b : bytes_) total += b;
  return total;
}

Ledger Ledger::since(const Ledger& snapshot) const {
  Ledger out = *this;
  for (std::size_t i = 0; i < kTrafficClassCount; ++i) {
    if (snapshot.bytes_[i] > out.bytes_[i] ||
        snapshot.frames_[i] > out.frames_[i])
      throw std::invalid_argument("Ledger::since: snapshot is not a prefix");
    out.bytes_[i] -= snapshot.bytes_[i];
    out.frames_[i] -= snapshot.frames_[i];
  }
  out.airtime_s_ -= snapshot.airtime_s_;
  return out;
}

std::ostream& operator<<(std::ostream& os, const Ledger& ledger) {
  os << "ledger{";
  for (std::size_t i = 0; i < kTrafficClassCount; ++i) {
    const auto cls = static_cast<TrafficClass>(i);
    if (ledger.bytes(cls) == 0) continue;
    os << kNames[i] << "=" << ledger.bytes(cls) << "B/"
       << ledger.frames(cls) << "f ";
  }
  os << "airtime=" << ledger.total_airtime_s() << "s}";
  return os;
}

}  // namespace thinair::net
