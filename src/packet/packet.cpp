#include "packet/packet.h"

#include <ostream>

namespace thinair::packet {

std::string_view to_string(Kind k) {
  switch (k) {
    case Kind::kData: return "data";
    case Kind::kCoded: return "coded";
    case Kind::kReport: return "report";
    case Kind::kAnnouncement: return "announcement";
    case Kind::kAck: return "ack";
    case Kind::kCipher: return "cipher";
  }
  return "unknown";
}

std::ostream& operator<<(std::ostream& os, NodeId id) {
  return os << "T" << id.value;
}

}  // namespace thinair::packet
