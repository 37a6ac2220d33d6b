#include "net/reliable.h"

#include <stdexcept>

namespace thinair::net {

namespace {

constexpr unsigned kMaxAttempts = 1000;
constexpr std::size_t kAckPayloadBytes = 2;

// Acknowledgement frame from a new receiver; acks are short and assumed
// reliable (they carry no secret-relevant content), so only their bytes
// and airtime are charged — no frame is built.
void charge_ack(Medium& medium) {
  const std::size_t wire = packet::Packet::header_size() + kAckPayloadBytes;
  medium.ledger().add(TrafficClass::kAck, wire, medium.frame_airtime_s(wire));
}

}  // namespace

ReliableResult reliable_broadcast(Medium& medium, packet::NodeId source,
                                  const packet::Packet& pkt, TrafficClass cls) {
  const auto& terminals = medium.terminals();

  ReliableResult result;
  std::size_t pending = 0;
  for (packet::NodeId t : terminals)
    if (t != source) ++pending;

  std::size_t reliable_frames = 0;
  while (pending > 0) {
    if (result.attempts >= kMaxAttempts)
      throw std::runtime_error(
          "reliable_broadcast: channel too lossy, attempts exhausted");
    ++result.attempts;

    const Medium::TxResult tx = medium.transmit(source, pkt, cls);
    ++reliable_frames;

    for (packet::NodeId rx : terminals) {
      if (rx == source || result.delivered.contains(rx)) continue;
      if (tx.delivered.contains(rx)) {
        result.delivered.insert(rx);
        --pending;
        charge_ack(medium);
      }
    }
    // Any eavesdropper that happened to receive an attempt is noted, though
    // the conservative model treats the content as public anyway.
    for (packet::NodeId e : medium.eavesdroppers())
      if (tx.delivered.contains(e)) result.delivered.insert(e);

    if (pending > 0) medium.wait_for_next_slot();
  }

  medium.trace().mark_reliable(reliable_frames);
  return result;
}

ReliableResult reliable_unicast(Medium& medium, packet::NodeId source,
                                packet::NodeId dest, const packet::Packet& pkt,
                                TrafficClass cls) {
  if (!medium.is_attached(dest))
    throw std::invalid_argument("reliable_unicast: unknown destination");

  ReliableResult result;
  std::size_t reliable_frames = 0;
  while (!result.delivered.contains(dest)) {
    if (result.attempts >= kMaxAttempts)
      throw std::runtime_error(
          "reliable_unicast: channel too lossy, attempts exhausted");
    ++result.attempts;

    const Medium::TxResult tx = medium.transmit(source, pkt, cls);
    if (tx.delivered.contains(dest)) {
      result.delivered.insert(dest);
      charge_ack(medium);
    }
    ++reliable_frames;
    for (packet::NodeId e : medium.eavesdroppers())
      if (tx.delivered.contains(e)) result.delivered.insert(e);

    if (!result.delivered.contains(dest)) medium.wait_for_next_slot();
  }

  medium.trace().mark_reliable(reliable_frames);
  return result;
}

}  // namespace thinair::net
