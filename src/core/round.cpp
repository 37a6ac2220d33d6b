#include "core/round.h"

#include <stdexcept>

#include "channel/interference.h"
#include "net/reliable.h"
#include "packet/serialize.h"

namespace thinair::core {

RoundContext open_round(net::Medium& medium, packet::NodeId alice,
                        packet::RoundId round, std::size_t n,
                        std::size_t payload_bytes,
                        packet::PayloadArena& arena) {
  if (payload_bytes == 0)
    throw std::invalid_argument("open_round: payload_bytes == 0");
  const auto& terminals = medium.terminals();
  const auto& eavesdroppers = medium.eavesdroppers();

  std::vector<packet::NodeId> receivers;
  for (packet::NodeId t : terminals)
    if (t != alice) receivers.push_back(t);

  RoundContext ctx{
      .alice = alice,
      .receivers = receivers,
      .x_payloads = std::vector<packet::ConstByteSpan>(n),
      .rx_payloads = std::vector<std::vector<packet::ConstByteSpan>>(
          receivers.size(), std::vector<packet::ConstByteSpan>(n)),
      .rx_indices = std::vector<std::vector<std::uint32_t>>(receivers.size()),
      .eve_indices = {},
      .slot_of = std::vector<std::size_t>(n, 0),
      .table = ReceptionTable(alice, receivers, n),
  };
  // Sized for the worst case up front so the reception loop never grows
  // a vector.
  for (std::vector<std::uint32_t>& idx : ctx.rx_indices) idx.reserve(n);
  if (!eavesdroppers.empty()) ctx.eve_indices.reserve(n);

  // Step 1: N random payloads, broadcast once each. Payload bytes are
  // carved from the round arena (one bump per packet, contiguous across
  // the round); the frame reuses one Packet whose payload buffer keeps
  // its capacity across all N transmissions — this loop dominates every
  // experiment.
  packet::Packet pkt{.kind = packet::Kind::kData,
                     .source = alice,
                     .round = round,
                     .seq = packet::PacketSeq{0},
                     .payload = {}};
  pkt.payload.reserve(payload_bytes);
  for (std::uint32_t i = 0; i < n; ++i) {
    const packet::ByteSpan body = arena.alloc_uninit(payload_bytes);
    for (std::uint8_t& b : body) b = medium.rng().next_byte();
    ctx.x_payloads[i] = body;

    pkt.seq = packet::PacketSeq{i};
    pkt.payload.assign(body.begin(), body.end());
    ctx.slot_of[i] = medium.slot() % channel::InterferenceSchedule::kPatterns;
    const net::Medium::TxResult tx =
        medium.transmit(alice, pkt, net::TrafficClass::kData);

    for (std::size_t ri = 0; ri < receivers.size(); ++ri) {
      if (tx.delivered.contains(receivers[ri])) {
        ctx.rx_payloads[ri][i] = ctx.x_payloads[i];
        ctx.rx_indices[ri].push_back(i);
      }
    }
    for (packet::NodeId e : eavesdroppers) {
      if (tx.delivered.contains(e)) {
        ctx.eve_indices.push_back(i);
        break;  // union view: one antenna hearing it is enough
      }
    }
  }

  // Step 2: reliable reception reports, framed in the same Packet and
  // encoded from one report whose index buffer keeps its capacity.
  packet::ReceptionReport report{static_cast<std::uint32_t>(n), {}};
  pkt.kind = packet::Kind::kReport;
  pkt.seq = packet::PacketSeq{0};
  for (std::size_t ri = 0; ri < receivers.size(); ++ri) {
    ctx.table.set_received(receivers[ri], ctx.rx_indices[ri]);
    report.received.assign(ctx.rx_indices[ri].begin(),
                           ctx.rx_indices[ri].end());
    pkt.source = receivers[ri];
    packet::encode_into(report, pkt.payload);
    net::reliable_broadcast(medium, receivers[ri], pkt,
                            net::TrafficClass::kControl);
  }

  return ctx;
}

}  // namespace thinair::core
