#include "net/medium.h"

#include <cmath>
#include <stdexcept>

namespace thinair::net {

Medium::Medium(channel::Rng rng, MacParams params)
    : rng_(rng), params_(params) {
  if (!(params_.data_rate_bps > 0.0))
    throw std::invalid_argument("Medium: data rate must be positive");
  if (!(params_.slot_duration_s > 0.0))
    throw std::invalid_argument("Medium: slot duration must be positive");
  // The clock only moves forward, so slot() never sees a negative time.
  if (!(params_.per_frame_overhead_s >= 0.0 &&
        params_.inter_frame_gap_s >= 0.0))
    throw std::invalid_argument("Medium: frame overhead and gap must be >= 0");
}

void Medium::attach(packet::NodeId node, Role role) {
  if (is_attached(node)) throw std::invalid_argument("Medium: re-attach");
  if (node.value >= attached_.size())
    attached_.resize(node.value + std::size_t{1}, false);
  attached_[node.value] = true;
  order_.push_back(node);
  (role == Role::kTerminal ? terminals_ : eavesdroppers_).push_back(node);
}

double Medium::frame_airtime_s(std::size_t wire_bytes) const {
  return params_.per_frame_overhead_s +
         static_cast<double>(wire_bytes) * 8.0 / params_.data_rate_bps;
}

void Medium::wait(double seconds) {
  if (seconds < 0.0) throw std::invalid_argument("Medium::wait: negative");
  now_s_ += seconds;
}

void Medium::wait_for_next_slot() {
  const double dur = params_.slot_duration_s;
  const double next =
      (std::floor(now_s_ / dur) + 1.0) * dur + params_.inter_frame_gap_s;
  now_s_ = next;
}

void Medium::account_transmit(packet::NodeId source, const packet::Packet& pkt,
                              TrafficClass cls, const TxResult& result,
                              std::size_t tx_slot) {
  ledger_.add(cls, pkt.wire_size(), result.airtime_s);
  trace_.record(TraceEntry{
      .time_s = now_s_,
      .slot = tx_slot,
      .cls = cls,
      .kind = pkt.kind,
      .source = source,
      .round = pkt.round,
      .seq = pkt.seq,
      .payload_bytes = pkt.payload.size(),
      .delivered = result.delivered,
      .reliable = false,
      .attempt = 0,
  });
  now_s_ += result.airtime_s + params_.inter_frame_gap_s;
}

SimMedium::SimMedium(const channel::ErasureModel& model, channel::Rng rng,
                     MacParams params)
    : Medium(rng, params), model_(model) {}

Medium::TxResult SimMedium::transmit(packet::NodeId source,
                                     const packet::Packet& pkt,
                                     TrafficClass cls) {
  if (!is_attached(source))
    throw std::invalid_argument("Medium::transmit: unknown source");

  const std::size_t tx_slot = slot();
  TxResult result;
  result.airtime_s = frame_airtime_s(pkt.wire_size());

  for (packet::NodeId rx : attach_order()) {
    if (rx == source) continue;
    const channel::LinkContext link{source, rx, tx_slot};
    if (!model_.erased(rng(), link)) result.delivered.insert(rx);
  }

  account_transmit(source, pkt, cls, result, tx_slot);
  return result;
}

}  // namespace thinair::net
