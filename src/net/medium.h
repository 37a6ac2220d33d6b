#pragma once
// The broadcast-medium seam: the paper's 802.11g ad-hoc network (Sec. 2
// and 4) as an abstract interface plus the in-process simulation.
//
// `Medium` is the transport seam the protocol code is written against: a
// single shared channel where a node transmits a frame once and every
// other attached node either receives it or loses it. The base class owns
// everything transport-independent — the node registry, the virtual clock
// (frames occupy airtime at the configured rate, 1 Mbps with 100-byte
// packets in the paper), the byte ledger and the reception trace — and
// leaves one question to the implementation: who received this frame?
// SimMedium (below) answers it by drawing from an ErasureModel: the
// in-process simulator every scenario and test runs on. (Live terminals
// do not use this seam: each runs a netd::NodeSession against the
// `thinaird` hub, which draws the erasures itself.)
//
// The medium is sequential and deterministic given the Rng — terminals
// take turns transmitting under the protocol, so no collision model is
// needed (the paper's terminals likewise defer to the 802.11 MAC).

#include <unordered_map>
#include <vector>

#include "channel/erasure.h"
#include "channel/rng.h"
#include "net/ledger.h"
#include "net/trace.h"
#include "packet/packet.h"

namespace thinair::net {

/// Role of an attached node; terminals participate in the protocol (and
/// must be reached by reliable broadcasts), the eavesdropper only listens.
enum class Role : std::uint8_t { kTerminal, kEavesdropper };

struct MacParams {
  double data_rate_bps = 1e6;        // paper: 1 Mbps
  double per_frame_overhead_s = 192e-6;  // PLCP preamble + header at 1 Mbps
  double inter_frame_gap_s = 50e-6;      // DIFS-like spacing
  double slot_duration_s = 12e-3;        // interference rotation period

  friend bool operator==(const MacParams&, const MacParams&) = default;
};

class Medium {
 public:
  struct TxResult {
    NodeSet delivered;   // excludes the sender
    double airtime_s = 0.0;
  };

  virtual ~Medium() = default;

  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  void attach(packet::NodeId node, Role role);
  [[nodiscard]] std::vector<packet::NodeId> terminals() const;
  [[nodiscard]] std::vector<packet::NodeId> eavesdroppers() const;
  [[nodiscard]] bool is_attached(packet::NodeId node) const;

  /// Broadcast a frame once (the paper's "transmits"). Every other attached
  /// node independently either receives it or loses it; how that is decided
  /// is the implementation's contract (erasure draws for SimMedium).
  virtual TxResult transmit(packet::NodeId source, const packet::Packet& pkt,
                            TrafficClass cls) = 0;

  /// Current virtual time and interference slot.
  [[nodiscard]] double now() const { return now_s_; }
  [[nodiscard]] std::size_t slot() const {
    return static_cast<std::size_t>(now_s_ / params_.slot_duration_s);
  }

  [[nodiscard]] const Ledger& ledger() const { return ledger_; }
  [[nodiscard]] Ledger& ledger() { return ledger_; }
  [[nodiscard]] const Trace& trace() const { return trace_; }
  [[nodiscard]] Trace& trace() { return trace_; }
  [[nodiscard]] const MacParams& params() const { return params_; }
  [[nodiscard]] channel::Rng& rng() { return rng_; }

  /// Airtime of a frame with the given wire size.
  [[nodiscard]] double frame_airtime_s(std::size_t wire_bytes) const;

  /// Let the virtual clock idle for `seconds` (no bytes transmitted).
  void wait(double seconds);

  /// Idle until just after the next interference-slot boundary — the
  /// backoff reliable broadcast uses between retransmissions so retries do
  /// not burn airtime into the same noise pattern that just erased them.
  void wait_for_next_slot();

 protected:
  Medium(channel::Rng rng, MacParams params);

  /// Shared post-transmit bookkeeping: charge the ledger, append the trace
  /// entry and advance the virtual clock past the frame + inter-frame gap.
  void account_transmit(packet::NodeId source, const packet::Packet& pkt,
                        TrafficClass cls, const TxResult& result,
                        std::size_t tx_slot);

  [[nodiscard]] const std::vector<packet::NodeId>& attach_order() const {
    return order_;
  }

 private:
  channel::Rng rng_;
  MacParams params_;
  std::unordered_map<packet::NodeId, Role> nodes_;
  std::vector<packet::NodeId> order_;  // attachment order, for determinism
  double now_s_ = 0.0;
  Ledger ledger_;
  Trace trace_;
};

/// The in-process simulation: one Bernoulli draw per attached node per
/// frame from the ErasureModel, interleaved with payload generation on the
/// medium's single Rng stream (the determinism contract every golden
/// suite pins).
class SimMedium final : public Medium {
 public:
  /// The erasure model must outlive the medium.
  SimMedium(const channel::ErasureModel& model, channel::Rng rng,
            MacParams params = {});

  TxResult transmit(packet::NodeId source, const packet::Packet& pkt,
                    TrafficClass cls) override;

 private:
  const channel::ErasureModel& model_;
};

}  // namespace thinair::net
