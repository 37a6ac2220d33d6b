#pragma once
// Reception trace: who received what.
//
// Once enabled, the medium records, for every frame it carries, the set
// of nodes that received it and whether it was part of a *reliable*
// broadcast (whose content the paper conservatively assumes Eve always
// obtains, Sec. 2). Recording is opt-in: the sessions score Eve from their
// own round bookkeeping, so a sweep would only pay for an ever-growing
// log nobody reads. A consumer that replays the air (tests, an external
// secrecy oracle) calls enable() before the first frame.

#include <cstdint>
#include <vector>

#include "net/ledger.h"
#include "packet/packet.h"

namespace thinair::net {

/// A set of nodes as a bitmask over node-id values (< 64).
class NodeSet {
 public:
  void insert(packet::NodeId id);
  [[nodiscard]] bool contains(packet::NodeId id) const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool empty() const { return mask_ == 0; }
  [[nodiscard]] std::uint64_t mask() const { return mask_; }

  friend bool operator==(const NodeSet&, const NodeSet&) = default;

 private:
  std::uint64_t mask_ = 0;
};

/// One frame on the air.
struct TraceEntry {
  double time_s = 0.0;
  std::size_t slot = 0;
  TrafficClass cls = TrafficClass::kData;
  packet::Kind kind = packet::Kind::kData;
  packet::NodeId source;
  packet::RoundId round;
  packet::PacketSeq seq;
  std::size_t payload_bytes = 0;
  NodeSet delivered;      // nodes whose erasure draw succeeded
  bool reliable = false;  // content is public (Eve gets it regardless)
  unsigned attempt = 0;   // retransmission index within a reliable broadcast
};

class Trace {
 public:
  /// Record every frame from now on; until then record() and
  /// mark_reliable() do nothing.
  void enable() { enabled_ = true; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  void record(const TraceEntry& entry) {
    if (enabled_) entries_.push_back(entry);
  }
  [[nodiscard]] const std::vector<TraceEntry>& entries() const {
    return entries_;
  }
  /// Mark the most recent `count` entries as reliable-broadcast attempts.
  void mark_reliable(std::size_t count);
  void clear() { entries_.clear(); }

 private:
  bool enabled_ = false;
  std::vector<TraceEntry> entries_;
};

}  // namespace thinair::net
