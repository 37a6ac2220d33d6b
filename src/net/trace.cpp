#include "net/trace.h"

#include <bit>
#include <stdexcept>

namespace thinair::net {

void NodeSet::insert(packet::NodeId id) {
  if (id.value >= 64) throw std::out_of_range("NodeSet: id >= 64");
  mask_ |= (std::uint64_t{1} << id.value);
}

bool NodeSet::contains(packet::NodeId id) const {
  if (id.value >= 64) return false;
  return (mask_ >> id.value) & 1;
}

std::size_t NodeSet::size() const {
  return static_cast<std::size_t>(std::popcount(mask_));
}

void Trace::mark_reliable(std::size_t count) {
  if (!enabled_) return;
  if (count > entries_.size())
    throw std::out_of_range("Trace::mark_reliable: count");
  for (std::size_t i = entries_.size() - count; i < entries_.size(); ++i)
    entries_[i].reliable = true;
}

}  // namespace thinair::net
