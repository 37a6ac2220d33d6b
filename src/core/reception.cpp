#include "core/reception.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace thinair::core {

ReceptionTable::ReceptionTable(packet::NodeId alice,
                               std::vector<packet::NodeId> receivers,
                               std::size_t universe)
    : alice_(alice), receivers_(std::move(receivers)), universe_(universe) {
  for (packet::NodeId r : receivers_)
    if (r == alice_)
      throw std::invalid_argument("ReceptionTable: Alice among receivers");
  const std::size_t words = (universe_ + 63) / 64;
  bitmaps_.assign(receivers_.size(), std::vector<std::uint64_t>(words, 0));
}

std::size_t ReceptionTable::receiver_index(packet::NodeId t) const {
  const auto it = std::find(receivers_.begin(), receivers_.end(), t);
  if (it == receivers_.end())
    throw std::out_of_range("ReceptionTable: unknown receiver");
  return static_cast<std::size_t>(it - receivers_.begin());
}

void ReceptionTable::set_received(packet::NodeId t,
                                  const std::vector<std::uint32_t>& idx) {
  auto& bm = bitmaps_[receiver_index(t)];
  std::fill(bm.begin(), bm.end(), 0);
  for (std::uint32_t i : idx) {
    if (i >= universe_)
      throw std::out_of_range("ReceptionTable: index >= universe");
    bm[i / 64] |= (std::uint64_t{1} << (i % 64));
  }
}

bool ReceptionTable::has(packet::NodeId t, std::uint32_t index) const {
  if (index >= universe_) return false;
  const auto& bm = bitmaps_[receiver_index(t)];
  return (bm[index / 64] >> (index % 64)) & 1;
}

std::vector<std::uint32_t> ReceptionTable::received(packet::NodeId t) const {
  const auto& bm = bitmaps_[receiver_index(t)];
  std::vector<std::uint32_t> out;
  out.reserve(received_count(t));
  for (std::uint32_t i = 0; i < universe_; ++i)
    if ((bm[i / 64] >> (i % 64)) & 1) out.push_back(i);
  return out;
}

std::size_t ReceptionTable::received_count(packet::NodeId t) const {
  const auto& bm = bitmaps_[receiver_index(t)];
  std::size_t count = 0;
  for (std::uint64_t w : bm) count += static_cast<std::size_t>(std::popcount(w));
  return count;
}

std::size_t ReceptionTable::missed_by(packet::NodeId a,
                                      packet::NodeId b) const {
  const auto& ba = bitmaps_[receiver_index(a)];
  const auto& bb = bitmaps_[receiver_index(b)];
  std::size_t count = 0;
  for (std::size_t w = 0; w < ba.size(); ++w)
    count += static_cast<std::size_t>(std::popcount(ba[w] & ~bb[w]));
  return count;
}

std::vector<ReceptionTable::Class> ReceptionTable::classes() const {
  // One (receiver mask, x-index) key per packet somebody received, sorted
  // into the builder's order — most members first, ties by mask, indices
  // ascending — so each class is a run of equal masks.
  struct Key {
    std::uint64_t mask;
    std::uint32_t index;
  };
  std::vector<Key> keys;
  keys.reserve(universe_);
  for (std::uint32_t i = 0; i < universe_; ++i) {
    net::NodeSet members;
    for (std::size_t r = 0; r < receivers_.size(); ++r)
      if ((bitmaps_[r][i / 64] >> (i % 64)) & 1) members.insert(receivers_[r]);
    if (!members.empty()) keys.push_back({members.mask(), i});
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    const int size_a = std::popcount(a.mask);
    const int size_b = std::popcount(b.mask);
    if (size_a != size_b) return size_a > size_b;
    if (a.mask != b.mask) return a.mask < b.mask;
    return a.index < b.index;
  });

  std::size_t classes = 0;
  for (std::size_t k = 0; k < keys.size(); ++k)
    if (k == 0 || keys[k].mask != keys[k - 1].mask) ++classes;
  std::vector<Class> out;
  out.reserve(classes);
  for (std::size_t k = 0; k < keys.size();) {
    std::size_t end = k;
    while (end < keys.size() && keys[end].mask == keys[k].mask) ++end;
    Class cls;
    for (packet::NodeId r : receivers_)
      if ((keys[k].mask >> r.value) & 1) cls.members.insert(r);
    cls.indices.reserve(end - k);
    for (; k < end; ++k) cls.indices.push_back(keys[k].index);
    out.push_back(std::move(cls));
  }
  return out;
}

}  // namespace thinair::core
