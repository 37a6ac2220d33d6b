#include "channel/testbed_channel.h"

#include <algorithm>
#include <stdexcept>

namespace thinair::channel {

TestbedChannel::TestbedChannel(Config config)
    : config_(config),
      pathloss_(config.pathloss),
      schedule_(config.grid, config.interferer) {}

void TestbedChannel::place(packet::NodeId node, Vec2 position) {
  const std::size_t v = node.value;
  if (v >= kMaxNodes)
    throw std::out_of_range("TestbedChannel: node id must be below 64");
  Node placing{position, {}};
  for (std::size_t p = 0; p < kPatterns; ++p) {
    // Slot p runs pattern p, as every slot s runs pattern s mod 9.
    const double interference_mw =
        config_.interference_enabled
            ? schedule_.interference_mw(position, p, pathloss_)
            : 0.0;
    placing.noise_db[p] =
        interference_plus_noise_db(interference_mw, config_.sinr);
  }
  if (v >= nodes_.size()) grow(v + 1);
  // v reads as unplaced until its row and column are refreshed, so a
  // throw from fill_link leaves it unplaced rather than half-moved.
  nodes_[v].reset();
  fill_link(v, placing, v, placing);
  for (std::size_t u = 0; u < nodes_.size(); ++u) {
    if (!nodes_[u].has_value()) continue;
    fill_link(v, placing, u, *nodes_[u]);
    fill_link(u, *nodes_[u], v, placing);
  }
  nodes_[v] = placing;
}

void TestbedChannel::place_in_cell(packet::NodeId node, CellIndex cell) {
  place(node, config_.grid.center(cell));
}

void TestbedChannel::grow(std::size_t n) {
  const std::size_t old = nodes_.size();
  std::vector<double> table(n * n * kPatterns);
  for (std::size_t tx = 0; tx < old; ++tx)
    std::copy_n(erasure_.data() + tx * old * kPatterns, old * kPatterns,
                table.data() + tx * n * kPatterns);
  nodes_.resize(n);
  erasure_ = std::move(table);
}

void TestbedChannel::fill_link(std::size_t tx, const Node& from,
                               std::size_t rx, const Node& to) {
  // sinr_db's two terms, taken apart: the denominator was computed once
  // per pattern when `to` was placed.
  const double signal_db =
      linear_to_db(pathloss_.rx_power_mw(distance(from.position, to.position)));
  double* const out = erasure_.data() + (tx * nodes_.size() + rx) * kPatterns;
  for (std::size_t p = 0; p < kPatterns; ++p)
    out[p] = packet_error_rate(signal_db - to.noise_db[p], config_.sinr);
}

Vec2 TestbedChannel::position_of(packet::NodeId node) const {
  if (!placed(node.value))
    throw std::out_of_range("TestbedChannel: node not placed");
  return nodes_[node.value]->position;
}

CellIndex TestbedChannel::cell_of(packet::NodeId node) const {
  return config_.grid.cell_of(position_of(node));
}

double TestbedChannel::link_sinr_db(packet::NodeId tx, packet::NodeId rx,
                                    std::size_t slot) const {
  const Vec2 tx_pos = position_of(tx);
  const Vec2 rx_pos = position_of(rx);
  const double signal_mw = pathloss_.rx_power_mw(distance(tx_pos, rx_pos));
  const double interference_mw =
      config_.interference_enabled
          ? schedule_.interference_mw(rx_pos, slot, pathloss_)
          : 0.0;
  return sinr_db(signal_mw, interference_mw, config_.sinr);
}

double TestbedChannel::erasure_probability(const LinkContext& link) const {
  const std::size_t tx = link.tx.value;
  const std::size_t rx = link.rx.value;
  if (!placed(tx) || !placed(rx))
    throw std::out_of_range("TestbedChannel: node not placed");
  return erasure_[(tx * nodes_.size() + rx) * kPatterns +
                  link.slot % kPatterns];
}

}  // namespace thinair::channel
