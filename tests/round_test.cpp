// The round opener (phase 1 steps 1-2 over the medium): reception
// bookkeeping, reports on the air, slot recording.
#include "core/round.h"

#include <gtest/gtest.h>

#include "channel/erasure.h"
#include "packet/arena.h"
#include "packet/serialize.h"

namespace thinair::core {
namespace {

packet::NodeId T(std::uint16_t v) { return packet::NodeId{v}; }

std::vector<std::uint8_t> bytes_of(packet::ConstByteSpan s) {
  return {s.begin(), s.end()};
}

TEST(OpenRound, PerfectChannelEveryoneGetsEverything) {
  channel::IidErasure ch(0.0);
  net::SimMedium medium(ch, channel::Rng(1));
  for (std::uint16_t i = 0; i < 3; ++i)
    medium.attach(T(i), net::Role::kTerminal);
  medium.attach(T(3), net::Role::kEavesdropper);

  packet::PayloadArena arena;
  const RoundContext ctx = open_round(medium, T(0), packet::RoundId{0}, 20, 8, arena);
  EXPECT_EQ(ctx.receivers.size(), 2u);
  for (std::size_t ri = 0; ri < 2; ++ri) {
    EXPECT_EQ(ctx.rx_indices[ri].size(), 20u);
    for (const auto& p : ctx.rx_payloads[ri]) EXPECT_FALSE(p.empty());
  }
  EXPECT_EQ(ctx.eve_indices.size(), 20u);
  EXPECT_EQ(ctx.table.received_count(T(1)), 20u);
}

TEST(OpenRound, DeadChannelNothingReceivedReportsStillFlow) {
  channel::IidErasure ch(1.0);
  net::SimMedium medium(ch, channel::Rng(2));
  medium.attach(T(0), net::Role::kTerminal);
  medium.attach(T(1), net::Role::kTerminal);
  // A fully dead channel would stall the *reliable* report broadcast, so
  // use a per-link model: data from Alice dies, everything else flows.
  channel::PerLinkErasure per(0.0);
  per.set(T(0), T(1), 1.0);
  net::SimMedium medium2(per, channel::Rng(3));
  medium2.attach(T(0), net::Role::kTerminal);
  medium2.attach(T(1), net::Role::kTerminal);

  packet::PayloadArena arena;
  const RoundContext ctx =
      open_round(medium2, T(0), packet::RoundId{0}, 10, 8, arena);
  EXPECT_TRUE(ctx.rx_indices[0].empty());
  EXPECT_TRUE(ctx.table.classes().empty());
}

TEST(OpenRound, PayloadsMatchWhatWasSent) {
  channel::IidErasure ch(0.3);
  net::SimMedium medium(ch, channel::Rng(4));
  medium.attach(T(0), net::Role::kTerminal);
  medium.attach(T(1), net::Role::kTerminal);

  packet::PayloadArena arena;
  const RoundContext ctx = open_round(medium, T(0), packet::RoundId{0}, 30, 16, arena);
  for (std::uint32_t i : ctx.rx_indices[0]) {
    ASSERT_FALSE(ctx.rx_payloads[0][i].empty());
    EXPECT_EQ(bytes_of(ctx.rx_payloads[0][i]), bytes_of(ctx.x_payloads[i]));
    // Receiver views alias Alice's storage — no per-receiver copies.
    EXPECT_EQ(ctx.rx_payloads[0][i].data(), ctx.x_payloads[i].data());
  }
  // Missed packets have no payload.
  for (std::uint32_t i = 0; i < 30; ++i) {
    const bool got = std::find(ctx.rx_indices[0].begin(),
                               ctx.rx_indices[0].end(),
                               i) != ctx.rx_indices[0].end();
    EXPECT_EQ(!ctx.rx_payloads[0][i].empty(), got);
  }
}

TEST(OpenRound, SlotsRecordedModuloPatternCount) {
  channel::IidErasure ch(0.2);
  net::MacParams mac;
  mac.slot_duration_s = 0.004;  // a few packets per slot
  net::SimMedium medium(ch, channel::Rng(5), mac);
  medium.attach(T(0), net::Role::kTerminal);
  medium.attach(T(1), net::Role::kTerminal);

  packet::PayloadArena arena;
  const RoundContext ctx = open_round(medium, T(0), packet::RoundId{0}, 60, 100, arena);
  ASSERT_EQ(ctx.slot_of.size(), 60u);
  for (std::size_t s : ctx.slot_of) EXPECT_LT(s, 9u);
  // The x-burst spans multiple slots, so several patterns appear.
  std::set<std::size_t> distinct(ctx.slot_of.begin(), ctx.slot_of.end());
  EXPECT_GE(distinct.size(), 3u);
  // Slots are non-decreasing modulo wrap (time moves forward).
  EXPECT_EQ(ctx.slot_of.front(), 0u);
}

TEST(OpenRound, ReportsAreOnTheAirAndParseable) {
  channel::IidErasure ch(0.4);
  net::SimMedium medium(ch, channel::Rng(6));
  for (std::uint16_t i = 0; i < 3; ++i)
    medium.attach(T(i), net::Role::kTerminal);
  medium.trace().enable();

  packet::PayloadArena arena;
  const RoundContext ctx = open_round(medium, T(0), packet::RoundId{7}, 25, 8, arena);
  (void)ctx;
  std::size_t reports = 0;
  for (const net::TraceEntry& e : medium.trace().entries()) {
    if (e.kind != packet::Kind::kReport) continue;
    EXPECT_TRUE(e.reliable);
    ++reports;
  }
  EXPECT_GE(reports, 2u);  // two receivers, at least one frame each
  // Ledger shows control traffic for the reports.
  EXPECT_GT(medium.ledger().bytes(net::TrafficClass::kControl), 0u);
  EXPECT_EQ(medium.ledger().frames(net::TrafficClass::kData), 25u);
}

TEST(OpenRound, EveUnionAcrossAntennas) {
  channel::PerLinkErasure per(0.0);
  // Antenna 2 hears nothing, antenna 3 hears everything: union = all.
  per.set(T(0), T(2), 1.0);
  per.set(T(0), T(3), 0.0);
  net::SimMedium medium(per, channel::Rng(7));
  medium.attach(T(0), net::Role::kTerminal);
  medium.attach(T(1), net::Role::kTerminal);
  medium.attach(T(2), net::Role::kEavesdropper);
  medium.attach(T(3), net::Role::kEavesdropper);

  packet::PayloadArena arena;
  const RoundContext ctx = open_round(medium, T(0), packet::RoundId{0}, 12, 8, arena);
  EXPECT_EQ(ctx.eve_indices.size(), 12u);
}

}  // namespace
}  // namespace thinair::core
