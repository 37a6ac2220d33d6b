// Artificial interference: the 9 noise patterns and the paper's 5-of-9
// jamming guarantee.
#include "channel/interference.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "channel/rng.h"
#include "channel/testbed_channel.h"
#include "net/medium.h"

namespace thinair::channel {
namespace {

TEST(Interference, NinePatternsCycle) {
  const InterferenceSchedule sched{CellGrid{}};
  for (std::size_t s = 0; s < 18; ++s) {
    const NoisePattern p = sched.pattern(s);
    EXPECT_EQ(p.row, (s % 9) / 3);
    EXPECT_EQ(p.col, (s % 9) % 3);
  }
}

TEST(Interference, JammedIffRowOrColumnMatches) {
  const NoisePattern p{1, 2};
  EXPECT_TRUE(InterferenceSchedule::is_jammed(CellIndex{3}, p));   // row 1
  EXPECT_TRUE(InterferenceSchedule::is_jammed(CellIndex{2}, p));   // col 2
  EXPECT_TRUE(InterferenceSchedule::is_jammed(CellIndex{5}, p));   // both
  EXPECT_FALSE(InterferenceSchedule::is_jammed(CellIndex{0}, p));
  EXPECT_FALSE(InterferenceSchedule::is_jammed(CellIndex{7}, p));
}

TEST(Interference, EveryCellJammedInExactlyFivePatterns) {
  // The design guarantee of Sec. 4: wherever Eve stands, 5 of the 9
  // rotating patterns jam her cell (3 row + 3 column - 1 overlap).
  for (std::size_t c = 0; c < CellGrid::kCells; ++c)
    EXPECT_EQ(InterferenceSchedule::patterns_jamming(CellIndex{c}), 5u)
        << "cell " << c;
}

TEST(Interference, AntennasSitOnPerimeter) {
  const CellGrid grid;
  const InterferenceSchedule sched{grid};
  for (std::size_t r = 0; r < 3; ++r) {
    const auto ants = sched.row_antennas(r);
    EXPECT_DOUBLE_EQ(ants[0].x, 0.0);
    EXPECT_DOUBLE_EQ(ants[1].x, grid.side());
  }
  for (std::size_t c = 0; c < 3; ++c) {
    const auto ants = sched.col_antennas(c);
    EXPECT_DOUBLE_EQ(ants[0].y, 0.0);
    EXPECT_DOUBLE_EQ(ants[1].y, grid.side());
  }
}

TEST(Interference, InBeamPowerExceedsSidelobe) {
  const CellGrid grid;
  const InterferenceSchedule sched{grid};
  const LogDistancePathLoss pl;
  // Slot 0 jams row 0 and column 0. A receiver in cell 0 (in both beams)
  // must see far more interference than one in cell 8 (in neither).
  const double in_beam = sched.interference_mw(grid.center(CellIndex{0}), 0, pl);
  const double out_beam = sched.interference_mw(grid.center(CellIndex{8}), 0, pl);
  EXPECT_GT(in_beam, out_beam * 10.0);
}

TEST(TestbedChannel, JammedCellsLoseMorePackets) {
  TestbedChannel ch;
  ch.place_in_cell(packet::NodeId{0}, CellIndex{4});  // tx in centre
  ch.place_in_cell(packet::NodeId{1}, CellIndex{0});
  // Slot 0 jams row 0 + col 0: cell 0 jammed. Slot 8 jams row 2 + col 2:
  // cell 0 clear.
  const double per_jam =
      ch.erasure_probability({packet::NodeId{0}, packet::NodeId{1}, 0});
  const double per_clear =
      ch.erasure_probability({packet::NodeId{0}, packet::NodeId{1}, 8});
  EXPECT_GT(per_jam, 0.7);
  EXPECT_LT(per_clear, 0.3);
}

TEST(TestbedChannel, InterferenceDisabledMeansCleanChannel) {
  TestbedChannel::Config cfg;
  cfg.interference_enabled = false;
  TestbedChannel ch(cfg);
  ch.place_in_cell(packet::NodeId{0}, CellIndex{4});
  ch.place_in_cell(packet::NodeId{1}, CellIndex{0});
  for (std::size_t s = 0; s < 9; ++s)
    EXPECT_LE(ch.erasure_probability({packet::NodeId{0}, packet::NodeId{1}, s}),
              cfg.sinr.floor + 1e-9);
}

TEST(TestbedChannel, UnplacedNodeThrows) {
  TestbedChannel ch;
  ch.place_in_cell(packet::NodeId{0}, CellIndex{4});
  EXPECT_THROW(
      (void)ch.erasure_probability({packet::NodeId{0}, packet::NodeId{9}, 0}),
      std::out_of_range);
  // A hole below the highest placed id is as unplaced as an id past it.
  ch.place_in_cell(packet::NodeId{2}, CellIndex{0});
  EXPECT_THROW(
      (void)ch.erasure_probability({packet::NodeId{0}, packet::NodeId{1}, 0}),
      std::out_of_range);
  EXPECT_THROW(
      (void)ch.erasure_probability({packet::NodeId{1}, packet::NodeId{2}, 0}),
      std::out_of_range);
  EXPECT_THROW((void)ch.position_of(packet::NodeId{1}), std::out_of_range);
  // Ids past net::NodeSet's width are refused before any table is sized.
  EXPECT_THROW(ch.place(packet::NodeId{64}, Vec2{1.0, 1.0}),
               std::out_of_range);
  EXPECT_THROW(ch.place(packet::NodeId{65535}, Vec2{1.0, 1.0}),
               std::out_of_range);
}

// Every link among nodes 0..nodes-1 (tx == rx included), in slots 0-26 —
// three turns of the 9 patterns — read from the link table and recomputed
// from scratch. The table must reproduce the formula bit for bit.
void expect_table_matches_formula(const TestbedChannel& ch,
                                  std::size_t nodes) {
  for (std::size_t tx = 0; tx < nodes; ++tx)
    for (std::size_t rx = 0; rx < nodes; ++rx)
      for (std::size_t slot = 0; slot < 27; ++slot) {
        const packet::NodeId a{static_cast<std::uint16_t>(tx)};
        const packet::NodeId b{static_cast<std::uint16_t>(rx)};
        EXPECT_EQ(ch.erasure_probability({a, b, slot}),
                  packet_error_rate(ch.link_sinr_db(a, b, slot),
                                    ch.config().sinr))
            << tx << " > " << rx << ", slot " << slot;
      }
}

TEST(TestbedChannel, TableMatchesLinkFormula) {
  // Seeded cell-centre placements: n terminals plus Eve in distinct cells.
  Rng rng(20121029);
  for (const std::size_t n : {3, 8}) {
    for (int trial = 0; trial < 4; ++trial) {
      std::array<std::size_t, CellGrid::kCells> cells{};
      std::iota(cells.begin(), cells.end(), std::size_t{0});
      for (std::size_t i = cells.size() - 1; i > 0; --i)
        std::swap(cells[i], cells[rng.next_below(i + 1)]);
      TestbedChannel ch;
      for (std::size_t id = 0; id <= n; ++id)
        ch.place_in_cell(packet::NodeId{static_cast<std::uint16_t>(id)},
                         CellIndex{cells[id]});
      SCOPED_TRACE(testing::Message() << "n = " << n << ", trial " << trial);
      expect_table_matches_formula(ch, n + 1);
    }
  }

  // Off-centre explicit positions, two of them outside the floor plan.
  const Vec2 explicit_positions[] = {{0.3, 0.9}, {2.2, 0.4}, {3.5, 1.6},
                                     {-0.2, 2.0}, {2.0, 2.3}, {5.0, 4.1}};
  TestbedChannel off_centre;
  for (std::uint16_t id = 0; id < std::size(explicit_positions); ++id)
    off_centre.place(packet::NodeId{id}, explicit_positions[id]);
  {
    SCOPED_TRACE("off-centre");
    expect_table_matches_formula(off_centre, std::size(explicit_positions));
  }

  // Re-placed after a medium holds the channel, as experiment.cpp applies
  // explicit coordinates and examples/multi_antenna_eve.cpp adds antennas.
  // The medium reads the channel by reference, so the moved node's row
  // and column must both be refreshed in place.
  TestbedChannel moved;
  for (std::uint16_t id = 0; id < 4; ++id)
    moved.place_in_cell(packet::NodeId{id}, CellIndex{2u * id});
  const net::SimMedium medium(moved, Rng(7));
  moved.place(packet::NodeId{1}, Vec2{3.3, 0.2});
  moved.place_in_cell(packet::NodeId{4}, CellIndex{5});
  moved.place_in_cell(packet::NodeId{3}, CellIndex{1});
  {
    SCOPED_TRACE("re-placed");
    expect_table_matches_formula(moved, 5);
  }

  TestbedChannel::Config quiet_config;
  quiet_config.interference_enabled = false;
  TestbedChannel quiet(quiet_config);
  for (std::uint16_t id = 0; id < 5; ++id)
    quiet.place(packet::NodeId{id}, explicit_positions[id]);
  {
    SCOPED_TRACE("interference off");
    expect_table_matches_formula(quiet, 5);
  }
}

TEST(TestbedChannel, FailedPlacementLeavesNodeUnplaced) {
  TestbedChannel ch;
  ch.place_in_cell(packet::NodeId{0}, CellIndex{0});
  ch.place_in_cell(packet::NodeId{1}, CellIndex{4});
  // So far away the received power underflows to 0 mW, which has no dB.
  EXPECT_THROW(ch.place(packet::NodeId{1}, Vec2{1e300, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)ch.erasure_probability({packet::NodeId{0}, packet::NodeId{1}, 0}),
      std::out_of_range);
  EXPECT_THROW((void)ch.position_of(packet::NodeId{1}), std::out_of_range);
  expect_table_matches_formula(ch, 1);
  ch.place_in_cell(packet::NodeId{1}, CellIndex{8});
  expect_table_matches_formula(ch, 2);
}

TEST(TestbedChannel, SinrSymmetricInDistance) {
  TestbedChannel ch;
  ch.place_in_cell(packet::NodeId{0}, CellIndex{0});
  ch.place_in_cell(packet::NodeId{1}, CellIndex{8});
  // Same distance both ways; with no jamming difference for the diagonal
  // pair in slot 4 (jams row 1 / col 1 — neither corner), SINR matches.
  EXPECT_NEAR(ch.link_sinr_db(packet::NodeId{0}, packet::NodeId{1}, 4),
              ch.link_sinr_db(packet::NodeId{1}, packet::NodeId{0}, 4), 1e-9);
}

}  // namespace
}  // namespace thinair::channel
