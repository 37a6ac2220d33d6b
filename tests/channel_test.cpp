// Channel substrate: RNG determinism, geometry, path loss, SINR mapping,
// erasure models.
#include <gtest/gtest.h>

#include <cmath>

#include "channel/erasure.h"
#include "channel/geometry.h"
#include "channel/pathloss.h"
#include "channel/rng.h"
#include "channel/sinr.h"

namespace thinair::channel {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  bool differ = false;
  for (int i = 0; i < 10; ++i) differ |= (a.next_u64() != b.next_u64());
  EXPECT_TRUE(differ);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(13), 13u);
  EXPECT_THROW((void)rng.next_below(0), std::invalid_argument);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliApproximatesP) {
  Rng rng(10);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(11);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Geometry, DistanceEuclidean) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}), 0.0);
}

TEST(Geometry, PaperGridDimensions) {
  const CellGrid grid;  // 14 m^2
  EXPECT_NEAR(grid.side(), 3.7417, 1e-3);
  EXPECT_NEAR(grid.cell_side(), 1.2472, 1e-3);
  // The paper's 1.75 m minimum distance is the cell diagonal.
  EXPECT_NEAR(grid.min_distance(), 1.7638, 1e-3);
}

TEST(Geometry, CellCentersRoundTrip) {
  const CellGrid grid;
  for (std::size_t i = 0; i < CellGrid::kCells; ++i) {
    const CellIndex cell{i};
    EXPECT_EQ(grid.cell_of(grid.center(cell)).value, i);
  }
}

TEST(Geometry, CellOfClampsOutside) {
  const CellGrid grid;
  EXPECT_EQ(grid.cell_of({-1.0, -1.0}).value, 0u);
  EXPECT_EQ(grid.cell_of({100.0, 100.0}).value, 8u);
  // Past any integer's range the quotient must still clamp, not be cast
  // (2.0 m lies in row/column 1 of the 14 m^2 grid).
  EXPECT_EQ(grid.cell_of({1e300, 2.0}).value, 5u);
  EXPECT_EQ(grid.cell_of({-1e300, 2.0}).value, 3u);
  EXPECT_EQ(grid.cell_of({2.0, 1e300}).value, 7u);
  EXPECT_EQ(grid.cell_of({2.0, -1e300}).value, 1u);
  EXPECT_EQ(grid.cell_of({std::nan(""), 2.0}).value, 3u);
}

TEST(Geometry, RowColDecomposition) {
  EXPECT_EQ(CellIndex{0}.row(), 0u);
  EXPECT_EQ(CellIndex{5}.row(), 1u);
  EXPECT_EQ(CellIndex{5}.col(), 2u);
  EXPECT_EQ(CellIndex{8}.row(), 2u);
}

TEST(Geometry, InvalidAreaThrows) {
  EXPECT_THROW(CellGrid(0.0), std::invalid_argument);
  EXPECT_THROW(CellGrid(-3.0), std::invalid_argument);
}

TEST(PathLoss, DecreasesWithDistance) {
  const LogDistancePathLoss pl;
  EXPECT_GT(pl.rx_power_dbm(1.0), pl.rx_power_dbm(2.0));
  EXPECT_GT(pl.rx_power_dbm(2.0), pl.rx_power_dbm(4.0));
}

TEST(PathLoss, ReferenceValueAtOneMetre) {
  const LogDistancePathLoss pl;
  EXPECT_NEAR(pl.rx_power_dbm(1.0),
              pl.params().tx_power_dbm - pl.params().ref_loss_db, 1e-9);
}

TEST(PathLoss, ExponentSlope) {
  PathLossParams p;
  p.exponent = 2.0;
  const LogDistancePathLoss pl(p);
  // doubling distance costs 10*2*log10(2) ~ 6.02 dB.
  EXPECT_NEAR(pl.rx_power_dbm(1.0) - pl.rx_power_dbm(2.0), 6.02, 0.01);
}

TEST(PathLoss, MinDistanceClamp) {
  const LogDistancePathLoss pl;
  EXPECT_DOUBLE_EQ(pl.rx_power_dbm(0.0), pl.rx_power_dbm(0.05));
}

TEST(PathLoss, DbLinearRoundTrip) {
  for (double db : {-90.0, -40.0, 0.0, 10.0})
    EXPECT_NEAR(linear_to_db(db_to_linear(db)), db, 1e-9);
  EXPECT_THROW((void)linear_to_db(0.0), std::invalid_argument);
}

TEST(Sinr, PerMonotoneDecreasing) {
  const SinrParams p;
  double prev = 1.0;
  for (double s = -20.0; s <= 40.0; s += 2.0) {
    const double per = packet_error_rate(s, p);
    EXPECT_LE(per, prev);
    prev = per;
  }
}

TEST(Sinr, PerClampedToFloorAndCeiling) {
  const SinrParams p;
  EXPECT_DOUBLE_EQ(packet_error_rate(100.0, p), p.floor);
  EXPECT_DOUBLE_EQ(packet_error_rate(-100.0, p), p.ceiling);
}

TEST(Sinr, HalfLossAtThreshold) {
  const SinrParams p;
  EXPECT_NEAR(packet_error_rate(p.per_threshold_db, p), 0.5, 1e-9);
}

TEST(Sinr, SinrDbComputation) {
  SinrParams p;
  p.noise_floor_dbm = -90.0;
  // signal -60 dBm over pure noise floor: SINR = 30 dB.
  EXPECT_NEAR(sinr_db(db_to_linear(-60.0), 0.0, p), 30.0, 1e-9);
  // Interference at the same level as the signal: SINR ~ 0 dB (minus the
  // negligible noise contribution).
  EXPECT_NEAR(sinr_db(db_to_linear(-60.0), db_to_linear(-60.0), p), 0.0,
              0.01);
}

TEST(Erasure, IidBounds) {
  EXPECT_THROW(IidErasure(-0.1), std::invalid_argument);
  EXPECT_THROW(IidErasure(1.1), std::invalid_argument);
  const IidErasure e(0.4);
  EXPECT_DOUBLE_EQ(
      e.erasure_probability({packet::NodeId{0}, packet::NodeId{1}, 0}), 0.4);
}

TEST(Erasure, PerLinkOverridesDefault) {
  PerLinkErasure e(0.1);
  e.set(packet::NodeId{0}, packet::NodeId{1}, 0.9);
  EXPECT_DOUBLE_EQ(
      e.erasure_probability({packet::NodeId{0}, packet::NodeId{1}, 0}), 0.9);
  EXPECT_DOUBLE_EQ(
      e.erasure_probability({packet::NodeId{1}, packet::NodeId{0}, 0}), 0.1);
}

TEST(Erasure, DrawMatchesProbability) {
  const IidErasure e(1.0);
  Rng rng(5);
  EXPECT_TRUE(e.erased(rng, {packet::NodeId{0}, packet::NodeId{1}, 0}));
  const IidErasure never(0.0);
  EXPECT_FALSE(never.erased(rng, {packet::NodeId{0}, packet::NodeId{1}, 0}));
}

}  // namespace
}  // namespace thinair::channel
