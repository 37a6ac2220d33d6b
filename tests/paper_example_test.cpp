// The worked examples from the paper, reproduced end to end.
//
// Sec. 3.1: Alice transmits 10 x-packets; Bob receives x1,x3,x5,x7,x9; Eve
// receives x1,x3,x5,x6,x8,x10. Alice and Bob can distil exactly 2 secret
// packets, and the "wrong" combinations the paper warns about leak half
// the secret.
//
// Sec. 3.2: Alice/Bob/Calvin share a 3-packet y-pool with M1 = M2 = 2;
// one broadcast z-packet redistributes it and 2 s-packets emerge that Eve
// knows nothing about.
#include <gtest/gtest.h>

#include "analysis/eve_view.h"
#include "analysis/leakage.h"
#include "core/phase1.h"
#include "core/phase2.h"
#include "phase_spans.h"

namespace thinair::core {
namespace {

using test::bytes;
using test::held_spans;
using test::random_payloads;
using test::spans;

packet::NodeId T(std::uint16_t v) { return packet::NodeId{v}; }

// Paper indices are 1-based (x1..x10); ours 0-based.
constexpr std::uint32_t X(std::uint32_t paper_index) {
  return paper_index - 1;
}

class Paper31Example : public ::testing::Test {
 protected:
  Paper31Example() : table_(T(0), {T(1)}, 10) {
    table_.set_received(T(1), bob_);
  }

  std::vector<std::uint32_t> bob_{X(1), X(3), X(5), X(7), X(9)};
  std::vector<std::uint32_t> eve_{X(1), X(3), X(5), X(6), X(8), X(10)};
  ReceptionTable table_;
};

TEST_F(Paper31Example, AliceAndBobShareFivePacketsEveMissesTwo) {
  const OracleEstimator est(eve_, 10);
  net::NodeSet exempt;
  exempt.insert(T(0));
  exempt.insert(T(1));
  // Of Bob's five packets Eve misses exactly x7 and x9.
  EXPECT_EQ(est.missed_within(bob_, exempt), 2u);
}

TEST_F(Paper31Example, ProtocolDistilsExactlyTwoSecretPackets) {
  const OracleEstimator est(eve_, 10);
  const Phase1Result p1 = run_phase1(table_, est, PoolStrategy::kClassShared);
  EXPECT_EQ(p1.build.pool.size(), 2u);        // M1 = 2
  EXPECT_EQ(p1.build.pool.count_for(T(1)), 2u);
  EXPECT_EQ(p1.build.pool.group_secret_size(), 2u);

  // Eve cannot reconstruct either y-packet: her view leaves both unknown.
  analysis::EveView eve(10);
  eve.observe_x(eve_);
  EXPECT_EQ(eve.equivocation(p1.build.pool.rows()), 2u);

  // And Bob really can: end-to-end payload check.
  packet::PayloadArena arena;
  const auto x = random_payloads(10, 100, 1);
  const auto y = all_y_contents(p1.build.pool, spans(x), 100, arena);
  const auto bob_y =
      reconstruct_y(p1.build.pool, T(1), held_spans(x, bob_), 100, arena);
  EXPECT_EQ(bytes(bob_y), bytes(y));  // Bob rebuilds every y-packet
}

TEST_F(Paper31Example, PaperGoodCombinationsAreSecret) {
  // y1 = x1 + x5 + x9, y2 = x3 + x7 (the paper's working example).
  gf::Matrix good(2, 10);
  good.set(0, X(1), gf::kOne);
  good.set(0, X(5), gf::kOne);
  good.set(0, X(9), gf::kOne);
  good.set(1, X(3), gf::kOne);
  good.set(1, X(7), gf::kOne);

  analysis::EveView eve(10);
  eve.observe_x(eve_);
  const auto rep = analysis::compute_leakage(eve, good);
  EXPECT_EQ(rep.hidden_dims, 2u);
  EXPECT_DOUBLE_EQ(rep.reliability, 1.0);
}

TEST_F(Paper31Example, PaperBadCombinationsLeakHalfTheSecret) {
  // y'1 = x1 + x3 + x5 (Eve knows all three!), y'2 = x7 + x9.
  gf::Matrix bad(2, 10);
  bad.set(0, X(1), gf::kOne);
  bad.set(0, X(3), gf::kOne);
  bad.set(0, X(5), gf::kOne);
  bad.set(1, X(7), gf::kOne);
  bad.set(1, X(9), gf::kOne);

  analysis::EveView eve(10);
  eve.observe_x(eve_);
  const auto rep = analysis::compute_leakage(eve, bad);
  EXPECT_EQ(rep.leaked_dims, 1u);
  EXPECT_DOUBLE_EQ(rep.reliability, 0.5);  // "recover half of the secret"
}

// Sec. 3.2's three-terminal example, built exactly as printed: the pool is
// {y1 (Bob+Calvin), y2 (Bob), y3 (Calvin)} over an abstract y-space.
class Paper32Example : public ::testing::Test {
 protected:
  Paper32Example() : pool_(3, {T(1), T(2)}) {
    // Identify the y-universe with 3 abstract source packets so y_j = u_j.
    const auto unit = [](std::uint32_t i) {
      packet::Combination c;
      c.add(i, gf::kOne);
      return c;
    };
    net::NodeSet both, bob, calvin;
    both.insert(T(1));
    both.insert(T(2));
    bob.insert(T(1));
    calvin.insert(T(2));
    pool_.add({unit(0), both});    // y1
    pool_.add({unit(1), bob});     // y2
    pool_.add({unit(2), calvin});  // y3
  }

  YPool pool_;
};

TEST_F(Paper32Example, PoolShapeMatchesPaper) {
  EXPECT_EQ(pool_.size(), 3u);                 // M = 3
  EXPECT_EQ(pool_.count_for(T(1)), 2u);        // M1 = 2 (y1, y2)
  EXPECT_EQ(pool_.count_for(T(2)), 2u);        // M2 = 2 (y1, y3)
  EXPECT_EQ(pool_.group_secret_size(), 2u);    // L = min = 2
}

TEST_F(Paper32Example, OneZPacketRedistributesTwoSPacketsEmerge) {
  const Phase2Plan plan = plan_phase2(pool_);
  EXPECT_EQ(plan.h.rows(), 1u);  // M - L = 1 z-packet (paper: y2 + y3)
  EXPECT_EQ(plan.c.rows(), 2u);  // L = 2 s-packets

  packet::PayloadArena arena;
  const auto y = random_payloads(3, 100, 2);
  const auto z = make_z_payloads(plan, spans(y), 100, arena);
  const auto s = make_s_payloads(plan, spans(y), 100, arena);

  // Bob holds y1, y2; Calvin holds y1, y3; both repair and agree.
  for (const std::uint32_t other : {1u, 2u}) {
    const std::vector<std::uint32_t> held{0, other};
    const auto full =
        recover_all_y(plan, held_spans(y, held), z, 100, arena);
    EXPECT_EQ(bytes(full), y);
    EXPECT_EQ(bytes(make_s_payloads(plan, full, 100, arena)), bytes(s));
  }

  // Eve: "knows nothing about any of the y-packets" but hears the z
  // broadcast; the s-packets must remain jointly uniform to her.
  gf::LinearSpace eve(3);
  eve.insert_rows(plan.h);
  EXPECT_EQ(eve.residual_rank(plan.c), 2u);

  // And phase 2 does not create secrecy out of nothing: Eve's knowledge
  // of y2 would surface in the metric.
  gf::LinearSpace eve2(3);
  eve2.insert_rows(plan.h);
  EXPECT_TRUE(eve2.insert_unit(1));  // Eve somehow knows y2
  EXPECT_LT(eve2.residual_rank(plan.c), 2u);
}

}  // namespace
}  // namespace thinair::core
