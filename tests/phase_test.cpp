// Phase 1 and phase 2 as pure functions: announcement contents, Alice- and
// terminal-side evaluation, z-repair and s-agreement.
#include <gtest/gtest.h>

#include <tuple>

#include "channel/rng.h"
#include "core/phase1.h"
#include "core/phase2.h"
#include "gf/linear_space.h"
#include "phase_spans.h"

namespace thinair::core {
namespace {

using test::bytes;
using test::held_spans;
using test::random_payloads;
using test::spans;

packet::NodeId T(std::uint16_t v) { return packet::NodeId{v}; }

struct Fixture {
  ReceptionTable table{T(0), {T(1), T(2)}, 9};
  std::vector<std::uint32_t> eve{0, 1, 6};
  std::vector<packet::Payload> x = random_payloads(9, 16, 77);

  Fixture() {
    table.set_received(T(1), {0, 1, 2, 3, 4, 5});
    table.set_received(T(2), {0, 1, 2, 6, 7});
  }

  [[nodiscard]] Phase1Result phase1() const {
    const OracleEstimator est(eve, 9);
    return run_phase1(table, est, PoolStrategy::kClassShared);
  }

  [[nodiscard]] std::vector<packet::ConstByteSpan> rx_payloads(
      packet::NodeId t) const {
    return held_spans(x, table.received(t));
  }
};

TEST(Phase1, AnnouncementListsEveryPoolEntry) {
  const Fixture f;
  const Phase1Result r = f.phase1();
  EXPECT_EQ(r.announcement.combinations.size(), r.build.pool.size());
  EXPECT_EQ(r.announcement.combinations, r.build.pool.combinations());
}

TEST(Phase1, AliceAndTerminalAgreeOnYContents) {
  const Fixture f;
  const Phase1Result r = f.phase1();
  packet::PayloadArena arena;
  const auto alice_y =
      bytes(all_y_contents(r.build.pool, spans(f.x), 16, arena));

  for (packet::NodeId t : {T(1), T(2)}) {
    const auto own = bytes(
        reconstruct_y(r.build.pool, t, f.rx_payloads(t), 16, arena));
    const auto known = r.build.pool.known_indices(t);
    for (std::size_t j = 0; j < r.build.pool.size(); ++j) {
      const bool should_know =
          std::find(known.begin(), known.end(), j) != known.end();
      EXPECT_EQ(!own[j].empty(), should_know);
      if (should_know) {
        EXPECT_EQ(own[j], alice_y[j]);
      }
    }
  }
}

TEST(Phase1, PayloadSizeMismatchThrows) {
  const Fixture f;
  const Phase1Result r = f.phase1();
  const YPool& pool = r.build.pool;
  packet::PayloadArena arena;
  EXPECT_THROW((void)all_y_contents(pool, spans(f.x), 7, arena),
               std::invalid_argument);
  EXPECT_THROW((void)all_y_contents(pool, spans(f.x), 0, arena),
               std::invalid_argument);
  const std::vector<packet::ConstByteSpan> short_x(4);
  EXPECT_THROW((void)all_y_contents(pool, short_x, 16, arena),
               std::invalid_argument);

  // The terminal side validates the x-packets it combines.
  EXPECT_THROW((void)reconstruct_y(pool, T(1), f.rx_payloads(T(1)), 7,
                                   arena),
               std::invalid_argument);
  EXPECT_THROW((void)reconstruct_y(pool, T(1), f.rx_payloads(T(1)), 0,
                                   arena),
               std::invalid_argument);
  EXPECT_THROW((void)reconstruct_y(pool, T(1), short_x, 16, arena),
               std::invalid_argument);
}

TEST(Phase2, PlanShapes) {
  const Fixture f;
  const Phase1Result p1 = f.phase1();
  const Phase2Plan plan = plan_phase2(p1.build.pool);
  const std::size_t m = p1.build.pool.size();
  const std::size_t l = p1.build.pool.group_secret_size();
  EXPECT_EQ(plan.pool_size, m);
  EXPECT_EQ(plan.group_size, l);
  EXPECT_EQ(plan.h.rows(), m - l);
  EXPECT_EQ(plan.c.rows(), l);
  EXPECT_EQ(plan.z_announcement.combinations.size(), m - l);
  EXPECT_EQ(plan.s_announcement.combinations.size(), l);
  EXPECT_EQ(secret_bits(plan, 16), l * 16 * 8);
}

TEST(Phase2, HStackCIsInvertible) {
  // The construction's secrecy hinge: [H; C] must be a bijection of the
  // y-space.
  const Fixture f;
  const Phase2Plan plan = plan_phase2(f.phase1().build.pool);
  EXPECT_TRUE(plan.h.vstack(plan.c).invertible());
}

TEST(Phase2, EveryTerminalRecoversAllYAndTheSameSecret) {
  const Fixture f;
  const Phase1Result p1 = f.phase1();
  const Phase2Plan plan = plan_phase2(p1.build.pool);
  packet::PayloadArena arena;
  const auto y = all_y_contents(p1.build.pool, spans(f.x), 16, arena);
  const auto z = make_z_payloads(plan, y, 16, arena);
  const auto s = make_s_payloads(plan, y, 16, arena);
  ASSERT_EQ(s.size(), plan.group_size);

  for (packet::NodeId t : {T(1), T(2)}) {
    const auto own =
        reconstruct_y(p1.build.pool, t, f.rx_payloads(t), 16, arena);
    const auto full = recover_all_y(plan, own, z, 16, arena);
    EXPECT_EQ(bytes(full), bytes(y));
    EXPECT_EQ(bytes(make_s_payloads(plan, full, 16, arena)), bytes(s));
  }
}

TEST(Phase2, EmptyPoolYieldsEmptyPlan) {
  const YPool pool(5, {T(1)});
  const Phase2Plan plan = plan_phase2(pool);
  EXPECT_EQ(plan.group_size, 0u);
  EXPECT_EQ(plan.h.rows(), 0u);
  EXPECT_EQ(plan.c.rows(), 0u);
}

TEST(Phase2, FullKnowledgeNeedsNoZPackets) {
  // Both terminals can rebuild every y: M == L, zero z-packets.
  ReceptionTable t(T(0), {T(1), T(2)}, 4);
  t.set_received(T(1), {0, 1, 2, 3});
  t.set_received(T(2), {0, 1, 2, 3});
  const OracleEstimator est({}, 4);  // Eve missed everything
  const auto build = build_pool(t, est, PoolStrategy::kClassShared);
  const Phase2Plan plan = plan_phase2(build.pool);
  EXPECT_EQ(plan.pool_size, plan.group_size);
  EXPECT_EQ(plan.h.rows(), 0u);

  packet::PayloadArena arena;
  const auto x = random_payloads(4, 8, 5);
  const auto y = all_y_contents(build.pool, spans(x), 8, arena);
  const auto z = make_z_payloads(plan, y, 8, arena);
  EXPECT_TRUE(z.empty());
  EXPECT_EQ(bytes(recover_all_y(plan, y, z, 8, arena)), bytes(y));
}

TEST(Phase2, RecoverValidatesInputs) {
  const Fixture f;
  const Phase1Result p1 = f.phase1();
  const Phase2Plan plan = plan_phase2(p1.build.pool);
  packet::PayloadArena arena;
  const auto y = all_y_contents(p1.build.pool, spans(f.x), 16, arena);
  const auto z = make_z_payloads(plan, y, 16, arena);
  const auto own =
      reconstruct_y(p1.build.pool, T(1), f.rx_payloads(T(1)), 16, arena);

  const std::vector<packet::ConstByteSpan> wrong_size(
      p1.build.pool.size() + 1);
  EXPECT_THROW((void)recover_all_y(plan, wrong_size, z, 16, arena),
               std::invalid_argument);
  EXPECT_THROW((void)recover_all_y(plan, own, z, 0, arena),
               std::invalid_argument);
  // Every z-packet is checked, even when no y-packet needs repair.
  ASSERT_FALSE(z.empty());
  EXPECT_THROW((void)recover_all_y(plan, y, z, 8, arena),
               std::invalid_argument);  // the z-packets hold 16 bytes
  const std::span<const packet::ConstByteSpan> short_z(z.data(),
                                                       z.size() - 1);
  EXPECT_THROW((void)recover_all_y(plan, own, short_z, 16, arena),
               std::invalid_argument);

  const std::vector<packet::ConstByteSpan> none(p1.build.pool.size());
  if (plan.h.rows() < plan.pool_size) {  // more unknowns than z-packets
    EXPECT_THROW((void)recover_all_y(plan, none, z, 16, arena),
                 std::invalid_argument);
  }
}

TEST(Phase2, SecretIsUniformGivenZForIgnorantEve) {
  // The paper's key point: when Eve knows nothing of the y-packets, the
  // public z contents give her nothing about the s-packets.
  const Fixture f;
  const Phase1Result p1 = f.phase1();
  const Phase2Plan plan = plan_phase2(p1.build.pool);
  const gf::Matrix g = p1.build.pool.rows();

  gf::LinearSpace eve(9);
  for (std::uint32_t i : f.eve) std::ignore = eve.insert_unit(i);
  if (plan.h.rows() > 0) eve.insert_rows(plan.h.mul(g));
  EXPECT_EQ(eve.residual_rank(plan.c.mul(g)), plan.group_size);
}

// Property sweep: random reception patterns, oracle estimates — all
// terminals always decode the same secret and Eve's equivocation is
// always exactly L.
class PhaseSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PhaseSweep, EndToEndAgreementAndSecrecy) {
  channel::Rng rng(GetParam());
  const std::size_t n = 24;
  ReceptionTable table(T(0), {T(1), T(2), T(3)}, n);
  for (packet::NodeId t : {T(1), T(2), T(3)}) {
    std::vector<std::uint32_t> got;
    for (std::uint32_t i = 0; i < n; ++i)
      if (rng.bernoulli(0.7)) got.push_back(i);
    table.set_received(t, got);
  }
  std::vector<std::uint32_t> eve;
  for (std::uint32_t i = 0; i < n; ++i)
    if (rng.bernoulli(0.5)) eve.push_back(i);

  const OracleEstimator est(eve, n);
  const Phase1Result p1 = run_phase1(table, est, PoolStrategy::kClassShared);
  const Phase2Plan plan = plan_phase2(p1.build.pool);
  if (plan.group_size == 0) return;

  packet::PayloadArena arena;
  const auto x = random_payloads(n, 8, GetParam() + 1);
  const auto y = all_y_contents(p1.build.pool, spans(x), 8, arena);
  const auto z = make_z_payloads(plan, y, 8, arena);
  const auto s = make_s_payloads(plan, y, 8, arena);

  for (packet::NodeId t : {T(1), T(2), T(3)}) {
    const auto own_y = reconstruct_y(
        p1.build.pool, t, held_spans(x, table.received(t)), 8, arena);
    const auto full = recover_all_y(plan, own_y, z, 8, arena);
    EXPECT_EQ(bytes(make_s_payloads(plan, full, 8, arena)), bytes(s));
  }

  gf::LinearSpace eve_space(n);
  for (std::uint32_t i : eve) std::ignore = eve_space.insert_unit(i);
  const gf::Matrix g = p1.build.pool.rows();
  if (plan.h.rows() > 0) eve_space.insert_rows(plan.h.mul(g));
  EXPECT_EQ(eve_space.residual_rank(plan.c.mul(g)), plan.group_size);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PhaseSweep,
                         ::testing::Range<std::uint64_t>(500, 516));

}  // namespace
}  // namespace thinair::core
