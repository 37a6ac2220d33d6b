// The active adversary of Sec. 2, end to end.
//
// A passive Eve only listens; an active Eve can also *impersonate* a
// terminal. The classic attack on this protocol is report forgery: Eve
// replaces terminal T's reception report with her own reception set, so
// Alice builds T's y-packets out of packets Eve holds — and the "secret"
// shared with T (and anything phase 2 distils from it) is transparent to
// Eve. These tests demonstrate the attack against the raw protocol and the
// defence the paper prescribes: one-time-MAC authentication of the public
// discussion, bootstrapped from a small initial secret and refilled by the
// protocol's own output.
#include <gtest/gtest.h>

#include "analysis/eve_view.h"
#include "analysis/leakage.h"
#include "auth/authenticator.h"
#include "channel/rng.h"
#include "core/phase1.h"
#include "core/phase2.h"
#include "packet/serialize.h"
#include "phase_spans.h"

namespace thinair::core {
namespace {

packet::NodeId T(std::uint16_t v) { return packet::NodeId{v}; }

struct Scenario {
  std::size_t universe = 40;
  std::vector<std::uint32_t> honest_r1;  // what T1 actually received
  std::vector<std::uint32_t> eve;        // what Eve received

  Scenario() {
    channel::Rng rng(99);
    for (std::uint32_t i = 0; i < universe; ++i) {
      if (rng.bernoulli(0.6)) honest_r1.push_back(i);
      if (rng.bernoulli(0.5)) eve.push_back(i);
    }
  }

  /// Run phase 1+2 with the given report for T1 and score Eve's knowledge
  /// of the group secret.
  [[nodiscard]] double reliability_with_report(
      const std::vector<std::uint32_t>& r1_report) const {
    ReceptionTable table(T(0), {T(1)}, universe);
    table.set_received(T(1), r1_report);
    const OracleEstimator est(eve, universe);
    const Phase1Result p1 = run_phase1(table, est, PoolStrategy::kClassShared);
    const Phase2Plan plan = plan_phase2(p1.build.pool);
    if (plan.group_size == 0) return 1.0;

    analysis::EveView view(universe);
    view.observe_x(eve);
    const gf::Matrix g = p1.build.pool.rows();
    if (plan.h.rows() > 0) view.observe_combinations(plan.h.mul(g));
    return analysis::compute_leakage(view, plan.c.mul(g)).reliability;
  }
};

TEST(ActiveAdversary, HonestRunIsSecret) {
  const Scenario s;
  EXPECT_DOUBLE_EQ(s.reliability_with_report(s.honest_r1), 1.0);
}

TEST(ActiveAdversary, ForgedReportPoisonsTheSecret) {
  // Eve impersonates T1 and reports *her own* reception set. The oracle
  // estimate is now self-referential garbage: every "secret" packet is
  // built from packets Eve holds.
  const Scenario s;
  // The estimator believes Eve missed what she missed of *her* set: the
  // attack works because Alice keys the construction off the forged set.
  ReceptionTable table(T(0), {T(1)}, s.universe);
  table.set_received(T(1), s.eve);  // forged: T1 "received" Eve's packets
  // Alice still sizes against the *honest* channel estimate (she cannot
  // know the report is forged) — use a fraction estimator as she would.
  const FractionEstimator est(0.4);
  const Phase1Result p1 = run_phase1(table, est, PoolStrategy::kClassShared);
  const Phase2Plan plan = plan_phase2(p1.build.pool);
  ASSERT_GT(plan.group_size, 0u);

  analysis::EveView view(s.universe);
  view.observe_x(s.eve);
  const gf::Matrix g = p1.build.pool.rows();
  if (plan.h.rows() > 0) view.observe_combinations(plan.h.mul(g));
  const auto rep = analysis::compute_leakage(view, plan.c.mul(g));
  // Everything is built over Eve's own reception set: total leakage.
  EXPECT_DOUBLE_EQ(rep.reliability, 0.0);
}

TEST(ActiveAdversary, AuthenticationDetectsForgedReport) {
  const Scenario s;

  // T1 and Alice share bootstrap key material (Sec. 2: unavoidable for
  // the *first* contact; later keys come from the protocol itself).
  std::vector<std::uint8_t> bootstrap(64, 0x5A);
  auth::Authenticator t1(bootstrap);
  auth::Authenticator alice(bootstrap);

  // Honest signed report.
  const packet::ReceptionReport honest{
      static_cast<std::uint32_t>(s.universe), s.honest_r1};
  const auto signed_report = t1.sign(packet::encode(honest));
  ASSERT_TRUE(signed_report.has_value());

  // Eve intercepts and substitutes her forged body, keeping the tag.
  auth::AuthenticatedMessage forged = *signed_report;
  const packet::ReceptionReport fake{static_cast<std::uint32_t>(s.universe),
                                     s.eve};
  forged.body = packet::encode(fake);

  EXPECT_FALSE(alice.verify(forged));        // forgery rejected
  EXPECT_TRUE(alice.verify(*signed_report)); // the honest one still lands
}

TEST(ActiveAdversary, ReplayedReportRejected) {
  // Replaying an old (genuinely signed) report from a previous round must
  // fail too: one-time keys advance monotonically.
  std::vector<std::uint8_t> bootstrap(64, 0x3C);
  auth::Authenticator t1(bootstrap);
  auth::Authenticator alice(bootstrap);

  const auto round1 = t1.sign({1, 2, 3});
  const auto round2 = t1.sign({4, 5, 6});
  ASSERT_TRUE(round1 && round2);
  EXPECT_TRUE(alice.verify(*round1));
  EXPECT_TRUE(alice.verify(*round2));
  EXPECT_FALSE(alice.verify(*round1));  // replay of round 1
}

TEST(ActiveAdversary, ProtocolOutputSustainsAuthentication) {
  // Close the loop: run a (simulated) phase over a table, deposit the
  // secret into the authenticators, and keep signing — the system needs
  // the bootstrap only once.
  const Scenario s;
  ReceptionTable table(T(0), {T(1)}, s.universe);
  table.set_received(T(1), s.honest_r1);
  const OracleEstimator est(s.eve, s.universe);
  const Phase1Result p1 = run_phase1(table, est, PoolStrategy::kClassShared);
  const Phase2Plan plan = plan_phase2(p1.build.pool);
  ASSERT_GT(plan.group_size, 0u);

  packet::PayloadArena arena;
  const auto x = test::random_payloads(s.universe, 32, 7);
  const auto y = all_y_contents(p1.build.pool, test::spans(x), 32, arena);
  const auto secret_packets = make_s_payloads(plan, y, 32, arena);
  std::vector<std::uint8_t> secret;
  for (const auto& p : secret_packets)
    secret.insert(secret.end(), p.begin(), p.end());
  ASSERT_GE(secret.size(), auth::MacKey::kBytes);

  auth::Authenticator t1(std::vector<std::uint8_t>(auth::MacKey::kBytes, 1));
  auth::Authenticator alice(std::vector<std::uint8_t>(auth::MacKey::kBytes, 1));
  EXPECT_TRUE(alice.verify(*t1.sign({0})));  // bootstrap key spent

  t1.refill(secret);
  alice.refill(secret);
  for (std::uint8_t i = 0; i < 3; ++i) {
    const auto m = t1.sign({i});
    ASSERT_TRUE(m.has_value());
    EXPECT_TRUE(alice.verify(*m));
  }
}

}  // namespace
}  // namespace thinair::core
