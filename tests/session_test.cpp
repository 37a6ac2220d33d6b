// End-to-end protocol sessions over the simulated network.
#include "core/session.h"

#include <gtest/gtest.h>

#include "channel/erasure.h"
#include "core/unicast.h"

namespace thinair::core {
namespace {

struct Net {
  channel::IidErasure channel;
  net::SimMedium medium;

  Net(double p, std::size_t n, std::uint64_t seed)
      : channel(p), medium(channel, channel::Rng(seed)) {
    for (std::size_t i = 0; i < n; ++i)
      medium.attach(packet::NodeId{static_cast<std::uint16_t>(i)},
                    net::Role::kTerminal);
    medium.attach(packet::NodeId{static_cast<std::uint16_t>(n)},
                  net::Role::kEavesdropper);
  }
};

SessionConfig oracle_config(std::size_t rounds = 2) {
  SessionConfig cfg;
  cfg.x_packets_per_round = 60;
  cfg.payload_bytes = 32;
  cfg.rounds = rounds;
  cfg.estimator.kind = EstimatorKind::kOracle;
  cfg.pool_strategy = PoolStrategy::kClassShared;
  return cfg;
}

TEST(Session, ProducesSecretWithOracleReliabilityOne) {
  Net net(0.5, 3, 42);
  GroupSecretSession session(net.medium, oracle_config());
  const SessionResult r = session.run();
  EXPECT_GT(r.secret_bits(), 0u);
  // Oracle caps make the pool provably uniform for Eve: reliability is
  // exactly 1 in every round.
  for (const RoundOutcome& round : r.rounds)
    EXPECT_DOUBLE_EQ(round.leakage.reliability, 1.0);
  EXPECT_DOUBLE_EQ(r.reliability(), 1.0);
}

TEST(Session, SecretLengthMatchesRoundOutcomes) {
  Net net(0.4, 4, 43);
  GroupSecretSession session(net.medium, oracle_config(3));
  const SessionResult r = session.run();
  std::size_t want_bits = 0;
  for (const RoundOutcome& round : r.rounds) want_bits += round.secret_bits;
  EXPECT_EQ(r.secret_bits(), want_bits);
  ASSERT_EQ(r.rounds.size(), 3u);
}

TEST(Session, RotatesAlice) {
  Net net(0.5, 3, 44);
  SessionConfig cfg = oracle_config(3);
  GroupSecretSession session(net.medium, cfg);
  const SessionResult r = session.run();
  EXPECT_EQ(r.rounds[0].alice, packet::NodeId{0});
  EXPECT_EQ(r.rounds[1].alice, packet::NodeId{1});
  EXPECT_EQ(r.rounds[2].alice, packet::NodeId{2});
}

TEST(Session, FixedAliceWhenRotationDisabled) {
  Net net(0.5, 3, 45);
  SessionConfig cfg = oracle_config(3);
  cfg.rotate_alice = false;
  GroupSecretSession session(net.medium, cfg);
  const SessionResult r = session.run();
  for (const RoundOutcome& round : r.rounds)
    EXPECT_EQ(round.alice, packet::NodeId{0});
}

TEST(Session, DefaultRoundsEqualTerminalCount) {
  Net net(0.5, 4, 46);
  SessionConfig cfg = oracle_config();
  cfg.rounds = 0;
  GroupSecretSession session(net.medium, cfg);
  EXPECT_EQ(session.run().rounds.size(), 4u);
}

TEST(Session, LedgerCoversAllTrafficClasses) {
  Net net(0.5, 3, 47);
  GroupSecretSession session(net.medium, oracle_config());
  const SessionResult r = session.run();
  EXPECT_GT(r.ledger.bytes(net::TrafficClass::kData), 0u);
  EXPECT_GT(r.ledger.bytes(net::TrafficClass::kControl), 0u);
  EXPECT_GT(r.ledger.total_bytes(), 0u);
  EXPECT_GT(r.duration_s, 0.0);
  EXPECT_GT(r.efficiency(), 0.0);
  EXPECT_LT(r.efficiency(), 1.0);
  EXPECT_GT(r.secret_rate_bps(), 0.0);
}

TEST(Session, RepeatedRunsReportDeltas) {
  Net net(0.5, 3, 48);
  GroupSecretSession session(net.medium, oracle_config(1));
  const SessionResult r1 = session.run();
  const SessionResult r2 = session.run();
  // Ledgers are per-run, so totals are comparable in magnitude (not
  // cumulative).
  EXPECT_LT(r2.ledger.total_bytes(), 2 * r1.ledger.total_bytes() + 1);
  EXPECT_GT(r2.ledger.total_bytes(), 0u);
}

TEST(Session, PerfectChannelYieldsNoSecret) {
  // Nobody misses anything => Eve misses nothing => no secret material,
  // but the protocol must terminate cleanly.
  Net net(0.0, 3, 49);
  GroupSecretSession session(net.medium, oracle_config(1));
  const SessionResult r = session.run();
  EXPECT_EQ(r.secret_bits(), 0u);
  EXPECT_DOUBLE_EQ(r.reliability(), 1.0);  // vacuous but well-defined
}

TEST(Session, DataEfficiencyMatchesRoundAccounting) {
  Net net(0.5, 3, 50);
  GroupSecretSession session(net.medium, oracle_config(2));
  const SessionResult r = session.run();
  std::size_t packets = 0;
  for (const RoundOutcome& round : r.rounds) {
    EXPECT_EQ(round.data_packets,
              round.universe + round.pool_size - round.group_packets);
    packets += round.data_packets;
  }
  if (packets > 0) {
    EXPECT_NEAR(r.data_efficiency(32),
                static_cast<double>(r.secret_bits()) /
                    static_cast<double>(packets * 32 * 8),
                1e-12);
  }
}

TEST(Session, ValidatesConfig) {
  Net net(0.5, 2, 51);
  SessionConfig bad = oracle_config();
  bad.x_packets_per_round = 0;
  EXPECT_THROW(GroupSecretSession(net.medium, bad), std::invalid_argument);
  EXPECT_THROW(UnicastSession(net.medium, bad), std::invalid_argument);
  bad = oracle_config();
  bad.payload_bytes = 0;
  EXPECT_THROW(GroupSecretSession(net.medium, bad), std::invalid_argument);
  EXPECT_THROW(UnicastSession(net.medium, bad), std::invalid_argument);
}

TEST(Session, NeedsTwoTerminals) {
  channel::IidErasure ch(0.5);
  net::SimMedium medium(ch, channel::Rng(52));
  medium.attach(packet::NodeId{0}, net::Role::kTerminal);
  EXPECT_THROW(GroupSecretSession(medium, oracle_config()),
               std::invalid_argument);
}

TEST(Unicast, ProducesSecretWithOracleReliabilityOne) {
  Net net(0.5, 4, 53);
  UnicastSession session(net.medium, oracle_config());
  const SessionResult r = session.run();
  EXPECT_GT(r.secret_bits(), 0u);
  EXPECT_DOUBLE_EQ(r.reliability(), 1.0);
}

TEST(Unicast, TransmitsCipherTraffic) {
  Net net(0.5, 4, 54);
  UnicastSession session(net.medium, oracle_config());
  const SessionResult r = session.run();
  EXPECT_GT(r.ledger.bytes(net::TrafficClass::kCipher), 0u);
  EXPECT_EQ(r.ledger.bytes(net::TrafficClass::kCoded), 0u);  // no z-packets
}

TEST(Unicast, DataPacketAccountingIncludesCiphers) {
  Net net(0.5, 4, 55);
  UnicastSession session(net.medium, oracle_config(1));
  const SessionResult r = session.run();
  const RoundOutcome& round = r.rounds[0];
  // N x-packets plus (n - 2) * L ciphertexts for n = 4 terminals.
  EXPECT_EQ(round.data_packets,
            round.universe + 2 * round.group_packets);
}

TEST(Unicast, LessEfficientThanGroupForLargerGroups) {
  // Figure 1's message, at one operating point: 6 terminals, p = 0.5.
  double group_eff = 0.0, unicast_eff = 0.0;
  {
    Net net(0.5, 6, 56);
    GroupSecretSession session(net.medium, oracle_config(4));
    group_eff = session.run().data_efficiency(32);
  }
  {
    Net net(0.5, 6, 56);
    UnicastSession session(net.medium, oracle_config(4));
    unicast_eff = session.run().data_efficiency(32);
  }
  EXPECT_GT(group_eff, unicast_eff);
}

// The reliability mechanism itself: a fraction estimator that is too
// optimistic must produce measurable leakage (reliability < 1), because
// the secret is sized beyond what Eve actually missed.
TEST(Session, OverconfidentEstimatorLeaks) {
  Net net(0.3, 3, 57);  // Eve receives 70% of everything
  SessionConfig cfg = oracle_config(4);
  cfg.estimator.kind = EstimatorKind::kFraction;
  cfg.estimator.fraction_delta = 0.9;  // claims Eve misses 90%
  GroupSecretSession session(net.medium, cfg);
  const SessionResult r = session.run();
  EXPECT_LT(r.reliability(), 0.9);
  EXPECT_GT(r.secret_bits(), 0u);
}

TEST(Session, ConservativeFractionEstimatorStaysSafe) {
  Net net(0.5, 3, 58);
  SessionConfig cfg = oracle_config(4);
  cfg.estimator.kind = EstimatorKind::kFraction;
  cfg.estimator.fraction_delta = 0.2;  // well under the true 0.5
  GroupSecretSession session(net.medium, cfg);
  const SessionResult r = session.run();
  EXPECT_GT(r.secret_bits(), 0u);
  EXPECT_GT(r.reliability(), 0.95);
}

// Multi-antenna Eve: two eavesdropper nodes are scored as one adversary
// holding the union of receptions, so reliability cannot improve.
TEST(Session, MultiAntennaEveSeesMore) {
  double one_eff, one_rel, two_rel;
  {
    Net net(0.5, 3, 59);
    SessionConfig cfg = oracle_config(3);
    cfg.estimator.kind = EstimatorKind::kFraction;
    cfg.estimator.fraction_delta = 0.45;
    GroupSecretSession session(net.medium, cfg);
    const auto r = session.run();
    one_eff = r.efficiency();
    one_rel = r.reliability();
  }
  {
    channel::IidErasure ch(0.5);
    net::SimMedium medium(ch, channel::Rng(59));
    for (std::uint16_t i = 0; i < 3; ++i)
      medium.attach(packet::NodeId{i}, net::Role::kTerminal);
    medium.attach(packet::NodeId{3}, net::Role::kEavesdropper);
    medium.attach(packet::NodeId{4}, net::Role::kEavesdropper);
    SessionConfig cfg = oracle_config(3);
    cfg.estimator.kind = EstimatorKind::kFraction;
    cfg.estimator.fraction_delta = 0.45;
    GroupSecretSession session(medium, cfg);
    const auto r = session.run();
    two_rel = r.reliability();
    (void)one_eff;
  }
  EXPECT_LE(two_rel, one_rel + 1e-9);
}

}  // namespace
}  // namespace thinair::core
