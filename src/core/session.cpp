#include "core/session.h"

#include <algorithm>
#include <stdexcept>

#include "analysis/eve_view.h"
#include "net/reliable.h"
#include "packet/serialize.h"

namespace thinair::core {

double SessionResult::reliability() const {
  std::size_t total = 0;
  std::size_t hidden = 0;
  for (const RoundOutcome& r : rounds) {
    total += r.leakage.secret_dims;
    hidden += r.leakage.hidden_dims;
  }
  return total == 0 ? 1.0
                    : static_cast<double>(hidden) / static_cast<double>(total);
}

double SessionResult::efficiency() const {
  const std::size_t bits = ledger.total_bits();
  return bits == 0 ? 0.0
                   : static_cast<double>(secret_bits()) /
                         static_cast<double>(bits);
}

double SessionResult::data_efficiency(std::size_t payload_bytes) const {
  std::size_t packets = 0;
  for (const RoundOutcome& r : rounds) packets += r.data_packets;
  const std::size_t bits = packets * payload_bytes * 8;
  return bits == 0 ? 0.0
                   : static_cast<double>(secret_bits()) /
                         static_cast<double>(bits);
}

double SessionResult::secret_rate_bps() const {
  return duration_s <= 0.0
             ? 0.0
             : static_cast<double>(secret_bits()) / duration_s;
}

GroupSecretSession::GroupSecretSession(net::Medium& medium,
                                       SessionConfig config)
    : medium_(&medium), config_(std::move(config)) {
  if (medium.terminals().size() < 2)
    throw std::invalid_argument("GroupSecretSession: need >= 2 terminals");
  if (config_.x_packets_per_round == 0)
    throw std::invalid_argument("GroupSecretSession: N == 0");
  if (config_.payload_bytes == 0)
    throw std::invalid_argument("GroupSecretSession: empty payloads");
}

SessionResult GroupSecretSession::run() {
  const auto& terminals = medium_->terminals();
  const std::size_t rounds =
      config_.rounds == 0 ? terminals.size() : config_.rounds;

  SessionResult result;
  result.rounds.reserve(rounds);
  const net::Ledger ledger_before = medium_->ledger();
  const double time_before = medium_->now();

  for (std::size_t r = 0; r < rounds; ++r) {
    const packet::NodeId alice =
        config_.rotate_alice ? terminals[r % terminals.size()] : terminals[0];
    result.rounds.push_back(
        run_round(alice, packet::RoundId{next_round_++}, result));
  }

  result.ledger = medium_->ledger().since(ledger_before);
  result.duration_s = medium_->now() - time_before;
  return result;
}

RoundOutcome GroupSecretSession::run_round(packet::NodeId alice,
                                           packet::RoundId round,
                                           SessionResult& result) {
  const std::size_t n = config_.x_packets_per_round;
  const std::size_t payload = config_.payload_bytes;

  // All round payloads live in the arena; everything a later round needs
  // is copied out (the secret bytes, the outcome counters), so the round
  // boundary is the natural reclamation point.
  packet::PayloadArena& arena = this->arena();
  arena.reset();

  // Phase 1, steps 1-2.
  const RoundContext ctx =
      open_round(*medium_, alice, round, n, payload, arena);

  // Phase 1, steps 3-4: the y-pool and its public identities.
  receiver_cells_.clear();
  if (!config_.estimator.occupied_cells.empty())
    for (packet::NodeId r : ctx.receivers)
      receiver_cells_.push_back(config_.estimator.occupied_cells.at(r.value));
  const auto estimator =
      build_estimator(config_.estimator, ctx.table, ctx.eve_indices,
                      ctx.slot_of, receiver_cells_);
  const Phase1Result phase1 =
      run_phase1(ctx.table, *estimator, config_.pool_strategy);
  const YPool& pool = phase1.build.pool;

  // Broadcasts reuse one scratch packet: its payload buffer keeps its
  // capacity across rounds.
  scratch_pkt_.kind = packet::Kind::kAnnouncement;
  scratch_pkt_.source = alice;
  scratch_pkt_.round = round;
  scratch_pkt_.seq = packet::PacketSeq{0};
  packet::encode_into(phase1.announcement, scratch_pkt_.payload);
  net::reliable_broadcast(*medium_, alice, scratch_pkt_,
                          net::TrafficClass::kControl);

  // Phase 2: z-packets (contents) and s-packet identities.
  const Phase2Plan plan = plan_phase2(pool);
  const std::vector<packet::ConstByteSpan> y_contents =
      all_y_contents(pool, ctx.x_payloads, payload, arena);
  const std::vector<packet::ConstByteSpan> z_payloads =
      make_z_payloads(plan, y_contents, payload, arena);

  scratch_pkt_.kind = packet::Kind::kCoded;
  for (std::size_t zi = 0; zi < z_payloads.size(); ++zi) {
    scratch_pkt_.seq = packet::PacketSeq{static_cast<std::uint32_t>(zi)};
    scratch_pkt_.payload.assign(z_payloads[zi].begin(), z_payloads[zi].end());
    net::reliable_broadcast(*medium_, alice, scratch_pkt_,
                            net::TrafficClass::kCoded);
  }
  if (plan.group_size > 0) {
    scratch_pkt_.kind = packet::Kind::kAnnouncement;
    scratch_pkt_.seq = packet::PacketSeq{1};
    packet::encode_into(plan.s_announcement, scratch_pkt_.payload);
    net::reliable_broadcast(*medium_, alice, scratch_pkt_,
                            net::TrafficClass::kControl);
  }

  const std::vector<packet::ConstByteSpan> s_payloads =
      plan.group_size > 0
          ? make_s_payloads(plan, y_contents, payload, arena)
          : std::vector<packet::ConstByteSpan>{};

  // Every receiver decodes the secret for real and must agree with Alice.
  // Per-receiver scratch is rewound after each check so the round's peak
  // footprint stays one receiver deep.
  if (plan.group_size > 0) {
    const auto spans_equal = [](std::span<const packet::ConstByteSpan> a,
                                std::span<const packet::ConstByteSpan> b) {
      if (a.size() != b.size()) return false;
      for (std::size_t i = 0; i < a.size(); ++i)
        if (!std::equal(a[i].begin(), a[i].end(), b[i].begin(), b[i].end()))
          return false;
      return true;
    };
    for (std::size_t ri = 0; ri < ctx.receivers.size(); ++ri) {
      const packet::PayloadArena::Mark mark = arena.mark();
      const auto own_y = reconstruct_y(pool, ctx.receivers[ri],
                                       ctx.rx_payloads[ri], payload, arena);
      const auto full_y =
          recover_all_y(plan, own_y, z_payloads, payload, arena);
      const auto own_s = make_s_payloads(plan, full_y, payload, arena);
      if (!spans_equal(own_s, s_payloads))
        throw std::logic_error(
            "GroupSecretSession: terminal decoded a different secret");
      arena.rewind(mark);
    }
  }

  // Eve's exact view and this round's score. The pool matrix and the
  // H*G / C*G products are per-round scratch: carve them from the arena.
  const gf::Matrix g = pool.rows(arena);
  analysis::EveView eve(n);
  eve.observe_x(ctx.eve_indices);
  if (plan.pool_size > 0 && plan.h.rows() > 0)
    eve.observe_coded(plan.h, g, arena);  // public z contents in x-space

  RoundOutcome outcome;
  outcome.alice = alice;
  outcome.universe = n;
  outcome.pairwise_size.reserve(ctx.receivers.size());
  for (packet::NodeId r : ctx.receivers)
    outcome.pairwise_size.push_back(pool.count_for(r));
  outcome.pool_size = pool.size();
  outcome.group_packets = plan.group_size;
  outcome.secret_bits = secret_bits(plan, payload);
  outcome.data_packets = n + (pool.size() - plan.group_size);
  const gf::Matrix secret_rows =
      plan.group_size > 0 ? plan.c.mul(g, arena) : gf::Matrix(0, n);
  outcome.leakage = analysis::compute_leakage(eve, secret_rows);

  for (const packet::ConstByteSpan s : s_payloads)
    result.secret.insert(result.secret.end(), s.begin(), s.end());

  return outcome;
}

}  // namespace thinair::core
