#include "core/unicast.h"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "gf/kernels.h"

#include "analysis/eve_view.h"
#include "net/reliable.h"
#include "packet/serialize.h"

namespace thinair::core {

UnicastSession::UnicastSession(net::Medium& medium, SessionConfig config)
    : medium_(&medium), config_(std::move(config)) {
  if (medium.terminals().size() < 2)
    throw std::invalid_argument("UnicastSession: need >= 2 terminals");
  if (config_.x_packets_per_round == 0)
    throw std::invalid_argument("UnicastSession: N == 0");
  if (config_.payload_bytes == 0)
    throw std::invalid_argument("UnicastSession: empty payloads");
}

SessionResult UnicastSession::run() {
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

RoundOutcome UnicastSession::run_round(packet::NodeId alice,
                                       packet::RoundId round,
                                       SessionResult& result) {
  const std::size_t n = config_.x_packets_per_round;
  const std::size_t payload = config_.payload_bytes;

  packet::PayloadArena& arena = this->arena();
  arena.reset();

  // Phase 1 is identical to the group algorithm.
  const RoundContext ctx =
      open_round(*medium_, alice, round, n, payload, arena);
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

  // The announcement and every ciphertext reuse one scratch packet: its
  // payload buffer keeps its capacity across rounds.
  scratch_pkt_.kind = packet::Kind::kAnnouncement;
  scratch_pkt_.source = alice;
  scratch_pkt_.round = round;
  scratch_pkt_.seq = packet::PacketSeq{0};
  packet::encode_into(phase1.announcement, scratch_pkt_.payload);
  net::reliable_broadcast(*medium_, alice, scratch_pkt_,
                          net::TrafficClass::kControl);

  // The group secret is L y-packets known to the first receiver; every
  // other receiver gets it one-time-padded with its own pair-wise secret.
  // Pads must be *disjoint pool rows*: reusing a y-packet in two pads (or
  // in a pad and the secret) hands Eve linear relations between
  // ciphertexts. Rows are therefore assigned exclusively, each to the
  // audience member with the thinnest assignment so far, and L is the
  // minimum number of rows any receiver ends up owning — the operational
  // price the unicast baseline pays for not coding (its Figure-1 curve is
  // an upper bound that assumes fully independent pair-wise secrets).
  const gf::Matrix g = pool.rows(arena);
  std::vector<std::vector<std::size_t>> assigned(ctx.receivers.size());
  for (std::size_t row = 0; row < pool.size(); ++row) {
    std::size_t best = ctx.receivers.size();
    for (std::size_t ri = 0; ri < ctx.receivers.size(); ++ri) {
      if (!pool.entries()[row].audience.contains(ctx.receivers[ri])) continue;
      if (best == ctx.receivers.size() ||
          assigned[ri].size() < assigned[best].size())
        best = ri;
    }
    if (best != ctx.receivers.size()) assigned[best].push_back(row);
  }
  std::size_t l = pool.size();
  for (const auto& rows : assigned) l = std::min(l, rows.size());
  if (ctx.receivers.empty()) l = 0;

  RoundOutcome outcome;
  outcome.alice = alice;
  outcome.universe = n;
  outcome.pairwise_size.reserve(ctx.receivers.size());
  for (packet::NodeId r : ctx.receivers)
    outcome.pairwise_size.push_back(pool.count_for(r));
  outcome.pool_size = pool.size();
  outcome.group_packets = l;
  outcome.secret_bits = l * payload * 8;
  outcome.data_packets =
      n + (ctx.receivers.size() < 2 ? 0 : (ctx.receivers.size() - 1) * l);

  if (l == 0 || ctx.receivers.empty()) {
    analysis::EveView eve(n);
    eve.observe_x(ctx.eve_indices);
    outcome.leakage = analysis::compute_leakage(eve, gf::Matrix(0, n));
    return outcome;
  }

  const std::vector<packet::ConstByteSpan> y_contents =
      all_y_contents(pool, ctx.x_payloads, payload, arena);

  // The first L exclusively-assigned rows of receiver ri.
  const auto secret_indices_of = [&](std::size_t ri) {
    return std::span<const std::size_t>(assigned[ri]).first(l);
  };

  const std::span<const std::size_t> group_idx = secret_indices_of(0);
  std::vector<packet::ConstByteSpan> s_payloads;
  s_payloads.reserve(l);
  for (std::size_t j : group_idx) s_payloads.push_back(y_contents[j]);

  analysis::EveView eve(n);
  eve.observe_x(ctx.eve_indices);

  gf::Matrix secret_rows(l, n, arena);
  for (std::size_t j = 0; j < l; ++j) {
    const std::span<const std::uint8_t> row = g.row(group_idx[j]);
    std::copy(row.begin(), row.end(), secret_rows.row(j).begin());
  }

  // Unicast the padded secret to receivers 1..n-2 (receiver 0 holds it
  // already). Ciphertext c_j = s_j + pad_j is public: feed it to Eve.
  scratch_pkt_.kind = packet::Kind::kCipher;
  for (std::size_t ri = 1; ri < ctx.receivers.size(); ++ri) {
    const std::span<const std::size_t> pad_idx = secret_indices_of(ri);
    const packet::PayloadArena::Mark mark = arena.mark();
    gf::Matrix cipher_rows(l, n, arena);
    for (std::size_t j = 0; j < l; ++j) {
      scratch_pkt_.payload.assign(s_payloads[j].begin(), s_payloads[j].end());
      gf::xor_into(y_contents[pad_idx[j]].data(), scratch_pkt_.payload.data(),
                   payload);

      // Row j of the ciphertext functional: secret row + pad row (GF(2^8)
      // addition is XOR).
      const std::span<std::uint8_t> cipher = cipher_rows.row(j);
      std::copy_n(secret_rows.row(j).data(), n, cipher.data());
      gf::xor_into(g.row(pad_idx[j]).data(), cipher.data(), n);

      scratch_pkt_.seq = packet::PacketSeq{static_cast<std::uint32_t>(j)};
      net::reliable_unicast(*medium_, alice, ctx.receivers[ri], scratch_pkt_,
                            net::TrafficClass::kCipher);
    }
    eve.observe_combinations(cipher_rows);
    arena.rewind(mark);
  }

  // Verification: each receiver strips its pad and must obtain the secret.
  // Per-receiver reconstruction scratch is rewound once checked.
  for (std::size_t ri = 1; ri < ctx.receivers.size(); ++ri) {
    const packet::PayloadArena::Mark mark = arena.mark();
    const auto own_y = reconstruct_y(pool, ctx.receivers[ri],
                                     ctx.rx_payloads[ri], payload, arena);
    const std::span<const std::size_t> pad_idx = secret_indices_of(ri);
    for (std::size_t j = 0; j < l; ++j) {
      // Ciphertext as transmitted:
      const packet::ByteSpan cipher = arena.copy(s_payloads[j]);
      gf::xor_into(y_contents[pad_idx[j]].data(), cipher.data(), payload);
      // Receiver-side decryption with its reconstructed pad:
      if (own_y[pad_idx[j]].empty())
        throw std::logic_error("UnicastSession: receiver lacks its pad");
      gf::xor_into(own_y[pad_idx[j]].data(), cipher.data(), payload);
      if (!std::equal(cipher.begin(), cipher.end(), s_payloads[j].begin(),
                      s_payloads[j].end()))
        throw std::logic_error(
            "UnicastSession: receiver decoded a different secret");
    }
    arena.rewind(mark);
  }

  outcome.leakage = analysis::compute_leakage(eve, secret_rows);
  for (const packet::ConstByteSpan s : s_payloads)
    result.secret.insert(result.secret.end(), s.begin(), s.end());
  return outcome;
}

}  // namespace thinair::core
