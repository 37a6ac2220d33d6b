#include "replica.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "analysis/efficiency.h"
#include "analysis/eve_view.h"
#include "channel/factory.h"
#include "core/phase1.h"
#include "core/phase2.h"
#include "core/round.h"
#include "core/session.h"
#include "core/unicast.h"
#include "gf/kernels.h"
#include "net/medium.h"
#include "net/reliable.h"
#include "packet/serialize.h"
#include "runtime/engine.h"
#include "runtime/seed.h"
#include "testbed/placements.h"
#include "trace.h"

namespace perfbench {

namespace {

namespace ta = thinair;
using ta::core::RoundOutcome;
using ta::core::SessionConfig;
using ta::core::SessionResult;
using ta::packet::ConstByteSpan;
using ta::runtime::ScenarioSpec;

/// Everything that decides one session of a case.
struct SessionInputs {
  const ta::testbed::Placement* placement = nullptr;  // testbed channel only
  std::size_t n = 0;                                  // terminals
  double p = 0.0;                                     // iid erasure p
  const ta::runtime::EstimatorSeries* series = nullptr;
  std::uint64_t seed = 0;
  bool unicast = false;
};

/// Span `f()` as `name` and return its result.
template <typename F>
auto spanned(const char* name, std::uint64_t key, F&& f) {
  ScopedSpan span(name, key);
  return f();
}

/// The medium one session runs on, built the way the scenario's case
/// function builds it (testbed::run_experiment or the flat-channel path).
struct Bench {
  std::unique_ptr<ta::channel::ErasureModel> flat;
  std::optional<ta::channel::TestbedChannel> testbed;
  std::unique_ptr<TimedErasure> timed;
  std::unique_ptr<ta::net::SimMedium> medium;
  SessionConfig cfg;
};

std::unique_ptr<Bench> make_bench(const ScenarioSpec& spec,
                                  const SessionInputs& in, bool traced,
                                  std::uint64_t key) {
  auto b = std::make_unique<Bench>();
  const ta::channel::ErasureModel* model = nullptr;
  if (in.placement != nullptr) {
    std::optional<ScopedSpan> span;
    if (traced) span.emplace("channel.build", key);
    b->testbed.emplace(ta::testbed::build_channel(*in.placement,
                                                  spec.channel.testbed));
    model = &*b->testbed;
  } else {
    b->flat = ta::channel::make_erasure_model(
        spec.channel.model, in.p, spec.channel.default_p, spec.channel.links);
    model = b->flat.get();
  }
  if (traced) {
    b->timed = std::make_unique<TimedErasure>(*model);
    model = b->timed.get();
  }
  b->medium = std::make_unique<ta::net::SimMedium>(
      *model, ta::channel::Rng(in.seed), spec.mac);
  for (std::size_t i = 0; i < in.n; ++i)
    b->medium->attach(ta::testbed::terminal_node(i), ta::net::Role::kTerminal);
  b->medium->attach(ta::testbed::eve_node(in.n), ta::net::Role::kEavesdropper);

  SessionConfig& cfg = b->cfg;
  cfg.x_packets_per_round = spec.session.x_packets;
  cfg.payload_bytes = spec.session.payload_bytes;
  cfg.rounds = spec.session.rounds;
  cfg.rotate_alice = spec.session.rotate_alice;
  cfg.pool_strategy = spec.session.pool;
  cfg.estimator.kind = in.series->kind;
  cfg.estimator.k_antennas = spec.estimator.k_antennas;
  cfg.estimator.fraction_delta = spec.estimator.fraction_delta;
  cfg.estimator.loo_safety = spec.estimator.safety;
  cfg.arena = &ta::runtime::worker_arena();
  if (in.placement != nullptr)
    for (const ta::channel::CellIndex c : in.placement->terminal_cells)
      cfg.estimator.occupied_cells.push_back(c.value);
  return b;
}

/// Per-case tallies (exact counts; GF bytes from pool and plan shapes).
struct Tally {
  std::uint64_t retransmits = 0;
  double gf_bytes = 0.0;

  void reliable(const ta::net::ReliableResult& r) {
    retransmits += r.attempts > 0 ? r.attempts - 1 : 0;
  }
};

double combo_bytes(const ta::core::YPool& pool, std::size_t payload,
                   const ta::packet::NodeId* audience_member) {
  double terms = 0.0;
  for (const ta::core::YPool::Entry& e : pool.entries())
    if (audience_member == nullptr || e.audience.contains(*audience_member))
      terms += static_cast<double>(e.combo.terms().size());
  return terms * static_cast<double>(payload);
}

std::vector<std::size_t> receiver_cells(const SessionConfig& cfg,
                                        const ta::core::RoundContext& ctx) {
  std::vector<std::size_t> cells;
  if (!cfg.estimator.occupied_cells.empty())
    for (const ta::packet::NodeId r : ctx.receivers)
      cells.push_back(cfg.estimator.occupied_cells.at(r.value));
  return cells;
}

ta::core::Phase1Result phase1(const SessionConfig& cfg,
                              const ta::core::RoundContext& ctx) {
  const std::vector<std::size_t> cells = receiver_cells(cfg, ctx);
  const auto estimator = ta::core::build_estimator(
      cfg.estimator, ctx.table, ctx.eve_indices, ctx.slot_of, cells);
  return ta::core::run_phase1(ctx.table, *estimator, cfg.pool_strategy);
}

// GroupSecretSession::run_round, call for call.
RoundOutcome group_round(ta::net::Medium& medium, const SessionConfig& cfg,
                         ta::packet::NodeId alice, ta::packet::RoundId round,
                         SessionResult& result, std::uint64_t key,
                         Tally& tally) {
  ScopedSpan span("round", key);
  const std::size_t n = cfg.x_packets_per_round;
  const std::size_t payload = cfg.payload_bytes;
  ta::packet::PayloadArena& arena = *cfg.arena;
  arena.reset();

  const ta::core::RoundContext ctx = spanned("net.open_round", key, [&] {
    return ta::core::open_round(medium, alice, round, n, payload, arena);
  });
  const ta::core::Phase1Result p1 =
      spanned("core.phase1", key, [&] { return phase1(cfg, ctx); });
  const ta::core::YPool& pool = p1.build.pool;

  ta::packet::Packet pkt;
  pkt.kind = ta::packet::Kind::kAnnouncement;
  pkt.source = alice;
  pkt.round = round;
  pkt.seq = ta::packet::PacketSeq{0};
  spanned("net.reliable_broadcast", key, [&] {
    ta::packet::encode_into(p1.announcement, pkt.payload);
    tally.reliable(ta::net::reliable_broadcast(
        medium, alice, pkt, ta::net::TrafficClass::kControl));
  });

  const ta::core::Phase2Plan plan = spanned(
      "core.phase2_plan", key, [&] { return ta::core::plan_phase2(pool); });
  std::vector<ConstByteSpan> y_contents, z_payloads;
  spanned("core.phase2_encode", key, [&] {
    y_contents = ta::core::all_y_contents(pool, ctx.x_payloads, payload, arena);
    z_payloads = ta::core::make_z_payloads(plan, y_contents, payload, arena);
  });

  spanned("net.reliable_broadcast", key, [&] {
    pkt.kind = ta::packet::Kind::kCoded;
    for (std::size_t zi = 0; zi < z_payloads.size(); ++zi) {
      pkt.seq = ta::packet::PacketSeq{static_cast<std::uint32_t>(zi)};
      pkt.payload.assign(z_payloads[zi].begin(), z_payloads[zi].end());
      tally.reliable(ta::net::reliable_broadcast(
          medium, alice, pkt, ta::net::TrafficClass::kCoded));
    }
  });
  if (plan.group_size > 0) {
    spanned("net.reliable_broadcast", key, [&] {
      pkt.kind = ta::packet::Kind::kAnnouncement;
      pkt.seq = ta::packet::PacketSeq{1};
      ta::packet::encode_into(plan.s_announcement, pkt.payload);
      tally.reliable(ta::net::reliable_broadcast(
          medium, alice, pkt, ta::net::TrafficClass::kControl));
    });
  }

  std::vector<ConstByteSpan> s_payloads;
  if (plan.group_size > 0) {
    spanned("core.phase2_encode", key, [&] {
      s_payloads = ta::core::make_s_payloads(plan, y_contents, payload, arena);
    });
    spanned("core.phase2_repair", key, [&] {
      for (std::size_t ri = 0; ri < ctx.receivers.size(); ++ri) {
        const ta::packet::PayloadArena::Mark mark = arena.mark();
        const auto own_y = ta::core::reconstruct_y(
            pool, ctx.receivers[ri], ctx.rx_payloads[ri], payload, arena);
        const auto full_y =
            ta::core::recover_all_y(plan, own_y, z_payloads, payload, arena);
        const auto own_s =
            ta::core::make_s_payloads(plan, full_y, payload, arena);
        bool same = own_s.size() == s_payloads.size();
        for (std::size_t i = 0; same && i < own_s.size(); ++i)
          same = std::equal(own_s[i].begin(), own_s[i].end(),
                            s_payloads[i].begin(), s_payloads[i].end());
        if (!same)
          throw std::logic_error("replica: terminal decoded a different secret");
        arena.rewind(mark);
      }
    });
  }

  RoundOutcome outcome;
  spanned("analysis.eve", key, [&] {
    const ta::gf::Matrix g = pool.rows(arena);
    ta::analysis::EveView eve(n);
    eve.observe_x(ctx.eve_indices);
    if (plan.pool_size > 0 && plan.h.rows() > 0)
      eve.observe_coded(plan.h, g, arena);
    const ta::gf::Matrix secret_rows = plan.group_size > 0
                                           ? plan.c.mul(g, arena)
                                           : ta::gf::Matrix(0, n);
    outcome.leakage = ta::analysis::compute_leakage(eve, secret_rows);
  });

  outcome.alice = alice;
  outcome.universe = n;
  for (const ta::packet::NodeId r : ctx.receivers)
    outcome.pairwise_size.push_back(pool.count_for(r));
  outcome.pool_size = pool.size();
  outcome.group_packets = plan.group_size;
  outcome.secret_bits = ta::core::secret_bits(plan, payload);
  outcome.data_packets = n + (pool.size() - plan.group_size);
  for (const ConstByteSpan s : s_payloads)
    result.secret.insert(result.secret.end(), s.begin(), s.end());

  // GF(2^8) payload bytes: Alice's y, z and s products, then per receiver
  // its own y, the repair (residual + solve) and its s evaluation.
  const double m = static_cast<double>(pool.size());
  const double l = static_cast<double>(plan.group_size);
  const double p = static_cast<double>(payload);
  tally.gf_bytes += combo_bytes(pool, payload, nullptr);
  tally.gf_bytes += (m - l) * m * p;
  if (plan.group_size > 0) {
    tally.gf_bytes += l * m * p;
    for (const ta::packet::NodeId r : ctx.receivers) {
      const double d = m - static_cast<double>(pool.count_for(r));
      tally.gf_bytes += combo_bytes(pool, payload, &r);
      tally.gf_bytes += (d * (m - d) + d * d) * p + l * m * p;
    }
  }
  return outcome;
}

// UnicastSession::run_round, call for call.
RoundOutcome unicast_round(ta::net::Medium& medium, const SessionConfig& cfg,
                           ta::packet::NodeId alice,
                           ta::packet::RoundId round, SessionResult& result,
                           std::uint64_t key, Tally& tally) {
  ScopedSpan span("round", key);
  const std::size_t n = cfg.x_packets_per_round;
  const std::size_t payload = cfg.payload_bytes;
  ta::packet::PayloadArena& arena = *cfg.arena;
  arena.reset();

  const ta::core::RoundContext ctx = spanned("net.open_round", key, [&] {
    return ta::core::open_round(medium, alice, round, n, payload, arena);
  });
  const ta::core::Phase1Result p1 =
      spanned("core.phase1", key, [&] { return phase1(cfg, ctx); });
  const ta::core::YPool& pool = p1.build.pool;

  spanned("net.reliable_broadcast", key, [&] {
    const ta::packet::Packet pkt{.kind = ta::packet::Kind::kAnnouncement,
                                 .source = alice,
                                 .round = round,
                                 .seq = ta::packet::PacketSeq{0},
                                 .payload = ta::packet::encode(p1.announcement)};
    tally.reliable(ta::net::reliable_broadcast(
        medium, alice, pkt, ta::net::TrafficClass::kControl));
  });

  const ta::gf::Matrix g =
      spanned("analysis.eve", key, [&] { return pool.rows(arena); });

  const std::size_t receivers = ctx.receivers.size();
  std::vector<std::vector<std::size_t>> assigned(receivers);
  std::size_t l = 0;
  RoundOutcome outcome;
  spanned("core.unicast", key, [&] {
    for (std::size_t row = 0; row < pool.size(); ++row) {
      std::size_t best = receivers;
      for (std::size_t ri = 0; ri < receivers; ++ri) {
        if (!pool.entries()[row].audience.contains(ctx.receivers[ri]))
          continue;
        if (best == receivers || assigned[ri].size() < assigned[best].size())
          best = ri;
      }
      if (best != receivers) assigned[best].push_back(row);
    }
    l = pool.size();
    for (const auto& rows : assigned) l = std::min(l, rows.size());
    if (ctx.receivers.empty()) l = 0;

    outcome.alice = alice;
    outcome.universe = n;
    for (const ta::packet::NodeId r : ctx.receivers)
      outcome.pairwise_size.push_back(pool.count_for(r));
    outcome.pool_size = pool.size();
    outcome.group_packets = l;
    outcome.secret_bits = l * payload * 8;
    outcome.data_packets = n + (receivers < 2 ? 0 : (receivers - 1) * l);
  });

  if (l == 0 || ctx.receivers.empty()) {
    spanned("analysis.eve", key, [&] {
      ta::analysis::EveView eve(n);
      eve.observe_x(ctx.eve_indices);
      outcome.leakage = ta::analysis::compute_leakage(eve, ta::gf::Matrix(0, n));
    });
    return outcome;
  }

  const auto secret_indices_of = [&](std::size_t ri) {
    auto rows = assigned[ri];
    rows.resize(l);  // first L exclusively-assigned rows
    return rows;
  };
  std::vector<ConstByteSpan> y_contents, s_payloads;
  std::vector<std::size_t> group_idx;
  spanned("core.unicast", key, [&] {
    y_contents = ta::core::all_y_contents(pool, ctx.x_payloads, payload, arena);
    group_idx = secret_indices_of(0);
    s_payloads.reserve(l);
    for (const std::size_t j : group_idx) s_payloads.push_back(y_contents[j]);
  });

  std::optional<ta::analysis::EveView> eve;
  ta::gf::Matrix secret_rows;
  spanned("analysis.eve", key, [&] {
    eve.emplace(n);
    eve->observe_x(ctx.eve_indices);
    secret_rows = g.select_rows(group_idx);
  });

  // Unicast the padded secret to receivers 1..n-2. Bodies are built before
  // the sends, which draw nothing from the medium, so the draws match.
  for (std::size_t ri = 1; ri < receivers; ++ri) {
    std::vector<ta::packet::Payload> bodies(l);
    ta::gf::Matrix cipher_rows;
    spanned("core.unicast", key, [&] {
      const std::vector<std::size_t> pad_idx = secret_indices_of(ri);
      cipher_rows = ta::gf::Matrix(l, n);
      for (std::size_t j = 0; j < l; ++j) {
        bodies[j].assign(s_payloads[j].begin(), s_payloads[j].end());
        ta::gf::xor_into(y_contents[pad_idx[j]].data(), bodies[j].data(),
                         payload);
        for (std::size_t c = 0; c < n; ++c)
          cipher_rows.set(j, c, secret_rows.at(j, c) + g.at(pad_idx[j], c));
      }
    });
    spanned("net.reliable_unicast", key, [&] {
      for (std::size_t j = 0; j < l; ++j) {
        const ta::packet::Packet pkt{
            .kind = ta::packet::Kind::kCipher,
            .source = alice,
            .round = round,
            .seq = ta::packet::PacketSeq{static_cast<std::uint32_t>(j)},
            .payload = std::move(bodies[j])};
        tally.reliable(ta::net::reliable_unicast(
            medium, alice, ctx.receivers[ri], pkt,
            ta::net::TrafficClass::kCipher));
      }
    });
    spanned("analysis.eve", key,
            [&] { eve->observe_combinations(cipher_rows); });
  }

  spanned("core.unicast", key, [&] {
    for (std::size_t ri = 1; ri < receivers; ++ri) {
      const ta::packet::PayloadArena::Mark mark = arena.mark();
      const auto own_y = ta::core::reconstruct_y(
          pool, ctx.receivers[ri], ctx.rx_payloads[ri], payload, arena);
      const std::vector<std::size_t> pad_idx = secret_indices_of(ri);
      for (std::size_t j = 0; j < l; ++j) {
        const ta::packet::ByteSpan cipher = arena.copy(s_payloads[j]);
        ta::gf::xor_into(y_contents[pad_idx[j]].data(), cipher.data(), payload);
        if (own_y[pad_idx[j]].empty())
          throw std::logic_error("replica: receiver lacks its pad");
        ta::gf::xor_into(own_y[pad_idx[j]].data(), cipher.data(), payload);
        if (!std::equal(cipher.begin(), cipher.end(), s_payloads[j].begin(),
                        s_payloads[j].end()))
          throw std::logic_error("replica: receiver decoded a different secret");
      }
      arena.rewind(mark);
    }
  });

  spanned("analysis.eve", key, [&] {
    outcome.leakage = ta::analysis::compute_leakage(*eve, secret_rows);
  });
  for (const ConstByteSpan s : s_payloads)
    result.secret.insert(result.secret.end(), s.begin(), s.end());

  // GF(2^8) payload bytes: Alice's y products, each pad (xor), and each
  // receiver's own y plus the two xors of its check.
  const double p = static_cast<double>(payload);
  const double lp = static_cast<double>(l) * p;
  tally.gf_bytes += combo_bytes(pool, payload, nullptr);
  for (std::size_t ri = 1; ri < receivers; ++ri)
    tally.gf_bytes +=
        3.0 * lp + combo_bytes(pool, payload, &ctx.receivers[ri]);
  return outcome;
}

// GroupSecretSession::run / UnicastSession::run for a fresh session.
SessionResult replay_session(ta::net::Medium& medium, const SessionConfig& cfg,
                             bool unicast, std::uint64_t key, Tally& tally) {
  ScopedSpan span("session", key);
  const auto terminals = medium.terminals();
  const std::size_t rounds = cfg.rounds == 0 ? terminals.size() : cfg.rounds;
  SessionResult result;
  const ta::net::Ledger before = medium.ledger();
  const double t0 = medium.now();
  for (std::size_t r = 0; r < rounds; ++r) {
    const ta::packet::NodeId alice =
        cfg.rotate_alice ? terminals[r % terminals.size()] : terminals[0];
    const ta::packet::RoundId round{static_cast<std::uint32_t>(r)};
    result.rounds.push_back(
        unicast ? unicast_round(medium, cfg, alice, round, result, key, tally)
                : group_round(medium, cfg, alice, round, result, key, tally));
  }
  result.ledger = medium.ledger().since(before);
  result.duration_s = medium.now() - t0;
  return result;
}

[[noreturn]] void guard_failure(std::size_t index, bool unicast,
                                const std::string& what) {
  throw std::logic_error("replica guard: case " + std::to_string(index) +
                         (unicast ? " unicast" : " group") +
                         " session differs from the program in " + what);
}

// The replica guard: the program's own session on an identically seeded
// medium must produce what the replica produced.
void guard(const ScenarioSpec& spec, const SessionInputs& in,
           const SessionResult& replica, std::size_t index) {
  const std::unique_ptr<Bench> b = make_bench(spec, in, false, index);
  const SessionResult real =
      in.unicast ? ta::core::UnicastSession(*b->medium, b->cfg).run()
                 : ta::core::GroupSecretSession(*b->medium, b->cfg).run();
  if (real.secret != replica.secret)
    guard_failure(index, in.unicast, "secret bytes");
  if (real.rounds.size() != replica.rounds.size())
    guard_failure(index, in.unicast, "round count");
  for (std::size_t r = 0; r < real.rounds.size(); ++r) {
    const RoundOutcome& a = real.rounds[r];
    const RoundOutcome& b2 = replica.rounds[r];
    if (a.leakage.secret_dims != b2.leakage.secret_dims ||
        a.leakage.hidden_dims != b2.leakage.hidden_dims ||
        a.leakage.leaked_dims != b2.leakage.leaked_dims ||
        a.leakage.reliability != b2.leakage.reliability)
      guard_failure(index, in.unicast,
                    "the LeakageReport of round " + std::to_string(r));
    if (a.alice != b2.alice || a.pairwise_size != b2.pairwise_size ||
        a.pool_size != b2.pool_size || a.group_packets != b2.group_packets ||
        a.secret_bits != b2.secret_bits || a.data_packets != b2.data_packets)
      guard_failure(index, in.unicast,
                    "the outcome of round " + std::to_string(r));
  }
  for (std::size_t c = 0; c < ta::net::kTrafficClassCount; ++c) {
    const auto cls = static_cast<ta::net::TrafficClass>(c);
    if (real.ledger.bytes(cls) != replica.ledger.bytes(cls) ||
        real.ledger.frames(cls) != replica.ledger.frames(cls))
      guard_failure(index, in.unicast, "the ledger");
  }
  if (real.duration_s != replica.duration_s)
    guard_failure(index, in.unicast, "airtime");
}

void append_session_metrics(std::vector<ta::runtime::Metric>& metrics,
                            const SessionResult& r, const std::string& prefix) {
  metrics.push_back({prefix + "reliability", r.reliability()});
  metrics.push_back({prefix + "efficiency", r.efficiency()});
  metrics.push_back({prefix + "secret_rate_bps", r.secret_rate_bps()});
}

std::size_t series_cap(const ScenarioSpec& spec,
                       const ta::runtime::EstimatorSeries& series) {
  return series.max_placements != 0 ? series.max_placements
                                    : spec.topology.max_placements;
}

}  // namespace

Replica::Replica(const ScenarioSpec& spec) : spec_(spec) {
  const bool explicit_topology =
      !spec.topology.cells.empty() || !spec.topology.positions.empty();
  if (!spec.sweep.key.empty() || !spec.sweep.values.empty() ||
      explicit_topology)
    throw std::invalid_argument(
        "replica: '" + spec.name +
        "' uses a sweep key or an explicit placement; the replica covers "
        "the built-in scenarios only");
  testbed_ = spec.channel.model == ta::channel::ChannelModelKind::kTestbed;
  estimator_axis_ = spec.estimator.series.size() > 1;
  p_axis_ = !spec.sweep.p_values.empty();
  if (testbed_)
    for (const ta::runtime::EstimatorSeries& series : spec.estimator.series)
      for (const std::size_t n : spec.topology.n_values) {
        const std::size_t cap = series_cap(spec, series);
        if (placements_.find({n, cap}) == placements_.end())
          placements_[{n, cap}] = ta::testbed::sample_placements(n, cap);
      }
}

ta::runtime::CaseResult Replica::run_case(const ta::runtime::CaseSpec& cs) {
  using ta::runtime::param;
  const ScenarioSpec& spec = spec_;
  const std::size_t si =
      estimator_axis_ ? static_cast<std::size_t>(param(cs.params, "estimator"))
                      : 0;
  const ta::runtime::EstimatorSeries& series = spec.estimator.series[si];
  const bool both = spec.output.baseline == ta::runtime::Baseline::kBoth;
  const bool unicast_first =
      spec.output.baseline == ta::runtime::Baseline::kUnicast;

  SessionInputs first_in;
  first_in.series = &series;
  first_in.p = spec.channel.iid_p;
  if (testbed_) {
    const auto& placements = placements_.at(
        {static_cast<std::size_t>(param(cs.params, "n")),
         series_cap(spec, series)});
    first_in.placement =
        &placements.at(static_cast<std::size_t>(param(cs.params, "placement")));
    first_in.n = first_in.placement->n_terminals();
  } else {
    first_in.n = static_cast<std::size_t>(param(cs.params, "n"));
    if (p_axis_) first_in.p = param(cs.params, "p");
  }
  first_in.seed = cs.seed;
  first_in.unicast = unicast_first;
  SessionInputs second_in = first_in;
  second_in.seed = ta::runtime::derive_seed2(cs.seed, cs.index);
  second_in.unicast = true;

  const std::size_t n = first_in.n;
  const double p = first_in.p;
  Tally tally;
  SessionResult first, second;
  ta::runtime::CaseResult result;
  std::uint64_t frames = 0;
  {
    ScopedSpan span("case", cs.index);
    const auto run = [&](const SessionInputs& in) {
      const std::unique_ptr<Bench> b = make_bench(spec, in, true, cs.index);
      SessionResult r =
          replay_session(*b->medium, b->cfg, in.unicast, cs.index, tally);
      for (std::size_t c = 0; c < ta::net::kTrafficClassCount; ++c)
        frames += r.ledger.frames(static_cast<ta::net::TrafficClass>(c));
      return r;
    };
    first = run(first_in);
    if (both) second = run(second_in);

    // The scenario's metric rows, in its order (runtime/scenario_spec.cpp).
    result.group = (estimator_axis_
                        ? std::string(ta::core::to_string(series.kind)) + " n="
                        : std::string("n=")) +
                   std::to_string(n);
    if (spec.output.metrics == ta::runtime::MetricSet::kEfficiency) {
      const std::size_t payload = spec.session.payload_bytes;
      if (both) {
        if (spec.output.analytic)
          result.metrics.push_back(
              {"group_analytic", ta::analysis::group_efficiency(p, n)});
        result.metrics.push_back({"group_sim", first.data_efficiency(payload)});
        if (spec.output.analytic)
          result.metrics.push_back(
              {"unicast_analytic", ta::analysis::unicast_efficiency(p, n)});
        result.metrics.push_back(
            {"unicast_sim", second.data_efficiency(payload)});
      } else {
        if (spec.output.analytic)
          result.metrics.push_back(
              {"analytic", unicast_first
                               ? ta::analysis::unicast_efficiency(p, n)
                               : ta::analysis::group_efficiency(p, n)});
        result.metrics.push_back(
            {"efficiency", first.data_efficiency(payload)});
      }
    } else if (both) {
      append_session_metrics(result.metrics, first, "group_");
      append_session_metrics(result.metrics, second, "unicast_");
    } else {
      append_session_metrics(result.metrics, first, "");
    }
  }

  guard(spec, first_in, first, cs.index);
  if (both) guard(spec, second_in, second, cs.index);

  frames_ += frames;
  retransmits_ += tally.retransmits;
  gf_bytes_ += static_cast<std::uint64_t>(tally.gf_bytes);
  return result;
}

ReplicaCounts Replica::counts() const {
  return {frames_.load(), retransmits_.load(),
          static_cast<double>(gf_bytes_.load())};
}

void Replica::reset_counts() {
  frames_ = 0;
  retransmits_ = 0;
  gf_bytes_ = 0;
}

}  // namespace perfbench
