#include "netd/node_session.h"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "core/estimator.h"
#include "core/phase1.h"
#include "core/phase2.h"
#include "core/pool.h"
#include "net/trace.h"

namespace thinair::netd {

namespace {

/// Upper bound on N accepted from the wire (sanity, not a protocol limit).
constexpr std::uint32_t kMaxUniverse = 4096;

}  // namespace

NodeSession::NodeSession(NodeConfig config)
    : config_(config), payload_rng_(config.payload_seed) {
  reset(config);
}

void NodeSession::reset(NodeConfig config) {
  config_ = config;
  state_ = State::kIdle;
  error_.clear();
  payload_rng_ = channel::Rng(config.payload_seed);
  // Keep the arena's blocks for the next lifecycle; the watermark trim
  // stops one oversized session from pinning its peak.
  arena_.reset();
  arena_.trim_to_watermark();
  queue_.clear();
  inflight_.reset();
  inflight_wire_.clear();
  next_stream_seq_ = 0;
  last_send_s_ = 0.0;
  retries_ = 0;
  outbox_.clear();
  next_relay_ = 0;
  pending_relays_.clear();
  last_rx_s_ = 0.0;
  last_probe_s_ = 0.0;
  attached_ = false;
  roster_.clear();
  round_ = 0;
  round_active_ = false;
  rx_.clear();
  alice_.reset();
  secret_.clear();
  if (config_.node >= 64) fail("node id must be < 64 (NodeSet range)");
  if (config_.members < 2) fail("need at least 2 members");
  if (config_.payload_bytes == 0 || config_.payload_bytes > kMaxPayload)
    fail("payload_bytes out of range");
  if (config_.x_packets_per_round == 0 ||
      config_.x_packets_per_round > kMaxUniverse)
    fail("x_packets_per_round out of range");
}

void NodeSession::fail(std::string why) {
  if (state_ == State::kFailed) return;
  state_ = State::kFailed;
  error_ = std::move(why);
  queue_.clear();
  inflight_.reset();
  outbox_.clear();
}

void NodeSession::queue_frame(Frame f) {
  f.header.session = config_.session_id;
  f.header.node = config_.node;
  queue_.push_back(std::move(f));
}

void NodeSession::send_immediate(const Frame& f) {
  Frame out = f;
  out.header.session = config_.session_id;
  out.header.node = config_.node;
  outbox_.push_back(encode(out));
}

void NodeSession::start(double now_s) {
  if (state_ != State::kIdle) return;
  state_ = State::kJoining;
  Frame attach;
  attach.header.type = static_cast<std::uint8_t>(FrameType::kAttach);
  attach.header.aux = config_.members;
  queue_frame(std::move(attach));
  last_rx_s_ = now_s;
  pump(now_s);
}

void NodeSession::pump(double now_s) {
  if (state_ == State::kFailed || state_ == State::kDone) return;
  if (inflight_.has_value() || queue_.empty()) return;
  // kAttach and kBye travel alone; kData/kCtrl frames pack back to back,
  // each taking the next stream seq, while the datagram stays in the cap.
  inflight_wire_.clear();
  while (!queue_.empty()) {
    Frame& f = queue_.front();
    const auto type = static_cast<FrameType>(f.header.type);
    const bool alone = type == FrameType::kAttach || type == FrameType::kBye;
    if (inflight_.has_value() &&
        (alone || inflight_wire_.size() + kHeaderSize + f.payload.size() >
                      kMaxDatagram))
      break;
    if (!alone) f.header.aux = next_stream_seq_++;
    encode_into(f, inflight_wire_);
    inflight_ = f.header;
    queue_.pop_front();
    if (alone) break;
  }
  outbox_.push_back(inflight_wire_);
  last_send_s_ = now_s;
  retries_ = 0;
}

bool NodeSession::poll_datagram(std::vector<std::uint8_t>& out) {
  if (outbox_.empty()) return false;
  out = std::move(outbox_.front());
  outbox_.pop_front();
  return true;
}

void NodeSession::on_tick(double now_s) {
  if (state_ == State::kFailed || state_ == State::kDone ||
      state_ == State::kIdle)
    return;
  if (inflight_.has_value() && now_s - last_send_s_ >= config_.rto_s) {
    if (++retries_ > config_.max_retries) {
      fail("ARQ retries exhausted");
      return;
    }
    outbox_.push_back(inflight_wire_);
    last_send_s_ = now_s;
  }
  // Join probe: the hub sends kReady exactly once per member, and that one
  // datagram has no ARQ of its own. If it is lost, re-send the kAttach —
  // the hub treats a repeat attach as an idempotent replay and re-sends
  // kReady once the roster is complete.
  if (state_ == State::kJoining && attached_ && !inflight_.has_value() &&
      now_s - last_rx_s_ >= config_.probe_s &&
      now_s - last_probe_s_ >= config_.probe_s) {
    Frame attach;
    attach.header.type = static_cast<std::uint8_t>(FrameType::kAttach);
    attach.header.aux = config_.members;
    send_immediate(attach);
    last_probe_s_ = now_s;
  }
  // Idle probe: a kNack carrying the next expected relay seq. The hub
  // resends anything newer we lost; if nothing is newer it ignores the
  // probe. This is what un-wedges a round whose *final* relay was lost.
  if (state_ == State::kRunning && !inflight_.has_value() &&
      now_s - last_rx_s_ >= config_.probe_s &&
      now_s - last_probe_s_ >= config_.probe_s) {
    Frame probe;
    probe.header.type = static_cast<std::uint8_t>(FrameType::kNack);
    probe.header.aux = next_relay_;
    send_immediate(probe);
    last_probe_s_ = now_s;
  }
  pump(now_s);
}

void NodeSession::on_datagram(std::span<const std::uint8_t> bytes,
                              double now_s) {
  if (state_ == State::kFailed || state_ == State::kDone) return;
  const DecodeAllResult decoded = decode_all(bytes);  // corrupt: no frames
  for (const Frame& f : decoded.frames) {
    if (state_ == State::kFailed || state_ == State::kDone) return;
    if (f.header.session != config_.session_id) continue;  // not ours
    last_rx_s_ = now_s;
    on_hub_frame(f, now_s);
  }
  pump(now_s);
}

void NodeSession::on_hub_frame(const Frame& f, double now_s) {
  const auto type = static_cast<FrameType>(f.header.type);
  switch (type) {
    case FrameType::kAttachOk:
      if (inflight_.has_value() &&
          inflight_->type == static_cast<std::uint8_t>(FrameType::kAttach)) {
        inflight_.reset();
        attached_ = true;
        maybe_start_round(now_s);
      }
      return;
    case FrameType::kReady: {
      // Payload: u16 count, then per member u16 id + u8 flags.
      const auto& p = f.payload;
      if (p.size() < 2) return fail("malformed kReady");
      const std::size_t count = p[0] | (p[1] << 8);
      if (p.size() != 2 + count * 3) return fail("malformed kReady");
      std::vector<std::uint16_t> terminals;
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint16_t id = static_cast<std::uint16_t>(
            p[2 + i * 3] | (p[3 + i * 3] << 8));
        const bool eve = (p[4 + i * 3] & kFlagEve) != 0;
        if (!eve) terminals.push_back(id);
      }
      if (terminals.size() < 2) return fail("roster has < 2 terminals");
      if (std::find(terminals.begin(), terminals.end(), config_.node) ==
          terminals.end())
        return fail("roster does not contain this node");
      roster_ = std::move(terminals);  // std::map order: already ascending
      maybe_start_round(now_s);
      drain_relays(now_s);  // relays that overtook this kReady
      return;
    }
    case FrameType::kTxReport:
    case FrameType::kCtrlAck: {
      // The ack of the datagram's last frame clears the whole datagram:
      // the hub accepts frames in stream order, so the earlier ones are in.
      const FrameType acked = type == FrameType::kTxReport ? FrameType::kData
                                                           : FrameType::kCtrl;
      if (inflight_.has_value() &&
          inflight_->type == static_cast<std::uint8_t>(acked) &&
          inflight_->phase == f.header.phase &&
          inflight_->round == f.header.round &&
          inflight_->seq == f.header.seq)
        inflight_.reset();
      return;
    }
    case FrameType::kBye:
      if (state_ == State::kClosing) {
        inflight_.reset();
        state_ = State::kDone;
      }
      return;
    case FrameType::kRelay:
      on_relay(f, now_s);
      return;
    case FrameType::kError:
      fail("hub error: " + std::string(f.payload.begin(), f.payload.end()));
      return;
    case FrameType::kExpired:
      fail("session expired at hub");
      return;
    default:
      return;  // client-origin types echoed back: noise
  }
}

void NodeSession::on_relay(const Frame& f, double now_s) {
  const std::uint32_t seq = f.header.aux;
  if (seq < next_relay_) return;  // duplicate
  // Hold relays until the roster is known: a relay can overtake the single
  // kReady datagram (UDP reorders, or kReady is lost outright) and
  // deliver() needs the roster to attribute frames to the round's Alice.
  if (roster_.empty()) {
    pending_relays_.emplace(seq, f);
    return;
  }
  if (seq > next_relay_) {
    // Gap: buffer and ask the hub to resend from the first missing seq.
    pending_relays_.emplace(seq, f);
    if (now_s - last_probe_s_ >= config_.rto_s / 2.0) {
      Frame nack;
      nack.header.type = static_cast<std::uint8_t>(FrameType::kNack);
      nack.header.aux = next_relay_;
      send_immediate(nack);
      last_probe_s_ = now_s;
    }
    return;
  }
  deliver(f, now_s);
  ++next_relay_;
  drain_relays(now_s);
}

void NodeSession::drain_relays(double now_s) {
  if (roster_.empty()) return;
  auto it = pending_relays_.begin();
  while (it != pending_relays_.end() && state_ != State::kFailed) {
    if (it->first < next_relay_) {
      it = pending_relays_.erase(it);
      continue;
    }
    if (it->first != next_relay_) break;
    deliver(it->second, now_s);
    ++next_relay_;
    it = pending_relays_.erase(it);
  }
}

void NodeSession::deliver(const Frame& f, double now_s) {
  // A relayed frame preserves the original sender's phase/round/seq; the
  // original type is recovered from the phase (kXData came in as kData,
  // everything else as kCtrl).
  const auto phase = static_cast<WirePhase>(f.header.phase);
  const std::uint32_t round = f.header.round;
  if (round >= total_rounds() && state_ == State::kRunning)
    return;  // stray frame past the agreed horizon
  if (phase == WirePhase::kXData) {
    if (f.header.node != alice_of(round)) return;
    RoundRx& rr = rx_[round];
    if (f.payload.size() != config_.payload_bytes) return;
    rr.x.emplace(f.header.seq, f.payload);
    return;
  }
  on_ctrl(f, now_s);
}

void NodeSession::on_ctrl(const Frame& f, double now_s) {
  const auto phase = static_cast<WirePhase>(f.header.phase);
  const std::uint32_t round = f.header.round;
  const bool from_alice = f.header.node == alice_of(round);

  switch (phase) {
    case WirePhase::kEndOfX: {
      if (!from_alice) return;
      RoundRx& rr = rx_[round];
      if (f.payload.size() != 4) return fail("malformed kEndOfX");
      const std::uint32_t n = static_cast<std::uint32_t>(f.payload[0]) |
                              (static_cast<std::uint32_t>(f.payload[1]) << 8) |
                              (static_cast<std::uint32_t>(f.payload[2]) << 16) |
                              (static_cast<std::uint32_t>(f.payload[3]) << 24);
      if (n == 0 || n > kMaxUniverse) return fail("bad universe in kEndOfX");
      rr.universe = n;
      if (rr.reported) return;
      rr.reported = true;
      packet::ReceptionReport report;
      report.universe = n;
      for (const auto& [seq, payload] : rr.x)
        if (seq < n) report.received.push_back(seq);
      Frame rf;
      rf.header.type = static_cast<std::uint8_t>(FrameType::kCtrl);
      rf.header.phase = static_cast<std::uint8_t>(WirePhase::kReport);
      rf.header.round = round;
      rf.payload = packet::encode(report);
      queue_frame(std::move(rf));
      return;
    }
    case WirePhase::kReport: {
      // Only the round's Alice consumes peer reports.
      if (alice_of(round) != config_.node || !alice_.has_value() ||
          round_ != round)
        return;
      auto decoded = packet::decode_report(f.payload, kMaxUniverse);
      if (!decoded.has_value()) return fail("undecodable reception report");
      if (decoded->universe != config_.x_packets_per_round)
        return fail("report universe mismatch (got " +
                    std::to_string(decoded->universe) + ", expected " +
                    std::to_string(config_.x_packets_per_round) + ")");
      alice_->reports.emplace(f.header.node, std::move(*decoded));
      if (alice_->reports.size() == roster_.size() - 1)
        finish_alice_round(now_s);
      return;
    }
    case WirePhase::kYAnnouncement: {
      if (!from_alice) return;
      auto decoded = packet::decode_announcement(f.payload);
      if (!decoded.has_value()) return fail("undecodable y-announcement");
      rx_[round].y_ann = std::move(*decoded);
      return;
    }
    case WirePhase::kZCoded: {
      if (!from_alice) return;
      if (f.payload.size() != config_.payload_bytes)
        return fail("z payload size mismatch");
      rx_[round].z.emplace(f.header.seq, f.payload);
      return;
    }
    case WirePhase::kSAnnouncement: {
      if (!from_alice) return;
      auto decoded = packet::decode_announcement(f.payload);
      if (!decoded.has_value()) return fail("undecodable s-announcement");
      finish_receiver_round(round, *decoded, now_s);
      return;
    }
    default:
      return;
  }
}

void NodeSession::maybe_start_round(double now_s) {
  if (state_ == State::kJoining && attached_ && !roster_.empty())
    state_ = State::kRunning;
  if (state_ != State::kRunning || round_active_) return;
  if (round_ >= total_rounds()) {
    state_ = State::kClosing;
    Frame bye;
    bye.header.type = static_cast<std::uint8_t>(FrameType::kBye);
    queue_frame(std::move(bye));
    return;
  }
  round_active_ = true;
  if (alice_of(round_) == config_.node) start_alice_round(now_s);
  // Receivers are stream-driven: nothing to do until relays arrive.
}

void NodeSession::start_alice_round(double /*now_s*/) {
  const std::size_t n = config_.x_packets_per_round;
  alice_.emplace();
  alice_->x.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& payload = alice_->x[i];
    payload.resize(config_.payload_bytes);
    for (auto& b : payload) b = payload_rng_.next_byte();
    Frame f;
    f.header.type = static_cast<std::uint8_t>(FrameType::kData);
    f.header.phase = static_cast<std::uint8_t>(WirePhase::kXData);
    f.header.round = round_;
    f.header.seq = static_cast<std::uint32_t>(i);
    f.payload = payload;
    queue_frame(std::move(f));
  }
  Frame end;
  end.header.type = static_cast<std::uint8_t>(FrameType::kCtrl);
  end.header.phase = static_cast<std::uint8_t>(WirePhase::kEndOfX);
  end.header.round = round_;
  // N travels in the payload: relays repurpose aux for the stream seq.
  const auto n32 = static_cast<std::uint32_t>(n);
  end.payload = {static_cast<std::uint8_t>(n32),
                 static_cast<std::uint8_t>(n32 >> 8),
                 static_cast<std::uint8_t>(n32 >> 16),
                 static_cast<std::uint8_t>(n32 >> 24)};
  queue_frame(std::move(end));
}

void NodeSession::finish_alice_round(double now_s) {
  const std::size_t n = config_.x_packets_per_round;
  const std::size_t payload = config_.payload_bytes;
  arena_.reset();

  std::vector<packet::NodeId> receivers;
  for (std::uint16_t id : roster_)
    if (id != config_.node) receivers.push_back(packet::NodeId{id});
  core::ReceptionTable table(packet::NodeId{config_.node}, receivers, n);
  for (const auto& [id, report] : alice_->reports)
    table.set_received(packet::NodeId{id}, report.received);

  // The daemon path has no oracle and no interference schedule, so size
  // the secret with the paper's empirical strategy (loo-fraction).
  core::EstimatorSpec spec;
  spec.kind = core::EstimatorKind::kLooFraction;
  const auto estimator = core::build_estimator(spec, table, {});
  const core::Phase1Result phase1 = core::run_phase1(table, *estimator);
  const core::YPool& pool = phase1.build.pool;
  const core::Phase2Plan plan = core::plan_phase2(pool);

  std::vector<packet::ConstByteSpan> x_spans(alice_->x.begin(),
                                             alice_->x.end());
  const std::vector<packet::ConstByteSpan> y_contents =
      core::all_y_contents(pool, x_spans, payload, arena_);
  const std::vector<packet::ConstByteSpan> z_payloads =
      plan.h.rows() > 0
          ? core::make_z_payloads(plan, y_contents, payload, arena_)
          : std::vector<packet::ConstByteSpan>{};

  Frame ya;
  ya.header.type = static_cast<std::uint8_t>(FrameType::kCtrl);
  ya.header.phase = static_cast<std::uint8_t>(WirePhase::kYAnnouncement);
  ya.header.round = round_;
  ya.payload = packet::encode(phase1.announcement);
  if (ya.payload.size() > kMaxPayload)
    return fail("y-announcement exceeds frame cap (reduce N)");
  queue_frame(std::move(ya));

  for (std::size_t zi = 0; zi < z_payloads.size(); ++zi) {
    Frame zf;
    zf.header.type = static_cast<std::uint8_t>(FrameType::kCtrl);
    zf.header.phase = static_cast<std::uint8_t>(WirePhase::kZCoded);
    zf.header.round = round_;
    zf.header.seq = static_cast<std::uint32_t>(zi);
    zf.payload.assign(z_payloads[zi].begin(), z_payloads[zi].end());
    queue_frame(std::move(zf));
  }

  Frame sa;
  sa.header.type = static_cast<std::uint8_t>(FrameType::kCtrl);
  sa.header.phase = static_cast<std::uint8_t>(WirePhase::kSAnnouncement);
  sa.header.round = round_;
  sa.payload = packet::encode(plan.s_announcement);
  if (sa.payload.size() > kMaxPayload)
    return fail("s-announcement exceeds frame cap (reduce N)");
  queue_frame(std::move(sa));

  if (plan.group_size > 0) {
    const std::vector<packet::ConstByteSpan> s_payloads =
        core::make_s_payloads(plan, y_contents, payload, arena_);
    for (const packet::ConstByteSpan s : s_payloads)
      secret_.insert(secret_.end(), s.begin(), s.end());
  }
  alice_.reset();
  round_complete(now_s);
}

void NodeSession::finish_receiver_round(std::uint32_t round,
                                        const packet::Announcement& s_ann,
                                        double now_s) {
  auto it = rx_.find(round);
  if (it == rx_.end() || !it->second.y_ann.has_value())
    return fail("s-announcement before y-announcement");
  RoundRx& rr = it->second;
  const std::size_t payload = config_.payload_bytes;
  const std::uint32_t n = rr.universe;
  if (n == 0) return fail("s-announcement before kEndOfX");

  const std::size_t m = rr.y_ann->combinations.size();
  const std::size_t l = s_ann.combinations.size();
  if (l > m) return fail("announced L > M");

  // Rebuild Alice's plan from public sizes alone, and the own pool view
  // from the y identities: this terminal can reconstruct y_j iff the
  // combination's support lies inside its reception set. The sizes come
  // off the wire, so a plan they cannot make (M > 255) ends the session.
  core::Phase2Plan plan;
  try {
    plan = core::plan_phase2(m, l);
  } catch (const std::exception& e) {
    return fail(std::string("announced sizes have no phase-2 plan: ") +
                e.what());
  }
  if (rr.z.size() != plan.h.rows() ||
      (!rr.z.empty() && rr.z.rbegin()->first != rr.z.size() - 1))
    return fail("z-packet set incomplete at s-announcement");

  if (l > 0) {
    arena_.reset();
    const packet::NodeId self{config_.node};
    core::YPool pool(n, {self});
    for (const packet::Combination& combo : rr.y_ann->combinations) {
      bool have_all = true;
      for (const packet::Term& t : combo.terms()) {
        if (t.index >= n) return fail("y combination index out of range");
        if (!rr.x.contains(t.index)) have_all = false;
      }
      net::NodeSet audience;
      if (have_all && !combo.empty()) audience.insert(self);
      pool.add({combo, audience});
    }

    std::vector<packet::ConstByteSpan> x_spans(n);
    for (const auto& [seq, bytes] : rr.x)
      if (seq < n) x_spans[seq] = bytes;

    std::vector<packet::ConstByteSpan> z_spans;
    z_spans.reserve(rr.z.size());
    for (const auto& [seq, bytes] : rr.z) z_spans.push_back(bytes);

    try {
      const auto own_y =
          core::reconstruct_y(pool, self, x_spans, payload, arena_);
      const auto full_y =
          core::recover_all_y(plan, own_y, z_spans, payload, arena_);
      const auto own_s =
          core::make_s_payloads(plan, full_y, payload, arena_);
      for (const packet::ConstByteSpan s : own_s)
        secret_.insert(secret_.end(), s.begin(), s.end());
    } catch (const std::exception& e) {
      return fail(std::string("secret reconstruction failed: ") + e.what());
    }
  }

  rx_.erase(it);
  round_complete(now_s);
}

void NodeSession::round_complete(double now_s) {
  ++round_;
  round_active_ = false;
  maybe_start_round(now_s);
}

}  // namespace thinair::netd
