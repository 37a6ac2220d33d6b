#include "netd/hub.h"

#include <algorithm>
#include <stdexcept>
#include <string_view>

#include "runtime/seed.h"

namespace thinair::netd {

namespace {

/// Roster cap: the kTxReport delivery mask is one u32 bit per member.
constexpr std::uint16_t kMaxMembers = 32;

/// Relay ring depth per member (the kNack recovery horizon). A member that
/// NACKs a seq already evicted from the ring gets kError immediately: the
/// gap is unrecoverable.
constexpr std::size_t kRelayWindow = 64;

std::vector<std::uint8_t> message_payload(std::string_view text) {
  return {text.begin(), text.end()};
}

}  // namespace

SessionHub::SessionHub(HubConfig config) : config_(config) {
  if (!(config_.loss_p >= 0.0 && config_.loss_p <= 1.0))
    throw std::invalid_argument("SessionHub: loss_p must lie in [0, 1]");
  if (!(config_.idle_timeout_s > 0.0))
    throw std::invalid_argument("SessionHub: idle_timeout_s must be > 0");
}

Frame SessionHub::make_control(FrameType type, std::uint64_t session,
                               std::uint16_t node, std::uint32_t aux) {
  Frame f;
  f.header.type = static_cast<std::uint8_t>(type);
  f.header.session = session;
  f.header.node = node;
  f.header.aux = aux;
  return f;
}

void SessionHub::on_datagram(std::span<const std::uint8_t> bytes, double now_s,
                             std::vector<Outgoing>& out) {
  stats_.datagrams_in.fetch_add(1, std::memory_order_relaxed);
  DecodeResult decoded = decode(bytes);
  if (!decoded.frame.has_value()) {
    stats_.decode_errors.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const Frame& f = *decoded.frame;
  const std::uint64_t id = f.header.session;

  util::MutexLock lock(&mu_);
  switch (static_cast<FrameType>(f.header.type)) {
    case FrameType::kAttach:
      handle_attach(f, now_s, out);
      return;
    case FrameType::kData:
    case FrameType::kCtrl: {
      auto it = sessions_.find(id);
      if (it == sessions_.end()) {
        out.push_back({id, f.header.node,
                       encode(make_control(FrameType::kExpired, id,
                                           f.header.node))});
        return;
      }
      it->second->last_active_s = now_s;
      handle_broadcast(*it->second, f, out);
      return;
    }
    case FrameType::kNack: {
      auto it = sessions_.find(id);
      if (it == sessions_.end()) return;
      it->second->last_active_s = now_s;
      handle_nack(*it->second, f, out);
      return;
    }
    case FrameType::kBye: {
      auto it = sessions_.find(id);
      if (it == sessions_.end()) {
        // Already gone (e.g. the final kBye echo was lost): re-echo so the
        // retransmitting client can finish.
        out.push_back({id, f.header.node,
                       encode(make_control(FrameType::kBye, id,
                                           f.header.node))});
        return;
      }
      it->second->last_active_s = now_s;
      handle_bye(id, *it->second, f, out);
      return;
    }
    default:
      // Hub-origin frame types arriving at the hub are protocol noise.
      return;
  }
}

void SessionHub::handle_attach(const Frame& f, double now_s,
                               std::vector<Outgoing>& out) {
  const std::uint64_t id = f.header.session;
  const std::uint16_t node = f.header.node;
  const std::uint16_t expected = static_cast<std::uint16_t>(f.header.aux);

  auto reply_error = [&](std::string_view why) {
    Frame e = make_control(FrameType::kError, id, node);
    e.payload = message_payload(why);
    out.push_back({id, node, encode(e)});
  };

  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    if (expected < 2 || expected > kMaxMembers) {
      reply_error("attach: expected member count out of range");
      return;
    }
    if (config_.max_sessions != 0 && sessions_.size() >= config_.max_sessions) {
      reply_error("attach: session table full");
      return;
    }
    it = sessions_
             .emplace(id, session_pool_.acquire_scoped(channel::Rng(
                              runtime::derive_seed(config_.seed, id))))
             .first;
    it->second->expected = expected;
    stats_.sessions_opened.fetch_add(1, std::memory_order_relaxed);
  }
  Session& s = *it->second;
  s.last_active_s = now_s;

  auto send_ready = [&](std::uint16_t to) {
    Frame r = make_control(FrameType::kReady, id, to);
    r.payload.reserve(2 + s.members.size() * 3);
    r.payload.push_back(static_cast<std::uint8_t>(s.members.size()));
    r.payload.push_back(static_cast<std::uint8_t>(s.members.size() >> 8));
    for (const auto& [mid, m] : s.members) {
      r.payload.push_back(static_cast<std::uint8_t>(mid));
      r.payload.push_back(static_cast<std::uint8_t>(mid >> 8));
      r.payload.push_back(m.eve ? kFlagEve : 0);
    }
    out.push_back({id, to, encode(r)});
  };

  if (auto mit = s.members.find(node); mit != s.members.end()) {
    // Retransmitted attach: idempotent replay.
    out.push_back({id, node,
                   encode(make_control(
                       FrameType::kAttachOk, id, node,
                       static_cast<std::uint32_t>(s.members.size())))});
    if (s.ready) send_ready(node);
    return;
  }
  if (s.ready) {
    reply_error("attach: roster already complete");
    return;
  }
  if (expected != s.expected) {
    reply_error("attach: expected member count disagrees");
    return;
  }

  Member m;
  m.eve = (f.header.flags & kFlagEve) != 0;
  s.members.emplace(node, std::move(m));
  out.push_back({id, node,
                 encode(make_control(
                     FrameType::kAttachOk, id, node,
                     static_cast<std::uint32_t>(s.members.size())))});
  if (s.members.size() == s.expected) {
    s.ready = true;
    for (const auto& [mid, member] : s.members) send_ready(mid);
  }
}

void SessionHub::relay_to(std::uint64_t session_id, std::uint16_t node,
                          Member& member, Frame wire,
                          std::vector<Outgoing>& out) {
  wire.header.type = static_cast<std::uint8_t>(FrameType::kRelay);
  wire.header.flags = 0;
  wire.header.aux = member.next_relay_seq++;
  std::vector<std::uint8_t> datagram = encode(wire);
  member.ring.emplace_back(wire.header.aux, datagram);
  while (member.ring.size() > kRelayWindow) member.ring.pop_front();
  out.push_back({session_id, node, std::move(datagram)});
  stats_.frames_relayed.fetch_add(1, std::memory_order_relaxed);
}

void SessionHub::handle_broadcast(Session& s, const Frame& f,
                                  std::vector<Outgoing>& out) {
  const std::uint64_t id = f.header.session;
  const std::uint16_t source = f.header.node;
  auto sit = s.members.find(source);
  if (sit == s.members.end() || !s.ready) {
    Frame e = make_control(FrameType::kError, id, source);
    e.payload = message_payload(sit == s.members.end()
                                    ? "broadcast: unknown member"
                                    : "broadcast: session not ready");
    out.push_back({id, source, encode(e)});
    return;
  }
  Member& sender = sit->second;

  // Client-side ARQ absorption: a retransmit of the frame we acked last
  // replays the cached ack verbatim — no new draws, no duplicate relays.
  const AckKey key{f.header.type, f.header.phase, f.header.round,
                   f.header.seq};
  if (sender.last_key == key) {
    out.push_back({id, source, sender.last_ack});
    return;
  }

  const bool lossy = f.header.type == static_cast<std::uint8_t>(
                                          FrameType::kData);
  std::uint32_t mask = 0;
  std::uint32_t bit = 0;
  for (auto& [mid, member] : s.members) {
    if (mid == source) {
      ++bit;
      continue;
    }
    if (!lossy || !s.rng.bernoulli(config_.loss_p)) {
      mask |= (1u << bit);
      relay_to(id, mid, member, f, out);
    }
    ++bit;
  }

  Frame ack = make_control(
      lossy ? FrameType::kTxReport : FrameType::kCtrlAck, id, source,
      lossy ? mask : 0);
  ack.header.phase = f.header.phase;
  ack.header.round = f.header.round;
  ack.header.seq = f.header.seq;
  sender.last_key = key;
  sender.last_ack = encode(ack);
  out.push_back({id, source, sender.last_ack});
}

void SessionHub::handle_nack(Session& s, const Frame& f,
                             std::vector<Outgoing>& out) {
  auto it = s.members.find(f.header.node);
  if (it == s.members.end()) return;
  Member& member = it->second;
  const std::uint32_t first_missing = f.header.aux;
  if (first_missing >= member.next_relay_seq) return;  // keepalive probe
  const std::uint32_t oldest =
      member.ring.empty() ? member.next_relay_seq : member.ring.front().first;
  if (first_missing < oldest) {
    // The requested seq has been evicted from the relay ring: the gap is
    // unrecoverable, so fail the member fast instead of letting it re-NACK
    // until its deadline.
    Frame e = make_control(FrameType::kError, f.header.session, f.header.node);
    e.payload =
        message_payload("nack: relay history evicted (unrecoverable gap)");
    out.push_back({f.header.session, f.header.node, encode(e)});
    return;
  }
  for (const auto& [seq, datagram] : member.ring) {
    if (seq < first_missing) continue;
    out.push_back({f.header.session, f.header.node, datagram});
    stats_.nack_retransmits.fetch_add(1, std::memory_order_relaxed);
  }
}

void SessionHub::handle_bye(std::uint64_t id, Session& s, const Frame& f,
                            std::vector<Outgoing>& out) {
  auto it = s.members.find(f.header.node);
  if (it == s.members.end()) return;
  it->second.bye = true;
  out.push_back(
      {id, f.header.node, encode(make_control(FrameType::kBye, id,
                                              f.header.node))});
  const bool all_done = std::all_of(
      s.members.begin(), s.members.end(),
      [](const auto& kv) { return kv.second.bye; });
  if (all_done) {
    sessions_.erase(id);
    stats_.sessions_closed.fetch_add(1, std::memory_order_relaxed);
  }
}

void SessionHub::on_tick(double now_s, std::vector<Outgoing>& out) {
  util::MutexLock lock(&mu_);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->second->last_active_s + config_.idle_timeout_s > now_s) {
      ++it;
      continue;
    }
    const std::uint64_t id = it->first;
    for (const auto& [mid, member] : it->second->members)
      out.push_back({id, mid, encode(make_control(FrameType::kExpired, id,
                                                  mid))});
    it = sessions_.erase(it);
    stats_.sessions_expired.fetch_add(1, std::memory_order_relaxed);
  }
}

runtime::PoolCounters SessionHub::session_pool_counters() const {
  util::MutexLock lock(&mu_);
  return session_pool_.stats().snapshot();
}

}  // namespace thinair::netd
