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

/// The replies to one incoming datagram, appended to the caller's `out`.
/// A frame joins the newest datagram already bound for its destination
/// while that stays within kMaxDatagram, so each destination's frames keep
/// their order and ride in as few datagrams as the cap allows. Datagrams
/// from earlier calls are never touched.
class SessionHub::Replies {
 public:
  explicit Replies(std::vector<Outgoing>& out)
      : out_(out), first_(out.size()) {}

  void add(std::uint64_t session, std::uint16_t node, const Frame& frame) {
    encode_into(frame, slot(session, node, kHeaderSize + frame.payload.size()));
  }
  void add(std::uint64_t session, std::uint16_t node,
           std::span<const std::uint8_t> frame) {
    std::vector<std::uint8_t>& datagram = slot(session, node, frame.size());
    datagram.insert(datagram.end(), frame.begin(), frame.end());
  }

 private:
  /// The datagram to append `bytes` more bytes to for (session, node).
  std::vector<std::uint8_t>& slot(std::uint64_t session, std::uint16_t node,
                                  std::size_t bytes) {
    for (std::size_t i = out_.size(); i > first_; --i) {
      Outgoing& o = out_[i - 1];
      if (o.session != session || o.node != node) continue;
      if (o.datagram.size() + bytes <= kMaxDatagram) return o.datagram;
      break;
    }
    return out_.emplace_back(Outgoing{session, node, {}}).datagram;
  }

  std::vector<Outgoing>& out_;
  const std::size_t first_;
};

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

std::optional<PeerKey> SessionHub::on_datagram(
    std::span<const std::uint8_t> bytes, double now_s,
    std::vector<Outgoing>& out) {
  stats_.datagrams_in.fetch_add(1, std::memory_order_relaxed);
  DecodeAllResult decoded = decode_all(bytes);
  std::vector<Frame>& frames = decoded.frames;
  const auto other_sender = [&frames](const Frame& f) {
    return f.header.session != frames.front().header.session ||
           f.header.node != frames.front().header.node;
  };
  if (frames.empty() ||
      std::any_of(frames.begin(), frames.end(), other_sender)) {
    stats_.decode_errors.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }

  Replies replies(out);
  const std::uint32_t opening_aux = frames.front().header.aux;
  util::MutexLock lock(&mu_);
  for (std::size_t i = 0; i < frames.size(); ++i)
    on_frame(frames[i], opening_aux, i == 0, now_s, replies);
  return PeerKey{frames.front().header.session, frames.front().header.node};
}

void SessionHub::on_frame(Frame& f, std::uint32_t opening_aux, bool opens,
                          double now_s, Replies& out) {
  const std::uint64_t id = f.header.session;
  switch (static_cast<FrameType>(f.header.type)) {
    case FrameType::kAttach:
      handle_attach(f, now_s, out);
      return;
    case FrameType::kData:
    case FrameType::kCtrl: {
      auto it = sessions_.find(id);
      if (it == sessions_.end()) {
        out.add(id, f.header.node,
                make_control(FrameType::kExpired, id, f.header.node));
        return;
      }
      it->second.last_active_s = now_s;
      handle_broadcast(it->second, f, opening_aux, opens, out);
      return;
    }
    case FrameType::kNack: {
      auto it = sessions_.find(id);
      if (it == sessions_.end()) return;
      it->second.last_active_s = now_s;
      handle_nack(it->second, f, out);
      return;
    }
    case FrameType::kBye: {
      auto it = sessions_.find(id);
      if (it == sessions_.end()) {
        // Already gone (e.g. the final kBye echo was lost): re-echo so the
        // retransmitting client can finish.
        out.add(id, f.header.node,
                make_control(FrameType::kBye, id, f.header.node));
        return;
      }
      it->second.last_active_s = now_s;
      handle_bye(id, it->second, f, out);
      return;
    }
    default:
      // Hub-origin frame types arriving at the hub are protocol noise.
      return;
  }
}

void SessionHub::handle_attach(const Frame& f, double now_s, Replies& out) {
  const std::uint64_t id = f.header.session;
  const std::uint16_t node = f.header.node;
  // The declared roster size, checked at its full 32-bit width: the low
  // 16 bits of 65538 would pass the range check as 2.
  const std::uint32_t expected = f.header.aux;

  auto reply_error = [&](std::string_view why) {
    Frame e = make_control(FrameType::kError, id, node);
    e.payload = message_payload(why);
    out.add(id, node, e);
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
             .try_emplace(id,
                          channel::Rng(runtime::derive_seed(config_.seed, id)))
             .first;
    it->second.expected = static_cast<std::uint16_t>(expected);
    stats_.sessions_opened.fetch_add(1, std::memory_order_relaxed);
  }
  Session& s = it->second;
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
    out.add(id, to, r);
  };

  if (auto mit = s.members.find(node); mit != s.members.end()) {
    // Retransmitted attach: idempotent replay.
    out.add(id, node,
            make_control(FrameType::kAttachOk, id, node,
                         static_cast<std::uint32_t>(s.members.size())));
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
  out.add(id, node,
          make_control(FrameType::kAttachOk, id, node,
                       static_cast<std::uint32_t>(s.members.size())));
  if (s.members.size() == s.expected) {
    s.ready = true;
    for (const auto& [mid, member] : s.members) send_ready(mid);
  }
}

void SessionHub::relay_to(std::uint64_t session_id, std::uint16_t node,
                          Member& member, Frame& relay, Replies& out) {
  relay.header.aux = member.next_relay_seq++;
  member.ring.emplace_back(relay.header.aux, encode(relay));
  out.add(session_id, node, member.ring.back().second);
  while (member.ring.size() > kRelayWindow) member.ring.pop_front();
  stats_.frames_relayed.fetch_add(1, std::memory_order_relaxed);
}

void SessionHub::handle_broadcast(Session& s, Frame& f,
                                  std::uint32_t opening_aux, bool opens,
                                  Replies& out) {
  const std::uint64_t id = f.header.session;
  const std::uint16_t source = f.header.node;
  auto sit = s.members.find(source);
  if (sit == s.members.end() || !s.ready) {
    Frame e = make_control(FrameType::kError, id, source);
    e.payload = message_payload(sit == s.members.end()
                                    ? "broadcast: unknown member"
                                    : "broadcast: session not ready");
    out.add(id, source, e);
    return;
  }
  Member& sender = sit->second;

  // Stream order: only the sender's next stream seq draws and relays. A
  // stale or repeated copy draws nothing; when it opens the datagram
  // accepted last, whose acks were lost, those acks go out again. A frame
  // past the next seq is dropped for the client's retransmit to refill.
  const std::uint32_t stream_seq = f.header.aux;
  if (stream_seq != sender.next_stream_seq) {
    if (opens && stream_seq < sender.next_stream_seq &&
        stream_seq == sender.acked_first)
      for (std::size_t at = 0; at < sender.acks.size(); at += kHeaderSize)
        out.add(id, source,
                std::span<const std::uint8_t>(sender.acks)
                    .subspan(at, kHeaderSize));
    return;
  }
  ++sender.next_stream_seq;
  if (sender.acked_first != opening_aux) {
    sender.acked_first = opening_aux;
    sender.acks.clear();
  }

  const bool lossy = f.header.type == static_cast<std::uint8_t>(
                                          FrameType::kData);
  Frame ack = make_control(
      lossy ? FrameType::kTxReport : FrameType::kCtrlAck, id, source);
  ack.header.phase = f.header.phase;
  ack.header.round = f.header.round;
  ack.header.seq = f.header.seq;

  f.header.type = static_cast<std::uint8_t>(FrameType::kRelay);
  f.header.flags = 0;
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

  if (lossy) ack.header.aux = mask;
  const std::size_t at = sender.acks.size();
  encode_into(ack, sender.acks);
  out.add(id, source, std::span<const std::uint8_t>(sender.acks).subspan(at));
}

void SessionHub::handle_nack(Session& s, const Frame& f, Replies& out) {
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
    out.add(f.header.session, f.header.node, e);
    return;
  }
  for (const auto& [seq, datagram] : member.ring) {
    if (seq < first_missing) continue;
    out.add(f.header.session, f.header.node, datagram);
    stats_.nack_retransmits.fetch_add(1, std::memory_order_relaxed);
  }
}

void SessionHub::handle_bye(std::uint64_t id, Session& s, const Frame& f,
                            Replies& out) {
  auto it = s.members.find(f.header.node);
  if (it == s.members.end()) return;
  it->second.bye = true;
  out.add(id, f.header.node, make_control(FrameType::kBye, id, f.header.node));
  const bool all_done = std::all_of(
      s.members.begin(), s.members.end(),
      [](const auto& kv) { return kv.second.bye; });
  if (all_done) {
    sessions_.erase(id);  // destroys s: nothing below may touch it
    stats_.sessions_closed.fetch_add(1, std::memory_order_relaxed);
  }
}

void SessionHub::on_tick(double now_s, std::vector<Outgoing>& out) {
  util::MutexLock lock(&mu_);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->second.last_active_s + config_.idle_timeout_s > now_s) {
      ++it;
      continue;
    }
    const std::uint64_t id = it->first;
    for (const auto& [mid, member] : it->second.members)
      out.push_back({id, mid, encode(make_control(FrameType::kExpired, id,
                                                  mid))});
    it = sessions_.erase(it);
    stats_.sessions_expired.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace thinair::netd
