// micro_sessions — session lifecycle churn through the object pools.
//
// Cycles a full create → run-rounds → extract-key → destroy session
// lifecycle at least one million times, drawing every per-session object
// from runtime::ObjectPool / runtime::ArenaPool the way the engine's
// workers do. The bench is the proof that pooled reuse is (a) correct —
// the first cycles are replayed against freshly constructed sessions and
// must produce byte-identical secrets — and (b) allocation-free in steady
// state: VmRSS is sampled throughout and must not grow across the final
// half of the run. An early payload-spike phase inflates the arena so the
// release-time watermark trim has something to reclaim; the run fails
// unless trimmed bytes are observed.
//
// Writes BENCH_sessions.json and exits nonzero on verify mismatch, RSS
// growth past the tolerance, or a cold pool (hit rate below 0.99).
//
//   usage: micro_sessions [--sessions K] [--packets N] [--payload B]
//                         [--rss-tol FRAC]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string_view>
#include <vector>

#include "channel/erasure.h"
#include "channel/rng.h"
#include "core/session.h"
#include "net/medium.h"
#include "report.h"
#include "runtime/object_pool.h"
#include "runtime/seed.h"
#include "util/parse.h"

namespace {

using namespace thinair;

double monotonic_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::size_t sessions = 1'000'000;
  std::size_t packets = 8;     // N per round; tiny — the bench measures
                               // lifecycle overhead, not GF(2^8) math
  std::size_t payload = 16;    // steady-state payload bytes
  double rss_tol = 0.05;       // allowed RSS growth over the final half
};

// Resident set size in KiB, from /proc/self/status. ru_maxrss only ever
// rises, so the steady-state check samples the live value instead.
std::size_t rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = static_cast<std::size_t>(std::strtoull(line + 6, nullptr, 10));
      break;
    }
  }
  std::fclose(f);
  return kb;
}

core::SessionConfig cycle_config(const Options& opt, std::size_t i,
                                 packet::PayloadArena* arena) {
  core::SessionConfig cfg;
  cfg.x_packets_per_round = opt.packets;
  // The first cycles run fat payloads so the arena grows well past its
  // one-block minimum (64 KiB); the watermark trim must claw that back.
  cfg.payload_bytes = i < 16 ? 32768 : opt.payload;
  cfg.rounds = 1;
  // The default kGeometry estimator needs per-terminal cell positions the
  // bench has no geometry for; loo-fraction is the paper's Sec. 3.3
  // default strategy and runs on the reception table alone.
  cfg.estimator.kind = core::EstimatorKind::kLooFraction;
  cfg.arena = arena;
  return cfg;
}

int run_bench(const Options& opt) {
  const std::uint64_t base_seed = 2026;
  channel::IidErasure channel(0.2);

  runtime::ObjectPool<core::GroupSecretSession> sessions;
  runtime::ArenaPool arenas;

  const std::size_t verify_cycles = std::min<std::size_t>(opt.sessions, 256);
  std::size_t completed = 0;
  std::size_t with_secret = 0;
  std::size_t verified = 0;

  // RSS is sampled on a fixed cycle grid; the steady-state check compares
  // the midpoint sample with the final one, so leaks that accumulate per
  // cycle show up as growth over the back half no matter how slow.
  const std::size_t sample_every = std::max<std::size_t>(opt.sessions / 64, 1);
  std::vector<std::size_t> rss_samples;

  const double t0 = monotonic_s();
  for (std::size_t i = 0; i < opt.sessions; ++i) {
    const std::uint64_t seed = runtime::derive_seed(base_seed, i);

    net::SimMedium medium(channel, channel::Rng(seed));
    for (std::uint16_t node = 0; node < 2; ++node)
      medium.attach(packet::NodeId{node}, net::Role::kTerminal);
    medium.attach(packet::NodeId{2}, net::Role::kEavesdropper);

    const auto arena = arenas.acquire_scoped();
    const auto session =
        sessions.acquire_scoped(medium, cycle_config(opt, i, arena.get()));
    const core::SessionResult r = session->run();

    ++completed;
    if (!r.secret.empty()) ++with_secret;

    if (i < verify_cycles) {
      // Replay the cycle with a freshly constructed session on its own
      // medium (same seed) and a null arena: pooled reuse must not change
      // a single output byte.
      net::SimMedium fresh_medium(channel, channel::Rng(seed));
      for (std::uint16_t node = 0; node < 2; ++node)
        fresh_medium.attach(packet::NodeId{node}, net::Role::kTerminal);
      fresh_medium.attach(packet::NodeId{2}, net::Role::kEavesdropper);
      core::GroupSecretSession fresh(fresh_medium,
                                     cycle_config(opt, i, nullptr));
      const core::SessionResult want = fresh.run();
      if (r.secret != want.secret || r.duration_s != want.duration_s ||
          r.rounds.size() != want.rounds.size()) {
        std::fprintf(stderr,
                     "micro_sessions: cycle %zu: pooled result differs from "
                     "fresh construction\n",
                     i);
        return 1;
      }
      ++verified;
    }

    if (i % sample_every == 0) rss_samples.push_back(rss_kb());
  }
  const double wall_s = monotonic_s() - t0;
  rss_samples.push_back(rss_kb());

  const std::size_t rss_mid = rss_samples[rss_samples.size() / 2];
  const std::size_t rss_final = rss_samples.back();
  const double rss_growth =
      rss_mid > 0 ? (static_cast<double>(rss_final) -
                     static_cast<double>(rss_mid)) /
                        static_cast<double>(rss_mid)
                  : 0.0;

  const runtime::PoolCounters sc = sessions.stats().snapshot();
  const double rate = wall_s > 0.0 ? completed / wall_s : 0.0;

  bench::Report report("sessions");
  report.count("sessions", opt.sessions)
      .count("completed", completed)
      .count("with_nonzero_secret", with_secret)
      .count("verified_vs_fresh", verified)
      .count("x_packets_per_round", opt.packets)
      .count("payload_bytes", opt.payload)
      .num("sessions_per_s", rate, 1)
      .num("wall_s", wall_s, 2)
      .count("pool_acquired", sc.acquired)
      .count("pool_constructed", sc.constructed)
      .num("pool_hit_rate", sc.hit_rate(), 6)
      .count("arena_trimmed_bytes", arenas.trimmed_bytes())
      .count("arena_capacity_bytes", arenas.capacity())
      .count("rss_mid_kb", rss_mid)
      .count("rss_final_kb", rss_final)
      .num("rss_growth_final_half_frac", rss_growth, 6);
  if (report.write() != 0) return 1;

  std::fprintf(stderr,
               "micro_sessions: %zu cycles, %.0f sessions/s, %.2fs wall, "
               "hit rate %.4f, rss %zu -> %zu KiB (%+.2f%%)\n",
               completed, rate, wall_s, sc.hit_rate(), rss_mid, rss_final,
               rss_growth * 100.0);

  bool ok = true;
  if (verified != verify_cycles) ok = false;
  if (sc.hit_rate() < 0.99) {
    std::fprintf(stderr, "micro_sessions: FAILED: pool hit rate %.4f < 0.99\n",
                 sc.hit_rate());
    ok = false;
  }
  if (arenas.trimmed_bytes() == 0) {
    std::fprintf(stderr,
                 "micro_sessions: FAILED: watermark trim reclaimed nothing "
                 "(spike phase should have inflated the arena)\n");
    ok = false;
  }
  if (rss_growth > opt.rss_tol) {
    std::fprintf(stderr,
                 "micro_sessions: FAILED: RSS grew %.2f%% over the final "
                 "half (tolerance %.2f%%)\n",
                 rss_growth * 100.0, opt.rss_tol * 100.0);
    ok = false;
  }
  return ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: micro_sessions [--sessions K] [--packets N] "
               "[--payload B] [--rss-tol FRAC]   (K, N, B >= 1; FRAC >= 0)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  constexpr std::uint64_t kMax = std::numeric_limits<std::size_t>::max();
  for (int i = 1; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string_view value = argv[i + 1];
    std::uint64_t n = 0;
    double frac = 0.0;
    if (flag == "--sessions" && util::parse_u64_in(value, 1, kMax, n)) {
      opt.sessions = n;
    } else if (flag == "--packets" && util::parse_u64_in(value, 1, kMax, n)) {
      opt.packets = n;
    } else if (flag == "--payload" && util::parse_u64_in(value, 1, kMax, n)) {
      opt.payload = n;
    } else if (flag == "--rss-tol" && util::parse_nonneg_double(value, frac)) {
      opt.rss_tol = frac;
    } else {
      return usage();
    }
  }
  return run_bench(opt);
}
