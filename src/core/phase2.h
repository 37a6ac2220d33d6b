#pragma once
// Phase 2: from pair-wise secrets to a group secret (Sec. 3.2).
//
// Step 1/2 (redistribution): Alice reliably broadcasts M - L z-packets
// (contents included), coded so that any terminal holding M_i >= L
// y-packets can solve for its M - M_i missing ones. Step 3/4 (privacy
// amplification): she announces the identities of L s-packets; every
// terminal — now holding all M y-packets — evaluates them locally. The
// group secret is the concatenation of the s-packets.
//
// Construction: take the M x M (invertible) Vandermonde matrix V over the
// y-indices. H = the first M - L rows defines the z-packets, C = the last
// L rows defines the s-packets.
//  - Repair: any M - L columns of H are independent (Vandermonde rows
//    0..M-L-1), so a terminal with d <= M - L unknowns solves them from
//    the z-contents.
//  - Secrecy: [H; C] = V is invertible, so when the y-pool is uniform to
//    Eve, conditioning on z = H y leaves s = C y exactly uniform: the
//    z-broadcast "redistributes" secret bits without leaking the s-packets
//    (the paper's key point: phase 2 does not increase M_i, it reshapes it).

#include <span>
#include <vector>

#include "core/pool.h"
#include "gf/matrix.h"
#include "packet/arena.h"
#include "packet/serialize.h"

namespace thinair::core {

struct Phase2Plan {
  std::size_t pool_size = 0;   // M
  std::size_t group_size = 0;  // L
  gf::Matrix h;                // (M - L) x M: z-packet combinations over y
  gf::Matrix c;                // L x M:       s-packet combinations over y
  packet::Announcement z_announcement;  // identities of the z combinations
  packet::Announcement s_announcement;  // identities of the s combinations
};

/// Derive the phase-2 coding plan from the pool. Pure function.
[[nodiscard]] Phase2Plan plan_phase2(const YPool& pool);

/// The same plan from (M, L) alone. The construction depends only on the
/// pool's size and its group-secret size, which is what lets a remote
/// terminal rebuild Alice's exact plan from public information: M is the
/// length of the y-announcement and L the length of the s-announcement.
[[nodiscard]] Phase2Plan plan_phase2(std::size_t pool_size,
                                     std::size_t group_size);

/// Alice's side of step 1: evaluate the z-packet contents, one span per
/// z-packet, carved from `arena`.
[[nodiscard]] std::vector<packet::ConstByteSpan> make_z_payloads(
    const Phase2Plan& plan, std::span<const packet::ConstByteSpan> y_contents,
    std::size_t payload_size, packet::PayloadArena& arena);

/// Terminal's side of step 2: combine its reconstructed y-packets with the
/// broadcast z-contents to recover the full y vector. `own_y` is the
/// output of reconstruct_y(): empty spans for the y-packets the terminal
/// could not reconstruct. The returned views alias `own_y` where it was
/// known and fresh arena spans where the packet had to be repaired.
/// Throws when the inputs are inconsistent (more unknowns than z-packets
/// — impossible for a pool-derived plan).
[[nodiscard]] std::vector<packet::ConstByteSpan> recover_all_y(
    const Phase2Plan& plan, std::span<const packet::ConstByteSpan> own_y,
    std::span<const packet::ConstByteSpan> z_payloads,
    std::size_t payload_size, packet::PayloadArena& arena);

/// Steps 3/4: evaluate the s-packets (both sides run this once they hold
/// every y-packet), one span per s-packet, carved from `arena`. The group
/// secret is the concatenation of the result.
[[nodiscard]] std::vector<packet::ConstByteSpan> make_s_payloads(
    const Phase2Plan& plan, std::span<const packet::ConstByteSpan> y_contents,
    std::size_t payload_size, packet::PayloadArena& arena);

/// Secret bits produced by this plan for a given payload size.
[[nodiscard]] inline std::size_t secret_bits(const Phase2Plan& plan,
                                             std::size_t payload_size) {
  return plan.group_size * payload_size * 8;
}

}  // namespace thinair::core
