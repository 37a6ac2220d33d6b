#pragma once
// Phase 1: pair-wise secrets (Sec. 3.1).
//
// Inputs: the round's reception table (step 2's reports) and an estimator
// of Eve's losses. Output: the y-pool, the public announcement carrying
// the y-packet *identities* (step 3 — contents are never transmitted), and
// helpers for both sides of the computation:
//   - Alice, who knows every x-packet she sent, evaluates all y contents;
//   - terminal T_i reconstructs the y-packets whose combination support
//     lies inside its reception set (step 4).
//
// Contents go in and come out as spans: inputs view the caller's
// payloads (an empty span is a missed x-packet), and outputs are carved
// from the caller's PayloadArena (an empty span is a y-packet outside
// the terminal's audience).

#include <vector>

#include "core/pool.h"
#include "packet/arena.h"
#include "packet/serialize.h"

namespace thinair::core {

struct Phase1Result {
  PoolBuildResult build;
  packet::Announcement announcement;  // identities of all M y-packets
};

/// Run Alice's phase-1 computation (steps 3's construction, given step 2's
/// table). Pure function of its inputs.
[[nodiscard]] Phase1Result run_phase1(
    const ReceptionTable& table, const EveBoundEstimator& estimator,
    PoolStrategy strategy = PoolStrategy::kClassShared);

/// Evaluate every y-packet's content from the full x-payload vector
/// (Alice's side; she transmitted all N payloads). Results are carved
/// from `arena`, one span per y in pool order. Requires payload_size > 0.
[[nodiscard]] std::vector<packet::ConstByteSpan> all_y_contents(
    const YPool& pool, std::span<const packet::ConstByteSpan> x_payloads,
    std::size_t payload_size, packet::PayloadArena& arena);

/// Terminal-side reconstruction (step 4): x_payloads[i] must view the
/// payload of x_i for every received index (empty span = missed).
/// Returns, for each y in pool order, an arena span with the content when
/// the terminal is in the y's audience, an empty span otherwise. Requires
/// payload_size > 0.
[[nodiscard]] std::vector<packet::ConstByteSpan> reconstruct_y(
    const YPool& pool, packet::NodeId terminal,
    std::span<const packet::ConstByteSpan> x_payloads,
    std::size_t payload_size, packet::PayloadArena& arena);

}  // namespace thinair::core
