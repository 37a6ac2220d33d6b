#pragma once
// String-keyed erasure-model construction.
//
// The declarative scenario layer (runtime/scenario_spec.h) names channel
// models by string — "iid", "per-link", "testbed" — so spec files can
// pick a model without compiling anything. This header owns the keying:
// the ChannelModelKind enum, its names (to_string; the spec parser reads
// them back), and a factory for the placement-free kinds. The testbed
// kind is geometric — it needs node placements before it can exist — so
// it is materialised by testbed::build_channel, not here.

#include <memory>
#include <string_view>
#include <vector>

#include "channel/erasure.h"

namespace thinair::channel {

enum class ChannelModelKind : std::uint8_t {
  kIid,      // one erasure probability on every link (Figure 1)
  kPerLink,  // per-(tx, rx) table with a default (asymmetric studies)
  kTestbed,  // geometry + interference + SINR (Sec. 4 deployment)
};

/// The model's spec-file name; "unknown" past the last enumerator.
[[nodiscard]] std::string_view to_string(ChannelModelKind kind);

/// One entry of a per-link erasure table.
struct LinkErasure {
  std::uint16_t tx = 0;
  std::uint16_t rx = 0;
  double p = 0.0;

  friend bool operator==(const LinkErasure&, const LinkErasure&) = default;
};

/// Build a placement-free model: IidErasure for kIid, PerLinkErasure for
/// kPerLink (`default_p` for unlisted links). Throws std::invalid_argument
/// for kTestbed — that model needs placements (testbed::build_channel) —
/// and for probabilities outside [0, 1].
[[nodiscard]] std::unique_ptr<ErasureModel> make_erasure_model(
    ChannelModelKind kind, double iid_p, double default_p = 0.0,
    const std::vector<LinkErasure>& links = {});

}  // namespace thinair::channel
