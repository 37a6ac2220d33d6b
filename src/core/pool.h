#pragma once
// The y-packet pool: phase 1's privacy amplification (Sec. 3.1).
//
// Alice condenses the x-packets she shares with the other terminals into M
// y-packets — linear combinations chosen so that (a) each terminal T_i can
// reconstruct a known subset of M_i of them from the x-packets it holds,
// and (b) the whole pool is jointly unknown to Eve with high probability.
// The same y-packet may be reconstructible by several terminals (the
// paper's 3-terminal example shares y1 between Bob and Calvin), which is
// what phase 2's redistribution exploits.
//
// Construction (our instantiation of the MDS constructions of [9]):
//   1. Partition x-indices into *classes* by exact reception pattern; the
//      packets of a class are shared by precisely the receiver set T.
//   2. Ask the estimator (Sec. 3.3) for two bounds:
//        cap_T    — packets of class T that Eve missed (the class cap);
//        ceil_i   — packets of R_i that Eve missed (the per-terminal
//                   ceiling, the paper's M_i estimate).
//   3. Walk classes from most- to least-shared, allocating
//        n_T = min(cap_T, min over members' remaining ceiling)
//      y-packets to class T.
//   4. Encode each class with an n_T x |X_T| Vandermonde MDS generator
//      over its own x-packets.
//
// Why this is jointly secret when the bounds hold: classes have disjoint
// x-support, so the pool's combination matrix is block-diagonal across
// classes; within a class, any n_T <= |X_T \ Eve| rows of a Vandermonde
// generator stay full-rank when restricted to the columns Eve misses. The
// bounds are *estimates*, so the property is verified empirically — that
// is exactly the paper's reliability metric.

#include <cstdint>
#include <vector>

#include "core/estimator.h"
#include "core/reception.h"
#include "gf/matrix.h"
#include "packet/combination.h"

namespace thinair::core {

/// The pool of y-packets for one round.
class YPool {
 public:
  struct Entry {
    packet::Combination combo;  // over x-packet indices
    net::NodeSet audience;      // receivers able to reconstruct this y
  };

  YPool(std::size_t universe, std::vector<packet::NodeId> receivers);

  void add(Entry entry);

  [[nodiscard]] std::size_t universe() const { return universe_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }  // M
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  [[nodiscard]] const std::vector<packet::NodeId>& receivers() const {
    return receivers_;
  }

  /// M_i: how many y-packets terminal t can reconstruct.
  [[nodiscard]] std::size_t count_for(packet::NodeId t) const;

  /// Indices (into entries()) of the y-packets terminal t can reconstruct.
  [[nodiscard]] std::vector<std::size_t> known_indices(
      packet::NodeId t) const;

  /// L = min over receivers of M_i: the group-secret size phase 2 can
  /// extract (0 when there are no receivers or some M_i is 0).
  [[nodiscard]] std::size_t group_secret_size() const;

  /// The M x N combination matrix over x-space (row j = y_j).
  [[nodiscard]] gf::Matrix rows() const;
  /// Arena path: the same matrix carved from `arena` (per-round scratch),
  /// the form the fused encode and analysis paths consume.
  [[nodiscard]] gf::Matrix rows(packet::PayloadArena& arena) const;

  /// Combination identities of every y, in pool order — the content of
  /// Alice's phase-1 announcement.
  [[nodiscard]] std::vector<packet::Combination> combinations() const;

 private:
  std::size_t universe_;
  std::vector<packet::NodeId> receivers_;
  std::vector<Entry> entries_;
};

/// One allocation decided by the builder — per reception class for
/// kClassShared, per receiver for kTerminalMds; exposed for tests and for
/// the ablation benches.
struct PoolAllocation {
  net::NodeSet members;
  std::size_t class_size = 0;
  std::size_t cap = 0;        // estimator's class cap / receiver's quota
  std::size_t allocated = 0;  // n_T actually used
  /// True when the pool-wide kPoolLimit budget (not the estimator) cut
  /// this allocation short — previously a silent truncation.
  bool limit_hit = false;
};

/// How the y-pool is constructed. Two instantiations of [9]'s MDS ideas
/// with different robustness/efficiency trade-offs:
///
///  - kClassShared (above): codes each reception class separately and
///    shares y-packets across every terminal of the class. Maximum
///    sharing, hence maximum efficiency — this is the construction behind
///    Figure 1's closed forms and it is *provably* jointly secret when the
///    estimator's class caps hold (e.g. under the oracle). With empirical
///    estimators its secrecy is sensitive to *where* Eve's receptions sit.
///
///  - kTerminalMds: the technical report's pair-wise construction. Each
///    terminal gets M_i rows of an MDS generator spanning its *entire*
///    reception set, so the rows stay uniform against any adversary that
///    missed at least M_i packets of R_i — regardless of which ones. This
///    is the count-robust construction the paper's empirical estimator
///    (Sec. 3.3) is sound for; it shares y-packets only between terminals
///    with nested reception sets, so it costs more z-packets.
enum class PoolStrategy : std::uint8_t { kClassShared, kTerminalMds };

/// The strategy's spec-file name; "unknown" past the last enumerator.
[[nodiscard]] std::string_view to_string(PoolStrategy s);

struct PoolBuildResult {
  YPool pool;
  /// Per class (kClassShared) or per receiver (kTerminalMds).
  std::vector<PoolAllocation> allocations;
  std::vector<std::size_t> ceilings;  // per receiver, estimator's M_i bound
};

/// Build the y-pool for a round. `table` must contain every receiver's
/// report; `estimator` provides the Sec. 3.3 bounds. The pool never
/// exceeds 255 y-packets (GF(2^8)'s limit for phase 2's square MDS code);
/// allocations are trimmed if necessary.
[[nodiscard]] PoolBuildResult build_pool(
    const ReceptionTable& table, const EveBoundEstimator& estimator,
    PoolStrategy strategy = PoolStrategy::kClassShared);

}  // namespace thinair::core
