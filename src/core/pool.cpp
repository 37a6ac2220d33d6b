#include "core/pool.h"

#include <algorithm>
#include <limits>
#include <set>
#include <span>
#include <stdexcept>

#include "gf/mds.h"

namespace thinair::core {

YPool::YPool(std::size_t universe, std::vector<packet::NodeId> receivers)
    : universe_(universe), receivers_(std::move(receivers)) {}

void YPool::add(Entry entry) {
  for (const packet::Term& t : entry.combo.terms())
    if (t.index >= universe_)
      throw std::out_of_range("YPool::add: term index >= universe");
  entries_.push_back(std::move(entry));
}

std::size_t YPool::count_for(packet::NodeId t) const {
  std::size_t count = 0;
  for (const Entry& e : entries_)
    if (e.audience.contains(t)) ++count;
  return count;
}

std::vector<std::size_t> YPool::known_indices(packet::NodeId t) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < entries_.size(); ++i)
    if (entries_[i].audience.contains(t)) out.push_back(i);
  return out;
}

std::size_t YPool::group_secret_size() const {
  if (receivers_.empty()) return 0;
  std::size_t l = std::numeric_limits<std::size_t>::max();
  for (packet::NodeId r : receivers_) l = std::min(l, count_for(r));
  return l;
}

namespace {

void fill_rows(const std::vector<YPool::Entry>& entries, gf::Matrix& m) {
  for (std::size_t i = 0; i < entries.size(); ++i)
    for (const packet::Term& t : entries[i].combo.terms())
      m.set(i, t.index, t.coeff);
}

}  // namespace

gf::Matrix YPool::rows() const {
  gf::Matrix m(entries_.size(), universe_);
  fill_rows(entries_, m);
  return m;
}

gf::Matrix YPool::rows(packet::PayloadArena& arena) const {
  gf::Matrix m(entries_.size(), universe_, arena);
  fill_rows(entries_, m);
  return m;
}

std::vector<packet::Combination> YPool::combinations() const {
  std::vector<packet::Combination> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.combo);
  return out;
}

std::string_view to_string(PoolStrategy s) {
  switch (s) {
    case PoolStrategy::kClassShared: return "class-shared";
    case PoolStrategy::kTerminalMds: return "terminal-mds";
  }
  return "unknown";
}

namespace {

/// Pool-wide y-packet budget: phase 2 codes the whole pool with one square
/// MDS matrix over GF(2^8).
constexpr std::size_t kPoolLimit = gf::mds::kMaxColumns;

net::NodeSet exempt_set(packet::NodeId alice,
                        std::initializer_list<packet::NodeId> others) {
  net::NodeSet s;
  s.insert(alice);
  for (packet::NodeId o : others) s.insert(o);
  return s;
}

/// Row `row` of the |chunk|-column Vandermonde generator as a combination
/// over the chunk's x-indices.
packet::Combination mds_row(std::size_t row,
                            std::span<const std::uint32_t> chunk) {
  const std::span<const std::uint8_t> coeffs = gf::mds::vandermonde_row(row);
  packet::Combination combo;
  combo.reserve(chunk.size());
  for (std::size_t col = 0; col < chunk.size(); ++col)
    combo.add(chunk[col], gf::GF256(coeffs[col]));
  return combo;
}

/// Per-terminal ceilings: the paper's M_i estimate for each receiver.
std::vector<std::size_t> terminal_ceilings(const ReceptionTable& table,
                                           const EveBoundEstimator& est) {
  std::vector<std::size_t> out;
  out.reserve(table.receivers().size());
  for (packet::NodeId r : table.receivers())
    out.push_back(
        est.missed_within(table.received(r), exempt_set(table.alice(), {r})));
  return out;
}

void build_class_shared(const ReceptionTable& table,
                        const EveBoundEstimator& estimator,
                        PoolBuildResult& result) {
  const auto& receivers = table.receivers();
  std::vector<std::size_t> remaining = result.ceilings;

  const auto receiver_index = [&](packet::NodeId t) {
    const auto it = std::find(receivers.begin(), receivers.end(), t);
    return static_cast<std::size_t>(it - receivers.begin());
  };

  // Scratch reused across classes: only capacity survives.
  std::vector<std::size_t> member_idx;
  std::vector<std::uint32_t> chunk;

  // Classes arrive most-shared first so widely shared packets fill the
  // ceilings before narrowly shared ones.
  for (const ReceptionTable::Class& cls : table.classes()) {
    net::NodeSet exempt;
    exempt.insert(table.alice());
    member_idx.clear();
    for (packet::NodeId r : receivers)
      if (cls.members.contains(r)) {
        exempt.insert(r);
        member_idx.push_back(receiver_index(r));
      }

    // GF(2^8) Vandermonde generators support at most 255 columns; split
    // oversized classes into chunks, each coded independently (chunks keep
    // the disjoint-support property, so joint secrecy is unaffected).
    std::size_t class_cap_total = 0;
    std::size_t class_alloc_total = 0;
    bool class_limit_hit = false;
    for (std::size_t begin = 0; begin < cls.indices.size();
         begin += gf::mds::kMaxColumns) {
      const std::size_t end =
          std::min(begin + gf::mds::kMaxColumns, cls.indices.size());
      chunk.assign(cls.indices.begin() + static_cast<std::ptrdiff_t>(begin),
                   cls.indices.begin() + static_cast<std::ptrdiff_t>(end));

      const std::size_t cap = estimator.missed_within(chunk, exempt);
      const std::size_t pool_budget = kPoolLimit - result.pool.size();
      std::size_t ceiling_budget = std::numeric_limits<std::size_t>::max();
      for (std::size_t mi : member_idx)
        ceiling_budget = std::min(ceiling_budget, remaining[mi]);
      // What the estimator and the per-terminal ceilings would grant,
      // before the pool-wide budget truncates it.
      const std::size_t want = std::min({cap, chunk.size(), ceiling_budget});
      const std::size_t n_t = std::min(want, pool_budget);
      if (n_t < want) class_limit_hit = true;
      class_cap_total += cap;
      class_alloc_total += n_t;
      if (n_t == 0) continue;

      for (std::size_t mi : member_idx) remaining[mi] -= n_t;

      // MDS rows over the chunk's own x-packets: any n_t columns of the
      // generator are independent, so the n_t outputs stay jointly uniform
      // for any adversary missing at least n_t of the inputs.
      for (std::size_t row = 0; row < n_t; ++row)
        result.pool.add(YPool::Entry{mds_row(row, chunk), cls.members});
    }
    result.allocations.push_back(PoolAllocation{cls.members,
                                                cls.indices.size(),
                                                class_cap_total,
                                                class_alloc_total,
                                                class_limit_hit});
  }
}

void build_terminal_mds(const ReceptionTable& table,
                        PoolBuildResult& result) {
  const auto& receivers = table.receivers();

  // Keep within the pool budget: scale every M_i down proportionally when
  // the naive total would overflow (conservative — shorter secrets).
  std::vector<std::size_t> quota = result.ceilings;
  std::size_t total = 0;
  for (std::size_t q : quota) total += q;
  if (total > kPoolLimit) {
    for (std::size_t& q : quota)
      q = q * kPoolLimit / total;  // floor scaling
  }

  // Audience of a row supported on R_i: every receiver whose reception set
  // contains the row's support. Identical reception sets produce identical
  // rows; dedup merges them (that is the only sharing this construction
  // yields, by design — count-robustness over R_i needs full-set support).
  const auto key_of = [](const packet::Combination& combo) {
    std::string key;
    key.reserve(combo.terms().size() * 5);
    for (const packet::Term& t : combo.terms()) {
      for (int b = 0; b < 4; ++b)
        key.push_back(static_cast<char>((t.index >> (8 * b)) & 0xFF));
      key.push_back(static_cast<char>(t.coeff.value()));
    }
    return key;
  };
  std::set<std::string> seen;

  for (std::size_t ri = 0; ri < receivers.size(); ++ri) {
    const std::vector<std::uint32_t> r_set = table.received(receivers[ri]);
    std::size_t added = 0;
    bool pool_full = false;  // the in-loop backstop tripped

    // Chunk reception sets wider than the field allows; quota is spent
    // chunk by chunk (earlier chunks first).
    std::size_t budget = quota[ri];
    for (std::size_t begin = 0;
         begin < r_set.size() && budget > 0 && !pool_full;
         begin += gf::mds::kMaxColumns) {
      const std::size_t end =
          std::min(begin + gf::mds::kMaxColumns, r_set.size());
      const std::span<const std::uint32_t> chunk(
          r_set.data() + begin, r_set.data() + end);
      const std::size_t m_i = std::min(budget, chunk.size());
      budget -= m_i;

      for (std::size_t row = 0; row < m_i; ++row) {
        packet::Combination combo = mds_row(row, chunk);

        // A row already in the pool (a receiver with an identical chunk
        // went first) is shared, not re-added; its audience was computed
        // from every receiver at insert time and already covers us.
        const auto [it, is_new] = seen.insert(key_of(combo));
        if (!is_new) continue;
        // Only a genuinely new row can hit the pool budget. Un-record a
        // truncated row's key, so it never becomes a phantom entry that
        // masquerades later identical rows as duplicates.
        if (result.pool.size() >= kPoolLimit) {
          seen.erase(it);
          pool_full = true;
          break;
        }
        net::NodeSet audience;
        for (packet::NodeId other : receivers) {
          bool subset = true;
          for (const packet::Term& t : combo.terms())
            if (!table.has(other, t.index)) {
              subset = false;
              break;
            }
          if (subset) audience.insert(other);
        }
        result.pool.add(YPool::Entry{std::move(combo), audience});
        ++added;
      }
    }

    net::NodeSet self;
    self.insert(receivers[ri]);
    // Proportional scaling is the usual way the pool budget bites; the
    // in-loop backstop catches estimators that over-report. Both count
    // as a limit hit.
    const bool limit_hit = pool_full || quota[ri] < result.ceilings[ri];
    result.allocations.push_back(
        PoolAllocation{self, r_set.size(), quota[ri], added, limit_hit});
  }
}

}  // namespace

PoolBuildResult build_pool(const ReceptionTable& table,
                           const EveBoundEstimator& estimator,
                           PoolStrategy strategy) {
  PoolBuildResult result{YPool(table.universe(), table.receivers()), {}, {}};
  result.ceilings = terminal_ceilings(table, estimator);

  switch (strategy) {
    case PoolStrategy::kClassShared:
      build_class_shared(table, estimator, result);
      break;
    case PoolStrategy::kTerminalMds:
      build_terminal_mds(table, result);
      break;
  }
  return result;
}

}  // namespace thinair::core
