#include "core/phase2.h"

#include <stdexcept>

#include "gf/encode.h"
#include "gf/gather.h"
#include "gf/mds.h"

namespace thinair::core {

namespace {

packet::Announcement announcement_from(const gf::Matrix& rows) {
  packet::Announcement a;
  a.combinations.reserve(rows.rows());
  for (std::size_t i = 0; i < rows.rows(); ++i) {
    packet::Combination combo;
    for (std::size_t j = 0; j < rows.cols(); ++j)
      combo.add(static_cast<std::uint32_t>(j), rows.at(i, j));
    a.combinations.push_back(std::move(combo));
  }
  return a;
}

// outputs = rows * inputs through the fused gf::encode tiling (each
// input streamed once per block of gf::kMaxFusedRows output rows).
std::vector<packet::ConstByteSpan> apply_rows(
    const gf::Matrix& rows, std::span<const packet::ConstByteSpan> inputs,
    std::size_t payload_size, packet::PayloadArena& arena) {
  if (payload_size == 0)
    throw std::invalid_argument("apply_rows: payload_size == 0");
  if (inputs.size() != rows.cols())
    throw std::invalid_argument("apply_rows: input count mismatch");
  return gf::encode(rows, inputs, payload_size, arena);
}

}  // namespace

Phase2Plan plan_phase2(const YPool& pool) {
  return plan_phase2(pool.size(), pool.group_secret_size());
}

Phase2Plan plan_phase2(std::size_t pool_size, std::size_t group_size) {
  Phase2Plan plan;
  plan.pool_size = pool_size;
  plan.group_size = group_size;

  const std::size_t m = plan.pool_size;
  const std::size_t l = plan.group_size;
  if (l > m) throw std::invalid_argument("plan_phase2: L > M");
  if (m == 0 || l == 0) {
    // No shared secret possible this round (the paper's worst case).
    plan.group_size = 0;
    plan.h = gf::Matrix(0, m);
    plan.c = gf::Matrix(0, m);
    return plan;
  }
  if (m > gf::mds::kMaxColumns)
    throw std::invalid_argument("plan_phase2: pool too large for GF(2^8)");

  const gf::Matrix v = gf::mds::vandermonde_square(m);
  std::vector<std::size_t> top(m - l), bottom(l);
  for (std::size_t i = 0; i < m - l; ++i) top[i] = i;
  for (std::size_t i = 0; i < l; ++i) bottom[i] = m - l + i;
  plan.h = v.select_rows(top);
  plan.c = v.select_rows(bottom);
  plan.z_announcement = announcement_from(plan.h);
  plan.s_announcement = announcement_from(plan.c);
  return plan;
}

std::vector<packet::ConstByteSpan> make_z_payloads(
    const Phase2Plan& plan, std::span<const packet::ConstByteSpan> y_contents,
    std::size_t payload_size, packet::PayloadArena& arena) {
  return apply_rows(plan.h, y_contents, payload_size, arena);
}

std::vector<packet::ConstByteSpan> recover_all_y(
    const Phase2Plan& plan, std::span<const packet::ConstByteSpan> own_y,
    std::span<const packet::ConstByteSpan> z_payloads,
    std::size_t payload_size, packet::PayloadArena& arena) {
  if (payload_size == 0)
    throw std::invalid_argument("recover_all_y: payload_size == 0");
  const std::size_t m = plan.pool_size;
  if (own_y.size() != m)
    throw std::invalid_argument("recover_all_y: own_y size != pool size");
  if (z_payloads.size() != plan.h.rows())
    throw std::invalid_argument("recover_all_y: z count mismatch");
  // Validate every broadcast z-packet, even though only the first
  // |unknown| rows feed the solve below.
  for (const packet::ConstByteSpan z : z_payloads)
    if (z.size() != payload_size)
      throw std::invalid_argument("recover_all_y: z payload size mismatch");

  std::vector<std::size_t> unknown;
  for (std::size_t j = 0; j < m; ++j)
    if (own_y[j].empty()) unknown.push_back(j);
  if (unknown.size() > plan.h.rows())
    throw std::invalid_argument(
        "recover_all_y: more unknowns than z-packets (M_i < L?)");

  std::vector<packet::ConstByteSpan> y(own_y.begin(), own_y.end());
  if (unknown.empty()) return y;
  std::vector<std::size_t> known;
  for (std::size_t j = 0; j < m; ++j)
    if (!own_y[j].empty()) known.push_back(j);

  // Residual r_i = z_i - sum_{known j} H[i][j] * y_j  =  H[:,unknown] * y_u.
  // Only the first |unknown| z-rows feed the solve below; skip the rest.
  // Fused on the gather side: seed each residual with its z-content, then
  // one gather pass per residual row over the known y's.
  std::vector<std::size_t> rows_used(unknown.size());
  for (std::size_t i = 0; i < unknown.size(); ++i) rows_used[i] = i;
  std::vector<packet::ByteSpan> residual(unknown.size());
  for (std::size_t i = 0; i < unknown.size(); ++i)
    residual[i] = arena.copy(z_payloads[i]);
  {
    const gf::Matrix hk =
        plan.h.select_rows(rows_used).select_columns(known);
    std::vector<packet::ConstByteSpan> yk;
    yk.reserve(known.size());
    for (std::size_t j : known) yk.push_back(own_y[j]);
    for (std::size_t i = 0; i < residual.size(); ++i)
      gf::gather(hk.row(i), yk, residual[i]);
  }

  // Solve the square |unknown| x |unknown| subsystem built from the first
  // |unknown| z-rows (any such subset of Vandermonde rows 0..M-L-1
  // restricted to |unknown| columns is invertible).
  const gf::Matrix sub = plan.h.select_rows(rows_used).select_columns(unknown);
  const auto inv = sub.inverse();
  if (!inv.has_value())
    throw std::logic_error("recover_all_y: repair system singular");

  const std::vector<packet::ConstByteSpan> rc(residual.begin(),
                                              residual.end());
  std::vector<packet::ConstByteSpan> repaired(unknown.size());
  for (std::size_t u = 0; u < unknown.size(); ++u)
    repaired[u] = gf::gather(inv->row(u), rc, payload_size, arena);
  for (std::size_t u = 0; u < unknown.size(); ++u)
    y[unknown[u]] = repaired[u];
  return y;
}

std::vector<packet::ConstByteSpan> make_s_payloads(
    const Phase2Plan& plan, std::span<const packet::ConstByteSpan> y_contents,
    std::size_t payload_size, packet::PayloadArena& arena) {
  return apply_rows(plan.c, y_contents, payload_size, arena);
}

}  // namespace thinair::core
