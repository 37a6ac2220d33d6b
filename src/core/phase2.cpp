#include "core/phase2.h"

#include <algorithm>
#include <stdexcept>

#include "gf/encode.h"
#include "gf/gather.h"
#include "gf/kernels.h"
#include "gf/mds.h"

namespace thinair::core {

namespace {

packet::Announcement announcement_from(const gf::Matrix& rows) {
  packet::Announcement a;
  a.combinations.reserve(rows.rows());
  for (std::size_t i = 0; i < rows.rows(); ++i) {
    packet::Combination combo;
    combo.reserve(rows.cols());
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

  // Rows 0..M-L-1 of the square Vandermonde matrix form H, the rest C.
  plan.h = gf::Matrix(m - l, m);
  plan.c = gf::Matrix(l, m);
  for (std::size_t i = 0; i < m - l; ++i)
    std::copy_n(gf::mds::vandermonde_row(i).begin(), m, plan.h.row(i).begin());
  for (std::size_t i = 0; i < l; ++i)
    std::copy_n(gf::mds::vandermonde_row(m - l + i).begin(), m,
                plan.c.row(i).begin());
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

  std::size_t d = 0;  // unknowns
  for (const packet::ConstByteSpan own : own_y)
    if (own.empty()) ++d;
  if (d > plan.h.rows())
    throw std::invalid_argument(
        "recover_all_y: more unknowns than z-packets (M_i < L?)");

  std::vector<packet::ConstByteSpan> y(own_y.begin(), own_y.end());
  if (d == 0) return y;
  if (plan.h.cols() != m)
    throw std::invalid_argument("recover_all_y: plan width != pool size");

  // One pass over the first d z-rows (the only ones the solve needs)
  // builds both sides of the repair system H[:d, unknown] * y_u = r:
  //  - the residual r_i = z_i - sum_{known j} H[i][j] * y_j, seeded with
  //    the z-content and fused on the gather side over the known y's;
  //  - the arena-backed d x 2d matrix [H[:d, unknown] | I].
  gf::Matrix system(d, 2 * d, arena);
  std::vector<packet::ConstByteSpan> residual(d);
  for (std::size_t i = 0; i < d; ++i) {
    const packet::ByteSpan r = arena.copy(z_payloads[i]);
    const std::span<const std::uint8_t> h = plan.h.row(i);
    const std::span<std::uint8_t> row = system.row(i);
    gf::DotBatch batch(r.data(), payload_size);
    std::size_t u = 0;
    for (std::size_t j = 0; j < m; ++j) {
      if (own_y[j].empty()) {
        row[u++] = h[j];
        continue;
      }
      if (own_y[j].size() != payload_size)
        throw std::invalid_argument("recover_all_y: y payload size mismatch");
      batch.add(h[j], own_y[j].data());
    }
    batch.flush();
    row[d + i] = 1;
    residual[i] = r;
  }

  // Reduce in place: any d of Vandermonde rows 0..M-L-1 restricted to d
  // columns are invertible, so the left block becomes I and the right
  // block H[:d, unknown]^-1.
  const std::vector<std::size_t> pivots = system.row_reduce();
  if (pivots.size() != d || pivots.back() != d - 1)
    throw std::logic_error("recover_all_y: repair system singular");

  std::size_t u = 0;
  for (std::size_t j = 0; j < m; ++j)
    if (own_y[j].empty())
      y[j] = gf::gather(system.row(u++).subspan(d), residual, payload_size,
                        arena);
  return y;
}

std::vector<packet::ConstByteSpan> make_s_payloads(
    const Phase2Plan& plan, std::span<const packet::ConstByteSpan> y_contents,
    std::size_t payload_size, packet::PayloadArena& arena) {
  return apply_rows(plan.c, y_contents, payload_size, arena);
}

}  // namespace thinair::core
