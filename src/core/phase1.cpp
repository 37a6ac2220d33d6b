#include "core/phase1.h"

#include <stdexcept>

#include "gf/encode.h"
#include "gf/kernels.h"

namespace thinair::core {

Phase1Result run_phase1(const ReceptionTable& table,
                        const EveBoundEstimator& estimator,
                        PoolStrategy strategy) {
  Phase1Result result{build_pool(table, estimator, strategy), {}};
  result.announcement.combinations = result.build.pool.combinations();
  return result;
}

std::vector<packet::ConstByteSpan> all_y_contents(
    const YPool& pool, std::span<const packet::ConstByteSpan> x_payloads,
    std::size_t payload_size, packet::PayloadArena& arena) {
  if (payload_size == 0)
    throw std::invalid_argument("all_y_contents: payload_size == 0");
  if (x_payloads.size() != pool.universe())
    throw std::invalid_argument("all_y_contents: payload count != universe");
  // Fused path: the dense pool matrix and every output live in the arena;
  // each x-payload is streamed once per block of gf::kMaxFusedRows y-rows
  // instead of once per row.
  const gf::Matrix m = pool.rows(arena);
  return gf::encode(m, x_payloads, payload_size, arena);
}

std::vector<packet::ConstByteSpan> reconstruct_y(
    const YPool& pool, packet::NodeId terminal,
    std::span<const packet::ConstByteSpan> x_payloads,
    std::size_t payload_size, packet::PayloadArena& arena) {
  if (payload_size == 0)
    throw std::invalid_argument("reconstruct_y: payload_size == 0");
  if (x_payloads.size() != pool.universe())
    throw std::invalid_argument("reconstruct_y: payload count != universe");

  std::vector<packet::ConstByteSpan> out(pool.size());
  for (std::size_t j = 0; j < pool.size(); ++j) {
    const YPool::Entry& e = pool.entries()[j];
    if (!e.audience.contains(terminal)) continue;
    const packet::ByteSpan y = arena.alloc(payload_size);
    // Fused gather: the y-row is the shared output, blocks of
    // gf::kMaxFusedRows x-payloads the inputs.
    gf::DotBatch batch(y.data(), payload_size);
    for (const packet::Term& t : e.combo.terms()) {
      const packet::ConstByteSpan x = x_payloads[t.index];
      if (x.empty())
        throw std::logic_error(
            "reconstruct_y: terminal in audience but missing an x-packet "
            "(inconsistent reception report)");
      if (x.size() != payload_size)
        throw std::invalid_argument("reconstruct_y: payload size mismatch");
      batch.add(t.coeff.value(), x.data());
    }
    batch.flush();
    out[j] = y;
  }
  return out;
}

}  // namespace thinair::core
