#include "packet/combination.h"

#include <cassert>
#include <stdexcept>

#include "gf/kernels.h"

namespace thinair::packet {

namespace {

// Shared accumulation loop for both input representations. `Inputs` only
// needs size() and operator[] returning something with size()/data().
// Fused on the gather side: the combination's terms batch through
// gf::DotBatch so the output payload is loaded/stored once per block of
// gf::kMaxFusedRows terms instead of once per term.
template <typename Inputs>
void accumulate(const std::vector<Term>& terms, const Inputs& inputs,
                ByteSpan out) {
  if (out.empty()) {
    // Zero-length payloads carry no bytes to combine; return before any
    // in.data() is formed (an empty vector's data() may be null). The
    // throwing bounds check below is skipped here, so keep the index
    // invariant visible to debug builds.
    for ([[maybe_unused]] const Term& t : terms)
      assert(t.index < inputs.size() &&
             "Combination term index out of range");
    return;
  }
  gf::DotBatch batch(out.data(), out.size());
  for (const Term& t : terms) {
    if (t.index >= inputs.size())
      throw std::out_of_range("Combination::apply: index out of range");
    const auto& in = inputs[t.index];
    if (in.size() != out.size())
      throw std::invalid_argument("Combination::apply: payload size mismatch");
    batch.add(t.coeff.value(), in.data());
  }
  batch.flush();
}

}  // namespace

Payload Combination::apply(std::span<const Payload> inputs,
                           std::size_t payload_size) const {
  Payload out(payload_size, 0);
  accumulate(terms_, inputs, ByteSpan(out));
  return out;
}

ConstByteSpan Combination::apply(std::span<const ConstByteSpan> inputs,
                                 std::size_t payload_size,
                                 PayloadArena& arena) const {
  ByteSpan out = arena.alloc(payload_size);
  accumulate(terms_, inputs, out);
  return out;
}

std::vector<std::uint8_t> Combination::dense_row(std::size_t universe) const {
  std::vector<std::uint8_t> row(universe, 0);
  for (const Term& t : terms_) {
    if (t.index >= universe)
      throw std::out_of_range("Combination::dense_row: index out of range");
    row[t.index] = static_cast<std::uint8_t>(row[t.index] ^
                                             t.coeff.value());  // accumulate
  }
  return row;
}

}  // namespace thinair::packet
