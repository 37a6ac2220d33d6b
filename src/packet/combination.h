#pragma once
// Linear-combination descriptors.
//
// When Alice announces y-/s-packet *identities* (phase 1 step 3 and phase 2
// step 3 in the paper) she publishes, for each derived packet, which inputs
// were combined and with which GF(2^8) coefficients — but never the
// contents. This file defines that descriptor, the operation that applies
// it to payloads, and its serialized size (which the efficiency metric
// charges as control traffic).

#include <cstdint>
#include <span>
#include <vector>

#include "gf/gf256.h"
#include "packet/arena.h"
#include "packet/packet.h"

namespace thinair::packet {

/// One term of a linear combination: coefficient times the input with the
/// given index (an x-packet sequence number in phase 1, a y-packet index in
/// phase 2).
struct Term {
  std::uint32_t index = 0;
  gf::GF256 coeff;
  friend bool operator==(const Term&, const Term&) = default;
};

/// A sparse linear combination of input payloads.
class Combination {
 public:
  Combination() = default;
  explicit Combination(std::vector<Term> terms) : terms_(std::move(terms)) {}

  [[nodiscard]] const std::vector<Term>& terms() const { return terms_; }
  [[nodiscard]] bool empty() const { return terms_.empty(); }

  void add(std::uint32_t index, gf::GF256 coeff) {
    if (!coeff.is_zero()) terms_.push_back({index, coeff});
  }
  /// Room for `n` terms, so a row built term by term allocates once.
  void reserve(std::size_t n) { terms_.reserve(n); }

  /// Evaluate over `inputs`, where inputs[t.index] must be a payload of
  /// size `payload_size` for every term t.
  [[nodiscard]] Payload apply(std::span<const Payload> inputs,
                              std::size_t payload_size) const;

  /// Arena path: evaluate into a fresh zeroed span from `arena` of size
  /// `payload_size`. Inputs are raw views (typically other arena spans).
  [[nodiscard]] ConstByteSpan apply(std::span<const ConstByteSpan> inputs,
                                    std::size_t payload_size,
                                    PayloadArena& arena) const;

  /// Dense coefficient row of width `universe` (index -> coefficient),
  /// used by the secrecy analysis.
  [[nodiscard]] std::vector<std::uint8_t> dense_row(std::size_t universe) const;

  /// Bytes this descriptor occupies inside an announcement: 2-byte count +
  /// 4-byte index + 1-byte coefficient per term (mirrors serialize.h).
  [[nodiscard]] std::size_t serialized_size() const {
    return 2 + terms_.size() * 5;
  }

  friend bool operator==(const Combination&, const Combination&) = default;

 private:
  std::vector<Term> terms_;
};

}  // namespace thinair::packet
