#pragma once
// Deterministic pseudo-random number generation.
//
// Every stochastic element of the simulation (packet payloads, erasure
// draws, placement sampling) draws from an explicitly passed Rng so that
// experiments are reproducible from a single seed. The generator is
// xoshiro256** seeded through splitmix64, which has excellent statistical
// quality and lets us fork independent streams cheaply.
//
// NOTE: this is a *simulation* RNG. A production deployment must source
// x-packet payloads from a cryptographically secure generator; the
// protocol's secrecy argument assumes the payloads are uniform and
// unpredictable.

#include <bit>
#include <cstdint>

namespace thinair::channel {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64-bit value. Inline with the two draws below: payload
  /// generation takes one per byte and the erasure model one per
  /// receiver per frame.
  std::uint64_t next_u64() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound) without modulo bias. Precondition: bound > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with success probability p (clamped to [0, 1]).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// Uniform byte.
  std::uint8_t next_byte() { return static_cast<std::uint8_t>(next_u64()); }

  /// A statistically independent generator derived from this one's stream;
  /// used to give each experiment its own stream.
  Rng fork();

 private:
  std::uint64_t s_[4];
};

}  // namespace thinair::channel
