#pragma once
// One seeded mutation of an encoded payload, shared by the decoder fuzz
// (serialize_test) and the hostile session member (netd_test): truncate,
// extend, flip bits, or splice a count (an extreme or random 16- or
// 32-bit value) over some offset.

#include <cstdint>
#include <iterator>
#include <random>
#include <vector>

namespace thinair::test {

inline void mutate(std::vector<std::uint8_t>& bytes, std::mt19937_64& rng) {
  switch (rng() % 4) {
    case 0:
      bytes.resize(rng() % (bytes.size() + 1));
      break;
    case 1:
      for (std::size_t k = 1 + rng() % 8; k > 0; --k)
        bytes.push_back(static_cast<std::uint8_t>(rng()));
      break;
    case 2:
      if (bytes.empty()) break;
      for (std::size_t k = 1 + rng() % 3; k > 0; --k)
        bytes[rng() % bytes.size()] ^=
            static_cast<std::uint8_t>(1u << (rng() % 8));
      break;
    default: {
      static constexpr std::uint32_t kCounts[] = {0, 1, 0xFF, 0xFFFF,
                                                  0xFFFFFFFF, 4096, 4097};
      const std::size_t width = rng() % 2 == 0 ? 2 : 4;
      if (bytes.size() < width) break;
      const std::uint32_t value =
          rng() % 2 == 0 ? kCounts[rng() % std::size(kCounts)]
                         : static_cast<std::uint32_t>(rng());
      const std::size_t at = rng() % (bytes.size() - width + 1);
      for (std::size_t i = 0; i < width; ++i)
        bytes[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
    }
  }
}

}  // namespace thinair::test
