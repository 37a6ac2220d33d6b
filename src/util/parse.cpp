#include "util/parse.h"

#include <charconv>
#include <cmath>
#include <limits>
#include <system_error>

namespace thinair::util {

bool parse_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty()) return false;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t v = 0;
  for (const char ch : text) {
    if (ch < '0' || ch > '9') return false;
    const std::uint64_t d = static_cast<std::uint64_t>(ch - '0');
    if (v > (kMax - d) / 10) return false;  // would overflow
    v = v * 10 + d;
  }
  out = v;
  return true;
}

bool parse_u64_in(std::string_view text, std::uint64_t min, std::uint64_t max,
                  std::uint64_t& out) {
  std::uint64_t v = 0;
  if (!parse_u64(text, v) || v < min || v > max) return false;
  out = v;
  return true;
}

bool parse_nonneg_double(std::string_view text, double& out) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || std::signbit(v) || !std::isfinite(v))
    return false;
  out = v;
  return true;
}

}  // namespace thinair::util
