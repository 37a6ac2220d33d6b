#pragma once
// Strict numeric argument parsing.
//
// The CLI used to lean on strtoull/strtod, which quietly skip leading
// whitespace and accept a sign: `--threads -1` wrapped to 2^64 - 1,
// `--seed -1` silently ran a huge seed, and `--loss nan` served a channel
// that never erases. These parsers accept no whitespace, no sign, no
// trailing garbage and no out-of-range or non-finite value, and live in
// the library so they can be unit-tested (tests/cli_args_test.cpp).

#include <cstdint>
#include <string_view>

namespace thinair::util {

/// Parse `text` as a base-10 std::uint64_t. Returns false — leaving `out`
/// untouched — unless `text` is one or more decimal digits whose value
/// fits 64 bits.
[[nodiscard]] bool parse_u64(std::string_view text, std::uint64_t& out);

/// parse_u64 plus an inclusive [min, max] range check.
[[nodiscard]] bool parse_u64_in(std::string_view text, std::uint64_t min,
                                std::uint64_t max, std::uint64_t& out);

/// Parse `text` as a finite, non-negative decimal double ("0.25", "30",
/// "1e-3"). Returns false — leaving `out` untouched — on an empty string,
/// whitespace, a sign (so "-0" too), trailing garbage, "nan", "inf", hex
/// notation, or a value outside double's range.
[[nodiscard]] bool parse_nonneg_double(std::string_view text, double& out);

}  // namespace thinair::util
