// The strict CLI numeric parsers (util/parse.h): the regression suite for
// the `--threads -1` wraparound bug and the `--loss nan` channel.
// strtoull/strtod-style leniency — skipped whitespace, sign prefixes,
// trailing garbage, silent 64-bit wraparound, non-finite values — must all
// be rejected.
#include "util/parse.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace thinair {
namespace {

TEST(ParseU64, AcceptsPlainDecimal) {
  std::uint64_t v = 99;
  EXPECT_TRUE(util::parse_u64("0", v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(util::parse_u64("42", v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(util::parse_u64("007", v));
  EXPECT_EQ(v, 7u);
  EXPECT_TRUE(util::parse_u64("18446744073709551615", v));  // 2^64 - 1
  EXPECT_EQ(v, std::numeric_limits<std::uint64_t>::max());
}

TEST(ParseU64, RejectsSignsTheWraparoundBug) {
  // strtoull parses "-1" as 2^64 - 1; that must never get through.
  std::uint64_t v = 123;
  EXPECT_FALSE(util::parse_u64("-1", v));
  EXPECT_FALSE(util::parse_u64("-0", v));
  EXPECT_FALSE(util::parse_u64("+1", v));
  EXPECT_FALSE(util::parse_u64("+", v));
  EXPECT_FALSE(util::parse_u64("-", v));
  EXPECT_EQ(v, 123u) << "failed parse must not clobber the output";
}

TEST(ParseU64, RejectsGarbageWhitespaceAndEmpty) {
  std::uint64_t v = 0;
  EXPECT_FALSE(util::parse_u64("", v));
  EXPECT_FALSE(util::parse_u64("banana", v));
  EXPECT_FALSE(util::parse_u64("12x", v));
  EXPECT_FALSE(util::parse_u64("x12", v));
  EXPECT_FALSE(util::parse_u64(" 12", v));
  EXPECT_FALSE(util::parse_u64("12 ", v));
  EXPECT_FALSE(util::parse_u64("1 2", v));
  EXPECT_FALSE(util::parse_u64("0x10", v));
  EXPECT_FALSE(util::parse_u64("1e3", v));
  EXPECT_FALSE(util::parse_u64("1.0", v));
}

TEST(ParseU64, RejectsOverflow) {
  std::uint64_t v = 7;
  EXPECT_FALSE(util::parse_u64("18446744073709551616", v));  // 2^64
  EXPECT_FALSE(util::parse_u64("99999999999999999999", v));
  EXPECT_FALSE(util::parse_u64("340282366920938463463374607431768211456", v));
  EXPECT_EQ(v, 7u);
}

TEST(ParseU64In, EnforcesInclusiveBounds) {
  std::uint64_t v = 9;
  EXPECT_TRUE(util::parse_u64_in("0", 0, 1024, v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(util::parse_u64_in("1024", 0, 1024, v));
  EXPECT_EQ(v, 1024u);
  EXPECT_FALSE(util::parse_u64_in("1025", 0, 1024, v));
  EXPECT_FALSE(util::parse_u64_in("2", 3, 10, v));
  EXPECT_FALSE(util::parse_u64_in("-1", 0, 1024, v));
  EXPECT_FALSE(util::parse_u64_in("18446744073709551615", 0, 1024, v));
  EXPECT_EQ(v, 1024u) << "failed parse must not clobber the output";
}

TEST(ParseNonnegDouble, AcceptsFiniteNonNegativeDecimals) {
  double v = -1.0;
  EXPECT_TRUE(util::parse_nonneg_double("0", v));
  EXPECT_EQ(v, 0.0);
  EXPECT_TRUE(util::parse_nonneg_double("0.25", v));
  EXPECT_EQ(v, 0.25);
  EXPECT_TRUE(util::parse_nonneg_double("30", v));
  EXPECT_EQ(v, 30.0);
  EXPECT_TRUE(util::parse_nonneg_double("1e-3", v));
  EXPECT_EQ(v, 1e-3);
  EXPECT_TRUE(util::parse_nonneg_double(".5", v));
  EXPECT_EQ(v, 0.5);
}

// `--loss nan` used to serve a channel that never erases, and a NaN idle
// timeout fed an undefined double-to-integer cast.
TEST(ParseNonnegDouble, RejectsNanAndInfinity) {
  double v = 7.0;
  EXPECT_FALSE(util::parse_nonneg_double("nan", v));
  EXPECT_FALSE(util::parse_nonneg_double("NaN", v));
  EXPECT_FALSE(util::parse_nonneg_double("-nan", v));
  EXPECT_FALSE(util::parse_nonneg_double("inf", v));
  EXPECT_FALSE(util::parse_nonneg_double("infinity", v));
  EXPECT_FALSE(util::parse_nonneg_double("1e400", v));  // overflows to inf
  EXPECT_EQ(v, 7.0) << "a rejected parse must leave out untouched";
}

TEST(ParseNonnegDouble, RejectsSignsGarbageWhitespaceAndEmpty) {
  double v = 7.0;
  EXPECT_FALSE(util::parse_nonneg_double("", v));
  EXPECT_FALSE(util::parse_nonneg_double("-1", v));
  EXPECT_FALSE(util::parse_nonneg_double("-0", v));
  EXPECT_FALSE(util::parse_nonneg_double("+1", v));
  EXPECT_FALSE(util::parse_nonneg_double(" 1", v));
  EXPECT_FALSE(util::parse_nonneg_double("1 ", v));
  EXPECT_FALSE(util::parse_nonneg_double("1.5s", v));
  EXPECT_FALSE(util::parse_nonneg_double("0x10", v));
  EXPECT_FALSE(util::parse_nonneg_double("banana", v));
  EXPECT_EQ(v, 7.0);
}

}  // namespace
}  // namespace thinair
