// Wire-format round trips for the control messages the efficiency metric
// charges, and the decoders' totality on hostile input.
#include "packet/serialize.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <limits>
#include <new>
#include <optional>
#include <random>
#include <vector>

#include "fuzz_mutate.h"

// The largest single request made of the global operator new (replaced
// at the bottom of the file) since the test last reset it.
std::atomic<std::size_t> g_largest_alloc{0};

namespace thinair::packet {
namespace {

// The universe bound the daemon's sessions pass (kMaxUniverse).
constexpr std::uint32_t kMaxN = 4096;
constexpr std::uint32_t kAnyN = std::numeric_limits<std::uint32_t>::max();

TEST(Serialize, ReportRoundTrip) {
  const ReceptionReport r{10, {0, 3, 5, 9}};
  const Payload bytes = encode(r);
  const auto back = decode_report(bytes, kMaxN);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, r);
}

TEST(Serialize, ReportEmptyAndFull) {
  const ReceptionReport empty{8, {}};
  EXPECT_EQ(decode_report(encode(empty), kMaxN), empty);

  ReceptionReport full{8, {}};
  for (std::uint32_t i = 0; i < 8; ++i) full.received.push_back(i);
  EXPECT_EQ(decode_report(encode(full), kMaxN), full);
}

TEST(Serialize, ReportSizeIsBitmap) {
  const ReceptionReport r{90, {1, 2, 3}};
  // 4 bytes universe + ceil(90/8) = 12 bytes bitmap.
  EXPECT_EQ(encode(r).size(), 4u + 12u);
}

TEST(Serialize, ReportRejectsTruncated) {
  const Payload bytes = encode(ReceptionReport{16, {1}});
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const Payload trunc(bytes.begin(),
                        bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decode_report(trunc, kMaxN).has_value()) << "cut=" << cut;
  }
}

TEST(Serialize, ReportRejectsTrailingGarbage) {
  Payload bytes = encode(ReceptionReport{16, {1}});
  bytes.push_back(0xFF);
  EXPECT_FALSE(decode_report(bytes, kMaxN).has_value());
}

TEST(Serialize, ReportRejectsUniverseAboveTheBound) {
  const Payload bytes = encode(ReceptionReport{16, {1}});
  EXPECT_TRUE(decode_report(bytes, 16).has_value());
  EXPECT_FALSE(decode_report(bytes, 15).has_value());
}

TEST(Serialize, ReportRejectsWrappingUniverse) {
  // Universe 2^32 - 1: its bitmap size once wrapped to 0 bytes in 32-bit
  // arithmetic, the empty bitmap passed, and the index loop then read
  // past it (a null read, SEGV).
  const Payload wrap{0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_FALSE(decode_report(wrap, kMaxN).has_value());
  EXPECT_FALSE(decode_report(wrap, kAnyN).has_value());
}

TEST(Serialize, ReportRejectsPaddingBits) {
  // Universe 3 with padding bits 3-7 set was accepted and re-encoded as
  // 03 00 00 00 00: two byte strings decoded to one report.
  EXPECT_FALSE(decode_report(Payload{0x03, 0x00, 0x00, 0x00, 0xF8}, kMaxN)
                   .has_value());
  EXPECT_EQ(decode_report(Payload{0x03, 0x00, 0x00, 0x00, 0x07}, kMaxN),
            (ReceptionReport{3, {0, 1, 2}}));
}

TEST(Serialize, DecodersReserveNoMoreThanTheirInput) {
  // Universe 2^32 - 16 in 5 bytes: the report decoder once reserved its
  // 512 MiB bitmap before finding the input short.
  const Payload report{0xF0, 0xFF, 0xFF, 0xFF, 0x00};
  // 65535 combinations, then one combination of 65535 terms, with no
  // bytes behind either count.
  const Payload many_combinations{0xFF, 0xFF};
  const Payload many_terms{0x01, 0x00, 0xFF, 0xFF};
  g_largest_alloc = 0;
  EXPECT_FALSE(decode_report(report, kAnyN).has_value());
  EXPECT_FALSE(decode_announcement(many_combinations).has_value());
  EXPECT_FALSE(decode_announcement(many_terms).has_value());
  EXPECT_LE(g_largest_alloc.load(), 64u);
}

TEST(Serialize, AnnouncementRoundTrip) {
  Announcement a;
  Combination c1;
  c1.add(4, gf::GF256(0x53));
  c1.add(900, gf::GF256(0x01));
  Combination c2;
  c2.add(0, gf::GF256(0xFF));
  a.combinations = {c1, c2};

  const Payload bytes = encode(a);
  const auto back = decode_announcement(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, a);
}

TEST(Serialize, AnnouncementEmpty) {
  const Announcement a;
  const auto back = decode_announcement(encode(a));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->combinations.empty());
}

TEST(Serialize, AnnouncementSizeMatchesCombinationEstimate) {
  Announcement a;
  Combination c;
  c.add(1, gf::kOne);
  c.add(2, gf::kOne);
  c.add(3, gf::kOne);
  a.combinations = {c};
  EXPECT_EQ(encode(a).size(), 2u + c.serialized_size());
}

TEST(Serialize, AnnouncementRejectsTruncated) {
  Announcement a;
  Combination c;
  c.add(7, gf::GF256(2));
  a.combinations = {c, c};
  const Payload bytes = encode(a);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const Payload trunc(bytes.begin(),
                        bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decode_announcement(trunc).has_value()) << "cut=" << cut;
  }
}

// Valid encodings the fuzz below mutates.
std::vector<Payload> fuzz_corpus() {
  std::vector<Payload> corpus;
  for (const std::uint32_t n : {0u, 1u, 3u, 8u, 9u, 90u, 255u, 4096u}) {
    ReceptionReport r{n, {}};
    for (std::uint32_t i = 0; i < n; i += 1 + i % 3) r.received.push_back(i);
    corpus.push_back(encode(r));
  }
  Announcement a;
  corpus.push_back(encode(a));
  for (std::uint32_t c = 0; c < 40; ++c) {
    Combination comb;
    for (std::uint32_t t = 0; t <= c % 7; ++t)
      comb.add(c * 31 + t, gf::GF256(static_cast<std::uint8_t>(1 + c + t)));
    a.combinations.push_back(comb);
    if (c % 8 == 0) corpus.push_back(encode(a));
  }
  return corpus;
}

TEST(Serialize, DecoderFuzzIsTotalBoundedAndCanonical) {
  // Every mutant goes to both decoders. Each returns or rejects without
  // throwing, makes no single request of operator new above
  // kAllocPerByte bytes per input byte (a report's index vector is the
  // largest: under 16 indices of 4 bytes per bitmap byte), and an
  // accepted input re-encodes to its own bytes.
  constexpr std::size_t kMutants = 100000;
  constexpr std::size_t kAllocPerByte = 64;
  const std::vector<Payload> corpus = fuzz_corpus();
  std::mt19937_64 rng(20121029);
  std::size_t reports = 0, announcements = 0;
  for (std::size_t i = 0; i < kMutants; ++i) {
    Payload bytes = corpus[i % corpus.size()];
    for (std::size_t k = 1 + rng() % 3; k > 0; --k) test::mutate(bytes, rng);
    const std::size_t limit = kAllocPerByte * bytes.size();

    for (const std::uint32_t bound : {kMaxN, kAnyN}) {
      std::optional<ReceptionReport> r;
      g_largest_alloc = 0;
      try {
        r = decode_report(bytes, bound);
      } catch (const std::exception& e) {
        FAIL() << "decode_report threw " << e.what() << " on mutant " << i;
      }
      ASSERT_LE(g_largest_alloc.load(), limit) << "mutant " << i;
      if (r.has_value()) {
        ++reports;
        ASSERT_EQ(encode(*r), bytes) << "mutant " << i;
      }
    }

    std::optional<Announcement> a;
    g_largest_alloc = 0;
    try {
      a = decode_announcement(bytes);
    } catch (const std::exception& e) {
      FAIL() << "decode_announcement threw " << e.what() << " on mutant " << i;
    }
    ASSERT_LE(g_largest_alloc.load(), limit) << "mutant " << i;
    if (a.has_value()) {
      ++announcements;
      ASSERT_EQ(encode(*a), bytes) << "mutant " << i;
    }
  }
  // The mutants reach the accepting paths, not only the early rejects.
  EXPECT_GT(reports, kMutants / 100);
  EXPECT_GT(announcements, kMutants / 100);
}

}  // namespace
}  // namespace thinair::packet

// Records the largest request, then allocates as the default does. The
// pair is kept out of line: inlined, gcc sees malloc() and free() meet
// operator new and delete and warns (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  std::size_t seen = g_largest_alloc.load(std::memory_order_relaxed);
  while (n > seen && !g_largest_alloc.compare_exchange_weak(
                         seen, n, std::memory_order_relaxed)) {
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
