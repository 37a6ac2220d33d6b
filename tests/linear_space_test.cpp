// Incremental row-space maintenance — the engine of the secrecy analysis.
#include "gf/linear_space.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "gf/mds.h"

namespace thinair::gf {
namespace {

std::vector<std::uint8_t> vec(std::initializer_list<unsigned> vs) {
  std::vector<std::uint8_t> out;
  for (unsigned v : vs) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

TEST(LinearSpace, StartsEmpty) {
  const LinearSpace s(5);
  EXPECT_EQ(s.rank(), 0u);
  EXPECT_EQ(s.dim(), 5u);
}

TEST(LinearSpace, InsertIndependentGrowsRank) {
  LinearSpace s(3);
  EXPECT_TRUE(s.insert(vec({1, 0, 0})));
  EXPECT_TRUE(s.insert(vec({0, 1, 0})));
  EXPECT_EQ(s.rank(), 2u);
}

TEST(LinearSpace, InsertDependentReturnsFalse) {
  LinearSpace s(3);
  EXPECT_TRUE(s.insert(vec({1, 2, 3})));
  EXPECT_TRUE(s.insert(vec({0, 1, 1})));
  // 1*(1,2,3) + 2*(0,1,1): over GF(2^8), 2*(0,1,1) = (0,2,2), sum (1,0,1).
  EXPECT_FALSE(s.insert(vec({1, 0, 1})));
  EXPECT_EQ(s.rank(), 2u);
}

TEST(LinearSpace, ZeroVectorNeverGrows) {
  LinearSpace s(4);
  EXPECT_FALSE(s.insert(vec({0, 0, 0, 0})));
}

TEST(LinearSpace, WrongLengthThrows) {
  LinearSpace s(3);
  EXPECT_THROW((void)s.insert(vec({1, 2})), std::invalid_argument);
  EXPECT_THROW((void)s.contains(vec({1, 2, 3, 4})), std::invalid_argument);
}

TEST(LinearSpace, InsertUnitAndContains) {
  LinearSpace s(4);
  EXPECT_TRUE(s.insert_unit(2));
  EXPECT_TRUE(s.contains(vec({0, 0, 7, 0})));   // scaled unit
  EXPECT_FALSE(s.contains(vec({1, 0, 0, 0})));
  EXPECT_THROW((void)s.insert_unit(9), std::out_of_range);
}

TEST(LinearSpace, RankNeverExceedsDim) {
  LinearSpace s(3);
  const Matrix m = mds::vandermonde(3, 3).vstack(mds::cauchy(2, 3));
  s.insert_rows(m);
  EXPECT_EQ(s.rank(), 3u);
}

TEST(LinearSpace, InsertRowsCountsIndependentOnes) {
  LinearSpace s(4);
  Matrix m(3, 4);
  m.set(0, 0, kOne);
  m.set(1, 0, GF256(3));  // dependent on row 0
  m.set(2, 1, kOne);
  EXPECT_EQ(s.insert_rows(m), 2u);
}

TEST(LinearSpace, ResidualRankIsEquivocation) {
  LinearSpace s(4);
  EXPECT_TRUE(s.insert_unit(0));
  Matrix secret(2, 4);
  secret.set(0, 0, kOne);  // fully known given unit 0
  secret.set(1, 3, kOne);  // unknown
  EXPECT_EQ(s.residual_rank(secret), 1u);
  // Residual queries must not mutate the space.
  EXPECT_EQ(s.rank(), 1u);
}

TEST(LinearSpace, ResidualRankZeroWhenContained) {
  LinearSpace s(3);
  EXPECT_TRUE(s.insert(vec({1, 1, 0})));
  EXPECT_TRUE(s.insert(vec({0, 1, 1})));
  Matrix m(1, 3);
  m.set(0, 0, kOne);
  m.set(0, 2, kOne);  // (1,0,1) = (1,1,0)+(0,1,1)
  EXPECT_EQ(s.residual_rank(m), 0u);
}

TEST(LinearSpace, BasisIsRowReducedAndSpansInserted) {
  LinearSpace s(4);
  EXPECT_TRUE(s.insert(vec({2, 4, 6, 8})));
  EXPECT_TRUE(s.insert(vec({0, 0, 5, 5})));
  const Matrix b = s.basis();
  EXPECT_EQ(b.rows(), 2u);
  EXPECT_TRUE(s.contains(vec({2, 4, 6, 8})));
  EXPECT_TRUE(s.contains(vec({0, 0, 5, 5})));
  // Basis rows are normalised: leading entries are 1.
  EXPECT_EQ(b.at(0, 0), kOne);
  EXPECT_EQ(b.at(1, 2), kOne);
}

// Regression for the shared gather-path elimination (reduce() now batches
// basis rows through dot_multi, reading every coefficient up front):
// inserting rows dependent on the existing basis must never grow it, in
// any insertion order, including rows that mix many basis rows at once.
TEST(LinearSpace, DependentInsertsNeverGrowBasis) {
  const std::size_t dim = 24;
  const Matrix g = mds::vandermonde(10, dim);
  LinearSpace s(dim);
  EXPECT_EQ(s.insert_rows(g), 10u);

  // Every GF(2^8)-combination of basis rows reduces to zero — try dense
  // combinations touching all 10 rows (the fused path flushes two full
  // kMaxFusedRows blocks here), sparse ones, and scaled single rows.
  for (unsigned trial = 0; trial < 32; ++trial) {
    std::vector<std::uint8_t> v(dim, 0);
    for (std::size_t r = 0; r < g.rows(); ++r) {
      const auto c = GF256(static_cast<std::uint8_t>(
          (trial * 37 + r * 11 + 1) % 256));
      if (trial % 3 == 1 && r % 2 == 0) continue;  // sparse mixes
      for (std::size_t j = 0; j < dim; ++j)
        v[j] = (GF256(v[j]) + c * g.at(r, j)).value();
    }
    EXPECT_FALSE(s.insert(v)) << "trial " << trial;
    EXPECT_EQ(s.rank(), 10u);
  }
  // The basis stays fully reduced: re-inserting its own rows is a no-op.
  const Matrix b = s.basis();
  for (std::size_t i = 0; i < b.rows(); ++i) EXPECT_FALSE(s.insert(b.row(i)));
}

// Rank queries must be observably side-effect-free: residual_rank and
// contains leave basis bytes, rank and pivot structure untouched.
TEST(LinearSpace, RankQueriesAreSideEffectFree) {
  const std::size_t dim = 16;
  LinearSpace s(dim);
  s.insert_rows(mds::vandermonde(5, dim));
  const Matrix before = s.basis();

  const Matrix probe = mds::cauchy(7, dim);
  const std::size_t r1 = s.residual_rank(probe);
  const std::size_t r2 = s.residual_rank(probe);
  EXPECT_EQ(r1, r2);  // repeatable
  EXPECT_EQ(r1, before.vstack(probe).rank() - before.rows());
  (void)s.contains(probe.row(0));
  EXPECT_EQ(s.rank(), 5u);
  EXPECT_EQ(s.basis(), before);

  // residual_rank caps at dim - rank regardless of how many probe rows
  // arrive (the fresh-candidate elimination half of the shared path).
  const Matrix wide = mds::vandermonde(dim, dim);
  EXPECT_EQ(s.residual_rank(wide), dim - 5u);
  EXPECT_EQ(s.basis(), before);
}

// Cross-check the gather-based elimination against dense rank: for
// random row sets, rank(space) computed incrementally must equal
// Matrix::rank of the stacked rows, and residual_rank must equal
// rank([basis; m]) - rank(basis).
TEST(LinearSpace, AgreesWithDenseRankArithmetic) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::size_t dim = 20;
    Matrix rows(12, dim);
    // Deterministic pseudo-random fill with plenty of dependent rows.
    std::uint64_t state = seed * 0x9E3779B97F4A7C15ull;
    const auto next = [&state] {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return static_cast<std::uint8_t>(state >> 32);
    };
    for (std::size_t i = 0; i < rows.rows(); ++i) {
      if (i >= 6 && next() % 2 == 0) {
        // Copy a scaled earlier row: guaranteed dependent.
        const GF256 c(static_cast<std::uint8_t>(next() | 1));
        for (std::size_t j = 0; j < dim; ++j)
          rows.set(i, j, c * rows.at(i % 6, j));
        continue;
      }
      for (std::size_t j = 0; j < dim; ++j)
        rows.set(i, j, GF256(next() % 4 == 0 ? next() : 0));
    }
    LinearSpace s(dim);
    s.insert_rows(rows);
    EXPECT_EQ(s.rank(), rows.rank()) << "seed " << seed;

    const Matrix probe = mds::vandermonde(5, dim);
    const std::size_t expect =
        s.basis().vstack(probe).rank() - s.rank();
    EXPECT_EQ(s.residual_rank(probe), expect) << "seed " << seed;
  }
}

// Property: inserting the rows of an MDS generator one by one grows rank
// by exactly one each time (they are always independent).
class MdsInsertSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MdsInsertSweep, GeneratorRowsAllIndependent) {
  const std::size_t k = GetParam();
  const Matrix g = mds::vandermonde(k, 10);
  LinearSpace s(10);
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_TRUE(s.insert(g.row(i)));
    EXPECT_EQ(s.rank(), i + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, MdsInsertSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 10u));

// ------------------------------------------ differential vs textbook

using Row = std::vector<std::uint8_t>;

// Textbook incremental Gauss-Jordan elimination on the scalar GF256
// operators alone — no kernels, no LinearSpace, no unit special case.
// Rows stay in reduced row-echelon form, sorted by pivot column. An
// independent oracle for any rank or span question over GF(2^8).
class TextbookSpace {
 public:
  explicit TextbookSpace(std::size_t dim) : dim_(dim) {}

  [[nodiscard]] std::size_t rank() const { return rows_.size(); }
  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }

  // v minus its components along every row; zero iff v is in the span.
  [[nodiscard]] Row reduced(Row v) const {
    for (const Row& r : rows_) {
      const GF256 c(v[pivot_of(r)]);
      for (std::size_t j = 0; j < dim_; ++j)
        v[j] = (GF256(v[j]) - c * GF256(r[j])).value();
    }
    return v;
  }

  [[nodiscard]] bool contains(const Row& v) const {
    return pivot_of(reduced(v)) == dim_;
  }

  bool insert(const Row& v) {
    Row w = reduced(v);
    const std::size_t p = pivot_of(w);
    if (p == dim_) return false;
    const GF256 inv = GF256(w[p]).inv();
    for (std::uint8_t& x : w) x = (GF256(x) * inv).value();
    for (Row& r : rows_) {
      const GF256 c(r[p]);
      for (std::size_t j = 0; j < dim_; ++j)
        r[j] = (GF256(r[j]) - c * GF256(w[j])).value();
    }
    rows_.push_back(std::move(w));
    std::sort(rows_.begin(), rows_.end(), [this](const Row& a, const Row& b) {
      return pivot_of(a) < pivot_of(b);
    });
    return true;
  }

  [[nodiscard]] std::size_t pivot_of(const Row& v) const {
    for (std::size_t j = 0; j < dim_; ++j)
      if (v[j] != 0) return j;
    return dim_;
  }

 private:
  std::size_t dim_;
  std::vector<Row> rows_;
};

Row unit(std::size_t dim, std::size_t index) {
  Row v(dim, 0);
  v[index] = 1;
  return v;
}

bool is_unit(const Row& v) {
  return std::count(v.begin(), v.end(), std::uint8_t{0}) + 1 ==
             static_cast<std::ptrdiff_t>(v.size()) &&
         std::count(v.begin(), v.end(), std::uint8_t{1}) == 1;
}

// Seeded random sequences of insert / insert_unit checked against the
// textbook oracle after every step: the return value and rank(), then
// contains(), residual_rank() and basis() (which must equal the unique
// reduced row-echelon form). Five shapes cover the unit-mask paths:
// units before dense rows, dense rows before units, interleaved (with
// units aimed at dense pivot columns), duplicates, and filling to full
// rank.
TEST(LinearSpace, MatchesTextbookEliminationOnRandomSequences) {
  std::mt19937_64 rng(20121029);
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const auto byte = [&rng] { return static_cast<std::uint8_t>(rng()); };

  for (std::size_t seq = 0; seq < 2000; ++seq) {
    const std::size_t dim = 1 + below(64);
    const std::size_t shape = seq % 5;
    LinearSpace space(dim);
    TextbookSpace ref(dim);
    std::vector<Row> inserted;

    // Sparse dense rows keep the space from filling at once; a mix of
    // already-inserted rows is dependent by construction.
    const auto random_row = [&] {
      Row v(dim, 0);
      const std::size_t density = 1 + below(4);
      for (std::uint8_t& x : v)
        if (below(density) == 0) x = byte();
      if (!inserted.empty() && below(4) == 0) {
        std::fill(v.begin(), v.end(), std::uint8_t{0});
        for (int k = 0; k < 3; ++k) {
          const Row& r = inserted[below(inserted.size())];
          const GF256 c(byte());
          for (std::size_t j = 0; j < dim; ++j)
            v[j] = (GF256(v[j]) + c * GF256(r[j])).value();
        }
      }
      return v;
    };
    const auto step_unit = [&](std::size_t index) {
      const Row u = unit(dim, index);
      ASSERT_EQ(space.insert_unit(index), ref.insert(u))
          << "seq " << seq << " unit " << index;
      inserted.push_back(u);
    };
    const auto step_dense = [&](const Row& v) {
      ASSERT_EQ(space.insert(v), ref.insert(v)) << "seq " << seq;
      inserted.push_back(v);
    };
    // A unit at a column where a non-unit row of the oracle leads: the
    // insert_unit path that must fall back to general elimination.
    const auto step_unit_on_pivot = [&] {
      std::vector<std::size_t> pivots;
      for (const Row& r : ref.rows())
        if (!is_unit(r)) pivots.push_back(ref.pivot_of(r));
      step_unit(pivots.empty() ? below(dim) : pivots[below(pivots.size())]);
    };

    const std::size_t steps = 1 + below(2 * dim);
    for (std::size_t i = 0; i < steps; ++i) {
      switch (shape) {
        case 0:  // units, then dense rows
          if (i < steps / 2) step_unit(below(dim));
          else step_dense(random_row());
          break;
        case 1:  // dense rows, then units
          if (i < steps / 2) step_dense(random_row());
          else step_unit(below(dim));
          break;
        case 2:  // interleaved, units aimed at dense pivots
          if (below(3) == 0) step_unit_on_pivot();
          else if (below(2) == 0) step_unit(below(dim));
          else step_dense(random_row());
          break;
        case 3:  // duplicates of earlier inserts, either kind
          if (!inserted.empty() && below(2) == 0) {
            const Row again = inserted[below(inserted.size())];
            if (is_unit(again)) step_unit(ref.pivot_of(again));
            else step_dense(again);
          } else if (below(2) == 0) {
            step_unit(below(dim));
          } else {
            step_dense(random_row());
          }
          break;
        default:  // to full rank and past it
          if (below(2) == 0) step_unit(below(dim));
          else step_dense(random_row());
          break;
      }
      if (::testing::Test::HasFatalFailure()) return;
      ASSERT_EQ(space.rank(), ref.rank()) << "seq " << seq << " step " << i;
    }
    if (shape == 4)
      for (std::size_t j = 0; j < dim; ++j) step_unit(j);
    if (::testing::Test::HasFatalFailure()) return;

    // basis() is the unique reduced row-echelon form of the span.
    const Matrix basis = space.basis();
    ASSERT_EQ(basis.rows(), ref.rank()) << "seq " << seq;
    for (std::size_t r = 0; r < basis.rows(); ++r) {
      const auto got = basis.row(r);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), ref.rows()[r].begin()))
          << "seq " << seq << " basis row " << r;
    }

    for (int k = 0; k < 4; ++k) {
      const Row v = random_row();
      EXPECT_EQ(space.contains(v), ref.contains(v)) << "seq " << seq;
    }

    Matrix probe(below(dim + 1), dim);
    for (std::size_t r = 0; r < probe.rows(); ++r) {
      const Row v = random_row();
      std::copy(v.begin(), v.end(), probe.row(r).begin());
    }
    TextbookSpace joined = ref;
    for (std::size_t r = 0; r < probe.rows(); ++r)
      joined.insert(Row(probe.row(r).begin(), probe.row(r).end()));
    EXPECT_EQ(space.residual_rank(probe), joined.rank() - ref.rank())
        << "seq " << seq;
    if (shape == 4) {
      EXPECT_EQ(space.rank(), dim) << "seq " << seq;
    }
  }
}

}  // namespace
}  // namespace thinair::gf
