// Distribution-quality tests for the 256-layer ziggurat sampler, the
// engine behind GaussianSampler. Bands follow the stat_tolerance.hpp
// conventions (z = 5 unless stated).
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "stat_tolerance.hpp"
#include "stats/normality.hpp"
#include "stats/special.hpp"

namespace {

using namespace ptrng;

constexpr double kZigguratR = 3.6541528853610088;  // 256-layer tail edge

std::vector<double> draw_block(std::uint64_t seed, std::size_t n) {
  GaussianSampler g(seed);
  std::vector<double> out(n);
  g.fill(out);
  return out;
}

TEST(Ziggurat, FillMatchesScalarExactly) {
  // fill() must be BIT-identical to stepping, including across
  // unaligned split boundaries (the ziggurat keeps no cross-draw
  // state, so any split must land on the same stream).
  GaussianSampler stepped(0x216);
  GaussianSampler batched(0x216);
  std::vector<double> expected(4097);
  for (auto& x : expected) x = stepped();
  std::vector<double> got(expected.size());
  batched.fill(std::span<double>(got).subspan(0, 37));
  batched.fill(std::span<double>(got).subspan(37, 1000));
  batched.fill(std::span<double>(got).subspan(1037));
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], expected[i]) << "sample " << i;
  // Lockstep continues after the batch.
  for (int i = 0; i < 100; ++i) EXPECT_EQ(batched(), stepped());
}

TEST(Ziggurat, MomentsMatchStandardNormal) {
  const std::size_t n = 1u << 22;
  const auto x = draw_block(0x2195, n);
  double s1 = 0, s2 = 0, s3 = 0, s4 = 0;
  for (double v : x) {
    s1 += v;
    s2 += v * v;
    s3 += v * v * v;
    s4 += v * v * v * v;
  }
  const double dn = static_cast<double>(n);
  EXPECT_NEAR(s1 / dn, 0.0, ptrng::testing::normal_raw_moment_tol(n, 1));
  EXPECT_NEAR(s2 / dn, 1.0, ptrng::testing::normal_raw_moment_tol(n, 2));
  EXPECT_NEAR(s3 / dn, 0.0, ptrng::testing::normal_raw_moment_tol(n, 3));
  EXPECT_NEAR(s4 / dn, 3.0, ptrng::testing::normal_raw_moment_tol(n, 4));
}

TEST(Ziggurat, KolmogorovSmirnovAndJarqueBera) {
  const auto x = draw_block(0x2196, 100000);
  EXPECT_FALSE(stats::ks_normal(x).reject(0.001));
  EXPECT_FALSE(stats::jarque_bera(x).reject(0.001));
}

TEST(Ziggurat, TailMassMatchesNormal) {
  // Exercises both rare paths: |x| > 3 crosses the wedge-heavy outer
  // layers, |x| > r can only come from the explicit Marsaglia tail
  // sampler (a broken tail path would zero this count).
  const std::size_t n = 4u << 20;
  const auto x = draw_block(0x2197, n);
  std::size_t beyond3 = 0, beyond_r = 0, positive = 0;
  for (double v : x) {
    if (std::abs(v) > 3.0) ++beyond3;
    if (std::abs(v) > kZigguratR) ++beyond_r;
    if (v > 0.0) ++positive;
  }
  const double p3 = 2.0 * (1.0 - stats::normal_cdf(3.0));
  const double pr = 2.0 * (1.0 - stats::normal_cdf(kZigguratR));
  EXPECT_NEAR(static_cast<double>(beyond3), static_cast<double>(n) * p3,
              ptrng::testing::count_tol(n, p3));
  EXPECT_NEAR(static_cast<double>(beyond_r), static_cast<double>(n) * pr,
              ptrng::testing::count_tol(n, pr));
  // Sign symmetry (the sign bit is independent of the magnitude).
  EXPECT_NEAR(static_cast<double>(positive), static_cast<double>(n) * 0.5,
              ptrng::testing::count_tol(n, 0.5));
}

}  // namespace
