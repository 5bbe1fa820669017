// Unit tests for PSD estimation: white level calibration, Parseval-style
// power integration, sinusoid detection, slope identification on known
// synthetic spectra.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/math_utils.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "noise/kasdin.hpp"
#include "stats/psd.hpp"

namespace {

using namespace ptrng;
using namespace ptrng::stats;

std::vector<double> white_series(std::size_t n, double sigma,
                                 std::uint64_t seed) {
  GaussianSampler g(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = sigma * g();
  return x;
}

TEST(Welch, WhiteNoiseLevelIsSigma2OverNyquist) {
  // One-sided white PSD = 2*sigma^2/fs, constant up to fs/2.
  const double fs = 1000.0;
  const double sigma = 3.0;
  const auto x = white_series(1 << 17, sigma, 1);
  const auto est = welch(x, fs, 1 << 10);
  const double level = psd_level(est, fs * 0.05, fs * 0.45);
  EXPECT_NEAR(level, 2.0 * sigma * sigma / fs, 0.05 * 2.0 * sigma * sigma / fs);
}

TEST(Welch, IntegralEqualsVariance) {
  const double fs = 100.0;
  const auto x = white_series(1 << 16, 2.0, 2);
  const auto est = welch(x, fs, 1 << 9);
  double power = 0.0;
  for (double s : est.psd) power += s * est.resolution_hz;
  EXPECT_NEAR(power, 4.0, 0.2);
}

TEST(Welch, ParallelSegmentsIdenticalForAnyThreadCount) {
  // The segment FFTs fan out one per chunk and the periodograms fold in
  // segment order, so every bin must be bit-identical at 1/2/8 threads.
  const auto x = white_series(1 << 15, 1.5, 7);
  auto run = [&](std::size_t width) {
    ThreadPool::global().resize(width);
    auto est = welch(x, 1000.0, 1 << 9, 0.5);
    ThreadPool::global().resize(0);
    return est;
  };
  const auto one = run(1);
  const auto two = run(2);
  const auto eight = run(8);
  ASSERT_EQ(one.psd.size(), two.psd.size());
  ASSERT_EQ(one.psd.size(), eight.psd.size());
  EXPECT_EQ(one.segments, eight.segments);
  for (std::size_t k = 0; k < one.psd.size(); ++k) {
    ASSERT_EQ(one.psd[k], two.psd[k]) << "bin " << k;
    ASSERT_EQ(one.psd[k], eight.psd[k]) << "bin " << k;
    ASSERT_EQ(one.frequency[k], eight.frequency[k]) << "bin " << k;
  }
}

TEST(Periodogram, FindsSinusoidPeak) {
  const double fs = 1000.0;
  const double f_tone = 125.0;
  std::vector<double> x(4096);
  GaussianSampler g(3);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(constants::two_pi * f_tone * static_cast<double>(i) / fs) +
           0.01 * g();
  const auto est = periodogram(x, fs);
  std::size_t peak = 0;
  for (std::size_t k = 1; k < est.psd.size(); ++k)
    if (est.psd[k] > est.psd[peak]) peak = k;
  EXPECT_NEAR(est.frequency[peak], f_tone, 2.0 * est.resolution_hz);
}

TEST(Welch, SegmentsCounted) {
  const auto x = white_series(1 << 14, 1.0, 4);
  const auto est = welch(x, 1.0, 1 << 10, 0.5);
  EXPECT_GT(est.segments, 20u);
}

TEST(PsdSlope, WhiteIsFlat) {
  const auto x = white_series(1 << 17, 1.0, 5);
  const auto est = welch(x, 1.0, 1 << 11);
  EXPECT_NEAR(psd_slope(est, 0.01, 0.4), 0.0, 0.05);
}

class SlopeSweep : public ::testing::TestWithParam<double> {};

TEST_P(SlopeSweep, SyntheticPowerLawSlopeRecovered) {
  // Kasdin 1/f^alpha noise: its exact PSD (2 sin(pi f/fs))^-alpha
  // follows f^-alpha across the fit band.
  const double alpha = GetParam();
  const double fs = 1.0;
  noise::KasdinFlicker::Config cfg;
  cfg.alpha = alpha;
  cfg.fs = fs;
  cfg.seed = 77 + static_cast<std::uint64_t>(alpha * 10);
  noise::KasdinFlicker gen(cfg);
  std::vector<double> x(1 << 18);
  gen.fill(x);
  const auto est = welch(x, fs, 1 << 12);
  const double slope = psd_slope(est, 1e-3, 0.2);
  EXPECT_NEAR(slope, -alpha, 0.1) << "alpha = " << alpha;
}

INSTANTIATE_TEST_SUITE_P(Alphas, SlopeSweep,
                         ::testing::Values(0.5, 1.0, 1.5, 2.0));

TEST(SidednessConversion, FactorOfTwo) {
  EXPECT_DOUBLE_EQ(one_sided_to_two_sided(4.0), 2.0);
  EXPECT_DOUBLE_EQ(two_sided_to_one_sided(2.0), 4.0);
}

}  // namespace
