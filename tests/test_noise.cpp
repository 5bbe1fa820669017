// Unit tests for the noise generators: PSD calibration of the filter-bank
// flicker engine and the Kasdin oracle, stationarity, power-law model
// bookkeeping.
#include <gtest/gtest.h>

#include "ignore_result.hpp"

#include <cmath>
#include <vector>

#include "common/contracts.hpp"
#include "noise/filter_bank.hpp"
#include "noise/kasdin.hpp"
#include "noise/psd_model.hpp"
#include "noise/white.hpp"
#include "stats/descriptive.hpp"
#include "stats/psd.hpp"
#include "stat_tolerance.hpp"

namespace {

using ptrng::test::ignore_result;

using namespace ptrng;
using namespace ptrng::noise;

std::vector<double> collect(NoiseSource& src, std::size_t n) {
  std::vector<double> out(n);
  src.fill(out);
  return out;
}

TEST(WhiteGaussian, MomentsAndPsdLevel) {
  WhiteGaussianNoise src(2.0, 1000.0, 1);
  const auto x = collect(src, 1 << 17);
  stats::RunningStats rs;
  for (double v : x) rs.add(v);
  EXPECT_NEAR(rs.mean(), 0.0, 0.03);
  EXPECT_NEAR(rs.variance(), 4.0, 0.1);
  EXPECT_DOUBLE_EQ(src.psd_two_sided(), 4.0 / 1000.0);

  const auto est = stats::welch(x, 1000.0, 1 << 10);
  const double level = stats::psd_level(est, 50.0, 450.0);
  // one-sided estimate = 2 x two-sided.
  EXPECT_NEAR(level, 2.0 * src.psd_two_sided(),
              0.05 * 2.0 * src.psd_two_sided());
}

TEST(WhiteGaussian, RejectsBadParams) {
  EXPECT_THROW(WhiteGaussianNoise(-1.0, 1.0, 1), ContractViolation);
  EXPECT_THROW(WhiteGaussianNoise(1.0, 0.0, 1), ContractViolation);
}

TEST(FilterBankFlicker, AnalyticPsdTracksTarget) {
  FilterBankFlicker::Config cfg;
  cfg.amplitude = 2.5e-3;
  cfg.fs = 1.0;
  cfg.f_min = 1e-5;
  cfg.f_max = 0.25;
  cfg.stages_per_decade = 3;
  FilterBankFlicker src(cfg);
  // In-band, the Lorentzian sum should match amplitude/f within ~15%.
  for (double f : {1e-4, 1e-3, 1e-2, 0.1}) {
    const double a = src.analytic_psd(f);
    const double t = src.target_psd(f);
    EXPECT_NEAR(a / t, 1.0, 0.15) << "f = " << f;
  }
}

TEST(FilterBankFlicker, GateLevelBandCalibratesFinite) {
  // A gate-level bank: stage-transition rate ~280 GHz with a 100 Hz
  // floor, ~9.4 decades. The lowest stage poles sit ~2e-9 below 1,
  // where the expanded AR(1) PSD denominator cancels to 0; the gain
  // must still calibrate finite and track amplitude/f in band.
  FilterBankFlicker::Config cfg;
  cfg.amplitude = 3e-36;
  cfg.fs = 1.0 / 3.5657e-12;
  cfg.f_min = 100.0;
  cfg.f_max = cfg.fs / 4.0;
  FilterBankFlicker src(cfg);
  EXPECT_TRUE(std::isfinite(src.stationary_sd()));
  EXPECT_GT(src.stationary_sd(), 0.0);
  for (double f : {1e3, 1e5, 1e7, 1e9}) {
    EXPECT_NEAR(src.analytic_psd(f) / src.target_psd(f), 1.0, 0.15)
        << "f = " << f;
  }
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(std::isfinite(src.next()));
}

TEST(FilterBankFlicker, StationarySdMatchesFirstSampleSpread) {
  // Every stage starts in its stationary law, so the first sample of
  // many independently seeded banks has variance stationary_sd()^2.
  FilterBankFlicker::Config cfg;
  cfg.amplitude = 1e-2;
  cfg.fs = 1.0;
  cfg.f_min = 1e-4;
  cfg.f_max = 0.25;
  const std::size_t banks = 4000;
  stats::RunningStats first;
  double sd = 0.0;
  for (std::size_t i = 0; i < banks; ++i) {
    cfg.seed = 0x5d00 + i;
    FilterBankFlicker src(cfg);
    sd = src.stationary_sd();
    first.add(src.next());
  }
  EXPECT_NEAR(first.variance() / (sd * sd), 1.0,
              ptrng::testing::variance_ratio_tol(banks));
}

TEST(FilterBankFlicker, MeasuredPsdMatchesAnalytic) {
  FilterBankFlicker::Config cfg;
  cfg.amplitude = 1e-2;
  cfg.fs = 1.0;
  cfg.f_min = 1e-4;
  cfg.f_max = 0.25;
  cfg.seed = 2;
  FilterBankFlicker src(cfg);
  const auto x = collect(src, 1 << 19);
  const auto est = stats::welch(x, 1.0, 1 << 13);
  for (double f : {1e-3, 1e-2, 0.1}) {
    // Interpolate estimate around f.
    const double measured = stats::psd_level(est, f * 0.8, f * 1.25);
    const double analytic = 2.0 * src.analytic_psd(f);  // one-sided
    EXPECT_NEAR(measured / analytic, 1.0, 0.3) << "f = " << f;
  }
}

TEST(FilterBankFlicker, MeasuredSlopeIsMinusOne) {
  FilterBankFlicker::Config cfg;
  cfg.amplitude = 1.0;
  cfg.fs = 1.0;
  cfg.f_min = 1e-5;
  cfg.f_max = 0.25;
  cfg.seed = 3;
  FilterBankFlicker src(cfg);
  const auto x = collect(src, 1 << 19);
  const auto est = stats::welch(x, 1.0, 1 << 13);
  EXPECT_NEAR(stats::psd_slope(est, 1e-3, 0.1), -1.0, 0.15);
}

TEST(FilterBankFlicker, FillMatchesSteppedNextExactly) {
  // The batched fill() is the production fast path for every oscillator;
  // it must be BIT-identical to stepping, not merely statistically
  // equivalent. The total exceeds twice fill()'s internal 8192-sample
  // staging block, so one call crosses the in-call block boundary, and
  // the unaligned split re-enters mid-block.
  FilterBankFlicker::Config cfg;
  cfg.amplitude = 1e-2;
  cfg.fs = 1.0;
  cfg.f_min = 1e-4;
  cfg.f_max = 0.25;
  cfg.seed = 0xf111;
  FilterBankFlicker stepped(cfg), batched(cfg);

  std::vector<double> expected(8192 * 2 + 777);
  for (auto& x : expected) x = stepped.next();

  // Split the fill into unaligned pieces: 37 + 3000 + remainder (the
  // remainder spans > 8192 samples => internal block crossing).
  std::vector<double> got(expected.size());
  batched.fill(std::span<double>(got).subspan(0, 37));
  batched.fill(std::span<double>(got).subspan(37, 3000));
  batched.fill(std::span<double>(got).subspan(3037));
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], expected[i]) << "sample " << i;

  // Both generators must stay in lockstep afterwards.
  for (int i = 0; i < 100; ++i) EXPECT_EQ(batched.next(), stepped.next());
}

TEST(FilterBankFlicker, FillComposesWithAdvanceSum) {
  // advance_sum consumes exactly two draws per stage from the same
  // per-stage streams, so interleaving it with fill() vs with looped
  // next() must keep the two generators bit-identical.
  FilterBankFlicker::Config cfg;
  cfg.amplitude = 1.0;
  cfg.fs = 1.0;
  cfg.f_min = 1e-3;
  cfg.f_max = 0.25;
  cfg.seed = 0xf112;
  FilterBankFlicker stepped(cfg), batched(cfg);

  for (int round = 0; round < 5; ++round) {
    const std::size_t n = 100 + static_cast<std::size_t>(round) * 501;
    std::vector<double> expected(n), got(n);
    for (auto& x : expected) x = stepped.next();
    batched.fill(got);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(got[i], expected[i]) << "round " << round << " sample " << i;
    EXPECT_EQ(batched.advance_sum(64), stepped.advance_sum(64))
        << "round " << round;
  }
}

TEST(WhiteGaussian, FillMatchesSteppedNextExactly) {
  WhiteGaussianNoise stepped(2.0, 1000.0, 0x77), batched(2.0, 1000.0, 0x77);
  std::vector<double> expected(1000);
  for (auto& x : expected) x = stepped.next();
  std::vector<double> got(expected.size());
  batched.fill(got);
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], expected[i]);
}

TEST(FilterBankFlicker, StationaryFromFirstSample) {
  // Variance over the first 1000 samples should match variance over a
  // late window (states start in stationary distribution).
  FilterBankFlicker::Config cfg;
  cfg.amplitude = 1.0;
  cfg.fs = 1.0;
  cfg.f_min = 1e-3;
  cfg.f_max = 0.25;
  cfg.seed = 4;
  FilterBankFlicker src(cfg);
  const auto x = collect(src, 200'000);
  stats::RunningStats early, late;
  for (std::size_t i = 0; i < 50'000; ++i) early.add(x[i]);
  for (std::size_t i = 150'000; i < 200'000; ++i) late.add(x[i]);
  EXPECT_NEAR(early.variance() / late.variance(), 1.0, 0.35);
}

TEST(KasdinFlicker, AnalyticPsdAtLowFrequency) {
  KasdinFlicker::Config cfg;
  cfg.alpha = 1.0;
  cfg.sigma_w = KasdinFlicker::sigma_w_for_amplitude(1.0);
  cfg.fs = 1.0;
  KasdinFlicker src(cfg);
  // Exact discrete PSD -> amplitude/f for f << fs.
  for (double f : {1e-4, 1e-3, 1e-2}) {
    EXPECT_NEAR(src.analytic_psd(f) * f, 1.0, 0.05) << "f = " << f;
  }
}

TEST(KasdinFlicker, MeasuredSlopeMatchesAlpha) {
  for (double alpha : {0.5, 1.0, 1.5}) {
    KasdinFlicker::Config cfg;
    cfg.alpha = alpha;
    cfg.sigma_w = 1.0;
    cfg.fs = 1.0;
    cfg.fir_length = 1 << 13;
    cfg.seed = 5 + static_cast<std::uint64_t>(alpha * 2);
    KasdinFlicker src(cfg);
    const auto x = collect(src, 1 << 18);
    const auto est = stats::welch(x, 1.0, 1 << 12);
    EXPECT_NEAR(stats::psd_slope(est, 2e-3, 0.1), -alpha, 0.12)
        << "alpha = " << alpha;
  }
}

TEST(KasdinFlicker, BlockGenerationIsSeamless) {
  // next() across block boundaries must look statistically identical to a
  // single fill; check no variance discontinuity around the block edge.
  KasdinFlicker::Config cfg;
  cfg.alpha = 1.0;
  cfg.sigma_w = 1.0;
  cfg.fs = 1.0;
  cfg.block = 1 << 10;
  cfg.fir_length = 1 << 12;
  cfg.seed = 6;
  KasdinFlicker src(cfg);
  const auto x = collect(src, 1 << 15);
  stats::RunningStats at_edges, mid_block;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const std::size_t pos = i % (1 << 10);
    if (pos < 16 || pos > (1 << 10) - 16) at_edges.add(x[i]);
    else mid_block.add(x[i]);
  }
  EXPECT_NEAR(at_edges.variance() / mid_block.variance(), 1.0, 0.3);
}

TEST(PowerLawPsd, EvaluationAndCoefficients) {
  PowerLawPsd psd(Sidedness::two_sided);
  psd.add_term(4.0, -2.0, "thermal");
  psd.add_term(8.0, -3.0, "flicker");
  EXPECT_DOUBLE_EQ(psd(2.0), 4.0 / 4.0 + 8.0 / 8.0);
  EXPECT_DOUBLE_EQ(psd.coefficient(-2.0), 4.0);
  EXPECT_DOUBLE_EQ(psd.coefficient(-3.0), 8.0);
  EXPECT_DOUBLE_EQ(psd.coefficient(0.0), 0.0);
}

TEST(PowerLawPsd, SidednessConversionRoundTrip) {
  PowerLawPsd two(Sidedness::two_sided);
  two.add_term(3.0, -1.0);
  const auto one = two.as(Sidedness::one_sided);
  EXPECT_DOUBLE_EQ(one.coefficient(-1.0), 6.0);
  const auto back = one.as(Sidedness::two_sided);
  EXPECT_DOUBLE_EQ(back.coefficient(-1.0), 3.0);
  // Same-sidedness conversion is the identity.
  const auto same = two.as(Sidedness::two_sided);
  EXPECT_DOUBLE_EQ(same.coefficient(-1.0), 3.0);
}

TEST(PowerLawPsd, MergesDuplicateExponents) {
  PowerLawPsd psd(Sidedness::one_sided);
  psd.add_term(1.0, -1.0, "a");
  psd.add_term(2.0, -1.0, "b");
  EXPECT_DOUBLE_EQ(psd.coefficient(-1.0), 3.0);
}

TEST(PowerLawPsd, RejectsNegativeCoefficientAndZeroFrequency) {
  PowerLawPsd psd;
  EXPECT_THROW(psd.add_term(-1.0, 0.0), ContractViolation);
  psd.add_term(1.0, -1.0);
  EXPECT_THROW(ignore_result(psd(0.0)), ContractViolation);
}

}  // namespace
