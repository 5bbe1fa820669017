// Edge-walk suite: the one-jump walk (oscillator/edge_walk.hpp) that
// brings an oscillator's edge bracket over a sampling instant must be
// indistinguishable in distribution from realizing every period with
// next_period(), must never overshoot even under heavy jitter, and must
// land exactly on the edges of a noise-free oscillator. Bands come from
// stat_tolerance.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "oscillator/edge_walk.hpp"
#include "oscillator/gate_chain.hpp"
#include "oscillator/oscillator_pair.hpp"
#include "oscillator/ring_oscillator.hpp"
#include "stats/descriptive.hpp"
#include "stat_tolerance.hpp"

namespace {

using namespace ptrng;
using namespace ptrng::oscillator;

double nominal_period(const RingOscillator& osc) {
  return osc.nominal_period();
}
double nominal_period(const GateChainOscillator& osc) { return 1.0 / osc.f0(); }

/// Stepping oracle: realizes every period with next_period() until the
/// bracket holds the instant — the definition the jump walk reproduces.
template <class Osc>
EdgeBracket step_to(Osc& osc, double t, EdgeBracket bracket) {
  while (bracket.next <= t) {
    bracket.prev = bracket.next;
    osc.next_period();
    bracket.next = osc.edge_time();
  }
  return bracket;
}

template <class Osc>
EdgeBracket jump_to(Osc& osc, double t, EdgeBracket bracket) {
  return osc.advance_to_block(t, bracket);
}

template <class Osc>
EdgeBracket primed(Osc& osc) {
  EdgeBracket bracket;
  osc.next_period();
  bracket.next = osc.edge_time();
  return bracket;
}

/// Per-trial observables of a walk over `instants` sampling instants
/// t_j = (j*k + offset) * T_nom, j = 1..instants, on a fresh oscillator
/// per trial: the fractional phase at the last instant (independent
/// across trials) and the duty-0.5 bit at every instant.
struct WalkSample {
  std::vector<double> last_phase;
  std::vector<std::uint8_t> bits;  ///< `instants` bits per trial
};

template <class Make, class Walk>
WalkSample sample_walks(Make make, Walk walk, std::uint64_t seed0,
                        std::size_t trials, std::size_t instants,
                        std::size_t k) {
  constexpr double kOffset = 0.5;  // mid-period: duty-0.5 bits are fair
  WalkSample out;
  for (std::size_t i = 0; i < trials; ++i) {
    auto osc = make(seed0 + i);
    const double t_nom = nominal_period(osc);
    EdgeBracket bracket = primed(osc);
    double phase = 0.0;
    for (std::size_t j = 1; j <= instants; ++j) {
      const double t = (static_cast<double>(j * k) + kOffset) * t_nom;
      bracket = walk(osc, t, bracket);
      phase = bracket.fractional_phase(t);
      out.bits.push_back(phase < 0.5 ? 1 : 0);
    }
    out.last_phase.push_back(phase);
  }
  return out;
}

/// Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|.
double ks_statistic(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::size_t i = 0, j = 0;
  double d = 0.0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] <= x) ++i;
    while (j < b.size() && b[j] <= x) ++j;
    d = std::max(d, std::abs(static_cast<double>(i) / a.size() -
                             static_cast<double>(j) / b.size()));
  }
  return d;
}

double ones_fraction(const std::vector<std::uint8_t>& bits) {
  double ones = 0.0;
  for (auto b : bits) ones += b;
  return ones / static_cast<double>(bits.size());
}

/// Pearson correlation of consecutive bits within each trial's run.
double lag1_correlation(const std::vector<std::uint8_t>& bits,
                        std::size_t per_trial) {
  std::vector<double> x, y;
  for (std::size_t i = 0; i + 1 < bits.size(); ++i) {
    if ((i + 1) % per_trial == 0) continue;  // no pair across trials
    x.push_back(bits[i]);
    y.push_back(bits[i + 1]);
  }
  return stats::correlation(x, y);
}

/// The jump walk and the stepping oracle agree in distribution: the
/// fractional phase at the sampling instant (two-sample KS), the bit
/// bias and the lag-1 bit correlation. Every trial is a fresh,
/// independently seeded oscillator, so the last-instant phases are iid;
/// bits within one trial are correlated, so the bias and correlation
/// bands count one effective sample per trial rather than one per bit.
template <class Make>
void expect_walk_matches_stepping(Make make, std::size_t trials,
                                  std::size_t instants, std::size_t k) {
  const auto jumped = sample_walks(make, jump_to<decltype(make(0))>, 1,
                                   trials, instants, k);
  const auto stepped = sample_walks(make, step_to<decltype(make(0))>,
                                    1 + trials, trials, instants, k);

  const double d = ks_statistic(jumped.last_phase, stepped.last_phase);
  EXPECT_LT(d, ptrng::testing::ks_two_sample_tol(trials, trials));

  const double band = std::sqrt(2.0) * ptrng::testing::bias_tol(trials);
  EXPECT_NEAR(ones_fraction(jumped.bits), ones_fraction(stepped.bits), band);
  EXPECT_NEAR(lag1_correlation(jumped.bits, instants),
              lag1_correlation(stepped.bits, instants),
              std::sqrt(2.0) * ptrng::testing::acf_tol(trials));

  // The phases must actually spread, or the KS comparison is vacuous.
  const double spread = stats::stddev(stepped.last_phase);
  EXPECT_GT(spread, 0.02);
}

RingOscillator paper_ring(std::uint64_t seed) {
  return RingOscillator(paper_single_config(seed));
}

RingOscillator thermal_ring(std::uint64_t seed) {
  auto cfg = paper_single_config(seed);
  cfg.b_fl = 0.0;
  return RingOscillator(cfg);
}

GateChainConfig chain_config(std::uint64_t seed, double flicker) {
  GateChainConfig cfg;
  cfg.n_stages = 5;
  cfg.stage_delay = 100e-12;
  cfg.sigma_stage = 2e-12;
  cfg.flicker_amplitude = flicker;
  cfg.flicker_floor_hz = 1e5;
  cfg.seed = seed;
  return cfg;
}

TEST(EdgeWalk, PaperRingK200MatchesStepping) {
  expect_walk_matches_stepping(paper_ring, 3000, 16, 200);
}

TEST(EdgeWalk, PaperRingK1000MatchesStepping) {
  expect_walk_matches_stepping(paper_ring, 2000, 8, 1000);
}

TEST(EdgeWalk, ThermalRingK1000MatchesStepping) {
  expect_walk_matches_stepping(thermal_ring, 3000, 8, 1000);
}

TEST(EdgeWalk, ThermalGateChainMatchesStepping) {
  expect_walk_matches_stepping(
      [](std::uint64_t s) { return GateChainOscillator(chain_config(s, 0.0)); },
      3000, 16, 64);
}

TEST(EdgeWalk, FlickerGateChainMatchesStepping) {
  expect_walk_matches_stepping(
      [](std::uint64_t s) {
        return GateChainOscillator(chain_config(s, 1e-26));
      },
      2000, 8, 32);
}

TEST(EdgeWalk, GateChainAdvanceMatchesThermalVariance) {
  // Thermal-only chain: k periods by one block advance end at
  // k*T_nom + N(0, 2N*k*sigma_stage^2).
  const std::size_t k = 64, trials = 4000;
  stats::RunningStats rs;
  for (std::size_t i = 0; i < trials; ++i) {
    GateChainOscillator osc(chain_config(100 + i, 0.0));
    osc.advance_periods(k);
    rs.add(osc.edge_time() - static_cast<double>(k) / osc.f0());
  }
  const double expected = static_cast<double>(k) *
                          GateChainOscillator(chain_config(0, 0.0))
                              .period_thermal_variance();
  EXPECT_NEAR(rs.variance() / expected, 1.0,
              ptrng::testing::variance_ratio_tol(trials));
  EXPECT_NEAR(rs.mean(), 0.0, 5.0 * std::sqrt(expected / trials));
}

/// Walks `walks` successive instants with pseudo-random gaps of 1.5-400.5
/// periods and checks the bracket after each; the walk's own
/// postcondition throws on an overshoot.
template <class Osc>
void stress_walks(Osc& osc, std::size_t walks) {
  const double t_nom = nominal_period(osc);
  Xoshiro256pp rng(0x0e5c);
  EdgeBracket bracket = primed(osc);
  double t = 0.0;
  for (std::size_t w = 0; w < walks; ++w) {
    t = std::max(t, bracket.next) +
        (1.0 + static_cast<double>(rng() % 400) + 0.5) * t_nom;
    ASSERT_NO_THROW(bracket = osc.advance_to_block(t, bracket))
        << "walk " << w;
    ASSERT_LE(bracket.prev, t) << "walk " << w;
    ASSERT_LT(t, bracket.next) << "walk " << w;
  }
}

TEST(EdgeWalk, HeavyJitterRingNeverOvershoots) {
  // sigma_th = 0.2 T per period: Var(J_th) = b_th/f0^3 = (0.2/f0)^2.
  auto cfg = paper_single_config(77);
  cfg.b_th = 0.04 * cfg.f0;
  RingOscillator osc(cfg);
  EXPECT_NEAR(osc.sigma_thermal() / osc.nominal_period(), 0.2, 1e-3);
  EXPECT_GT(osc.safe_skip(400.0 * osc.nominal_period()), 0u);
  stress_walks(osc, 100000);
}

TEST(EdgeWalk, HeavyJitterGateChainNeverOvershoots) {
  // sqrt(2N) * sigma_stage = 0.2 T with T = 2N * stage_delay.
  GateChainConfig cfg = chain_config(78, 0.0);
  cfg.sigma_stage = 0.2 * 10.0 * cfg.stage_delay / std::sqrt(10.0);
  GateChainOscillator osc(cfg);
  EXPECT_NEAR(std::sqrt(osc.period_thermal_variance()) * osc.f0(), 0.2, 1e-9);
  EXPECT_GT(osc.safe_skip(400.0 / osc.f0()), 0u);
  stress_walks(osc, 100000);
}

/// Noise-free walks from the first edge to instants on, one ulp below
/// and one ulp above the k-th edge a stepped twin realizes, and a
/// quarter period past it. The bracket must hold each instant exactly
/// one period wide, with the exact phase between edges. One ulp below
/// the edge, gap/T_nom can round up to k: a jump that kept no period
/// back (m = 0) would then land on the edge, one ulp past the instant.
template <class Make>
void expect_exact_walks(Make make) {
  auto twin = make();
  const double t_nom = nominal_period(twin);
  EXPECT_EQ(twin.safe_skip(1000.0 * t_nom), 999u);  // only the m = 1 margin
  (void)primed(twin);
  for (std::size_t k = 1; k <= 2000; ++k) {
    twin.next_period();
    const double edge = twin.edge_time();
    const double targets[] = {std::nextafter(edge, 0.0), edge,
                              std::nextafter(edge, 2.0 * edge),
                              edge + 0.25 * t_nom};
    for (double t : targets) {
      auto osc = make();
      EdgeBracket bracket = primed(osc);
      ASSERT_NO_THROW(bracket = osc.advance_to_block(t, bracket))
          << "k = " << k;
      ASSERT_LE(bracket.prev, t);
      ASSERT_LT(t, bracket.next);
      ASSERT_NEAR(bracket.next - bracket.prev, t_nom, 1e-9 * t_nom);
      if (t == targets[3]) {
        EXPECT_NEAR(bracket.fractional_phase(t), 0.25, 1e-6);
      }
    }
  }
}

TEST(EdgeWalk, NoiseFreeRingLandsOnEdges) {
  expect_exact_walks([] {
    auto cfg = paper_single_config(5);
    cfg.b_th = 0.0;
    cfg.b_fl = 0.0;
    return RingOscillator(cfg);
  });
}

TEST(EdgeWalk, NoiseFreeGateChainLandsOnEdges) {
  expect_exact_walks([] {
    GateChainConfig cfg = chain_config(6, 0.0);
    cfg.sigma_stage = 0.0;
    return GateChainOscillator(cfg);
  });
}

TEST(EdgeWalk, SkipRuleKeepsTheMargin) {
  // floor(gap/T) - max(1, ceil(z*sd_k/T)), sd_k = sth*sqrt(k) + k*sfl.
  EXPECT_EQ(safe_skip_periods(-1.0, 1.0, 0.0, 0.0), 0u);
  EXPECT_EQ(safe_skip_periods(1.5, 1.0, 0.0, 0.0), 0u);
  EXPECT_EQ(safe_skip_periods(2.5, 1.0, 0.0, 0.0), 1u);
  EXPECT_EQ(safe_skip_periods(100.0, 1.0, 0.01, 0.0), 99u);   // m = 1
  EXPECT_EQ(safe_skip_periods(100.0, 1.0, 0.1, 0.0), 90u);    // m = 10
  EXPECT_EQ(safe_skip_periods(100.0, 1.0, 0.0, 0.001), 99u);  // m = 1
  EXPECT_EQ(safe_skip_periods(100.0, 1.0, 0.0, 0.01), 90u);   // m = 10
  // A modulated oscillator also keeps the 10% modulation allowance.
  auto cfg = paper_single_config(9);
  cfg.b_fl = 0.0;
  RingOscillator osc(cfg);
  const double t_nom = osc.nominal_period();
  const double gap = 1000.0 * t_nom;
  EXPECT_EQ(osc.safe_skip(gap),
            safe_skip_periods(gap, t_nom, osc.sigma_thermal(), 0.0));
  osc.set_modulation([](double) { return 0.0; });
  EXPECT_EQ(osc.safe_skip(gap),
            safe_skip_periods(0.9 * gap, t_nom, osc.sigma_thermal(), 0.0));
}

}  // namespace
