// Flicker (1/f) noise via a bank of octave-spaced first-order AR(1)
// (discrete Ornstein–Uhlenbeck) stages — the production generator used by
// the oscillator simulator: O(stages) per sample, stationary from sample 0,
// analytically known PSD (sum of Lorentzians).
//
// Equal-variance stages with log-spaced corner frequencies superpose to a
// PSD ~ c/f between f_min and f_max; the constructor calibrates the global
// gain against the requested two-sided amplitude A (target S(f) = A/f) by a
// log-grid least-squares fit of the *analytic* stage sum.
//
// State is laid out struct-of-arrays (rho / innovation gain / state per
// stage) and every stage owns a decorrelated RNG stream
// (chunk_seed(seed, stage)), so the batched fill() path can draw each
// stage's Gaussians in one block per stage while staying bit-identical to
// sample-by-sample next() calls (docs/ARCHITECTURE.md §5).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "noise/noise_source.hpp"

namespace ptrng::noise {

/// Streaming 1/f noise with two-sided PSD ~ amplitude/f over
/// [f_min, f_max].
class FilterBankFlicker final : public NoiseSource {
 public:
  struct Config {
    double amplitude = 1.0;      ///< target two-sided PSD: amplitude / f
    double fs = 1.0;             ///< sample rate [Hz]
    double f_min = 1e-6;         ///< lower band edge [Hz] (>= fs/n_samples)
    double f_max = 0.0;          ///< upper band edge; 0 -> fs/4
    unsigned stages_per_decade = 3;
    std::uint64_t seed = 0x1f1cce5;
  };

  explicit FilterBankFlicker(const Config& config);

  double next() override;

  /// Batched fast path: bit-identical to out.size() next() calls on the
  /// same stream for ANY PTRNG_THREADS (per-stage RNG streams make the
  /// draw order within each stage independent of the batching). One
  /// Gaussian block per stage per internal block instead of one draw per
  /// stage per sample; the independent per-stage recurrences fan out one
  /// stage per task on the common pool and the stage contributions fold
  /// in stage order — the exact accumulation order of next().
  void fill(std::span<double> out) override;

  [[nodiscard]] double sample_rate() const override { return fs_; }

  /// Exact block advance: draws the SUM of the next k samples from its
  /// true joint distribution with the end state and moves the generator
  /// k steps forward — O(stages), independent of k. Statistically
  /// indistinguishable from summing k next() calls (each AR(1) stage's
  /// (sum, end-state) pair is jointly Gaussian with closed-form moments).
  /// Consumes exactly two draws per stage, so it composes deterministically
  /// with next()/fill() on the same generator.
  [[nodiscard]] double advance_sum(std::size_t k);

  /// Stationary standard deviation of one output sample: the square
  /// root of the summed per-stage variances (the stages are
  /// independent). Bounds the spread of a k-sample sum by k times this.
  [[nodiscard]] double stationary_sd() const;

  /// Exact two-sided PSD of this generator (sum of discrete Lorentzians) at
  /// frequency f — what Welch estimates should converge to.
  [[nodiscard]] double analytic_psd(double f) const;

  /// Target two-sided PSD amplitude/f it approximates in band.
  [[nodiscard]] double target_psd(double f) const;

  [[nodiscard]] std::size_t stage_count() const noexcept {
    return rho_.size();
  }
  [[nodiscard]] double f_min() const noexcept { return f_min_; }
  [[nodiscard]] double f_max() const noexcept { return f_max_; }

 private:
  double fs_;
  double amplitude_;
  double f_min_;
  double f_max_;
  // Struct-of-arrays per-stage state; all vectors share stage indexing.
  std::vector<double> rho_;    ///< per-stage AR(1) pole
  std::vector<double> sigma_;  ///< per-stage stationary stddev (calibrated)
  std::vector<double> drive_;  ///< innovation stddev sigma*sqrt(1-rho^2)
  // Precomputed geometric terms shared by advance_sum (k-independent).
  std::vector<double> inv_one_m_rho_;   ///< 1/(1-rho)
  std::vector<double> inv_one_m_rho2_;  ///< 1/(1-rho^2)
  std::vector<double> state_;
  /// One decorrelated stream per stage so batched per-stage draws consume
  /// each stream in the same order as interleaved per-sample draws.
  std::vector<GaussianSampler> gauss_;
  std::vector<double> scratch_;  ///< fill() per-stage staging (stages x block)

  /// Per-stage advance_sum moment terms for one block length k — every
  /// value exactly what the former inline computation produced, so
  /// memoizing them is stream-invisible.
  struct AdvanceTerms {
    double q = 0.0;          ///< rho^k
    double sd_x = 0.0;       ///< stddev of the end state (given x_0)
    double mean_coef = 0.0;  ///< E[S|x_0] = mean_coef * x_0
    double slope = 0.0;      ///< regression of S on the end-state shock
    double resid_sd = 0.0;   ///< stddev of S around that regression
    double sd_s = 0.0;       ///< stddev of S when sd_x degenerates to 0
  };
  struct AdvanceCacheEntry {
    std::size_t k = 0;  ///< block length; 0 marks an empty slot
    std::vector<AdvanceTerms> terms;
  };
  /// Small round-robin memo keyed on k: the counter's window loop
  /// revisits the same few block lengths (n_cycles plus jump sizes that
  /// jitter by +-1 period) millions of times, and recomputing cost
  /// ~stage_count std::pow calls per advance. 8 slots cover that
  /// working set with room for the jitter.
  const std::vector<AdvanceTerms>& advance_terms(std::size_t k);
  std::array<AdvanceCacheEntry, 8> advance_cache_{};
  std::size_t advance_cache_next_ = 0;
};

/// Shared Config factory for the oscillator-layer flicker banks: a 1/f
/// band from `f_min` up to the conventional fs/4 upper edge at sample
/// rate `fs`. RingOscillator and GateChainOscillator both build their
/// banks through this helper so the band conventions cannot drift
/// between them.
[[nodiscard]] FilterBankFlicker::Config flicker_band_config(
    double amplitude, double fs, double f_min, std::uint64_t seed,
    unsigned stages_per_decade = 3);

}  // namespace ptrng::noise
