// Phase-domain ring-oscillator simulator.
//
// The oscillator is simulated in the period domain: the i-th period is
//
//   T_i = 1/f_actual + J_th,i + J_fl,i
//
// where J_th is iid Gaussian (thermal) and J_fl is a 1/f-correlated
// sequence (flicker). Calibration to the paper's phase PSD
// S_phi = b_th/f^2 + b_fl/f^3 (two-sided) uses the cumulative-sum identity
// S_phi(f) ~ S_J(f) * f0^4/f^2 for f << f0 (docs/ARCHITECTURE.md §3):
//
//   thermal:  Var(J_th) = b_th / f0^3
//   flicker:  S_Jfl(f)  = (b_fl / f0^4) / f   (two-sided)
//
// Ground-truth jitter components are exposed so measurement code can be
// validated against an oracle that hardware never provides.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/math_utils.hpp"
#include "common/rng.hpp"
#include "noise/filter_bank.hpp"
#include "phase_noise/phase_psd.hpp"

namespace ptrng::oscillator {

/// One simulated oscillator period with its noise decomposition.
struct PeriodSample {
  double period = 0.0;   ///< T_i [s]
  double thermal = 0.0;  ///< J_th,i [s]
  double flicker = 0.0;  ///< J_fl,i [s]
  /// Total period jitter J_i = T_i - nominal (excludes deterministic
  /// modulation).
  [[nodiscard]] double jitter() const noexcept { return thermal + flicker; }
};

/// A pair of consecutive rising-edge times bracketing a sampling instant:
/// prev <= t < next. The value type of the bulk-edge sampling API below.
struct EdgeBracket {
  double prev = 0.0;  ///< last edge at or before the instant [s]
  double next = 0.0;  ///< first edge after the instant [s]

  /// Fractional phase of the instant inside the bracket, in [0, 1).
  [[nodiscard]] double fractional_phase(double t) const noexcept {
    return (t - prev) / (next - prev);
  }
};

/// Configuration of a simulated ring oscillator.
struct RingOscillatorConfig {
  double f0 = 103e6;      ///< nominal frequency [Hz] (paper: 103 MHz)
  double b_th = 138.02;   ///< two-sided thermal phase coefficient [Hz]
  double b_fl = 9.578e5;  ///< two-sided flicker phase coefficient [Hz^2]
  /// Lower edge of the flicker band as a fraction of f0 (the 1/f shaping
  /// holds above f0 * flicker_floor_ratio; below it the PSD flattens,
  /// keeping the process stationary).
  double flicker_floor_ratio = 1e-7;
  unsigned flicker_stages_per_decade = 3;
  /// Static frequency offset (mismatch between "identical" rings),
  /// fractional: f_actual = f0 * (1 + mismatch).
  double mismatch = 0.0;
  std::uint64_t seed = 0x05c111a701ULL;

  /// The analytic phase PSD this configuration realizes.
  [[nodiscard]] phase_noise::PhasePsd phase_psd() const {
    return {b_th, b_fl, f0};
  }
};

/// Streaming phase-domain ring oscillator.
class RingOscillator {
 public:
  explicit RingOscillator(const RingOscillatorConfig& config);

  /// Generates the next period (with ground-truth decomposition).
  PeriodSample next_period();

  /// Batched fast path: fills `out` with the next out.size() periods,
  /// bit-identical to out.size() next_period() calls (the thermal draws
  /// come from the same stream in the same order and the flicker block
  /// rides FilterBankFlicker::fill, which is itself bit-identical to
  /// stepping). Falls back to stepping when a modulation hook is
  /// installed (the hook must see every edge time).
  void next_periods(std::span<PeriodSample> out);

  /// Batched edge realization for boundary-resolution consumers (the
  /// differential counter): appends out.size() periods and writes the
  /// absolute rising-edge time after each one into out — bit-identical
  /// to out.size() next_period() calls reading edge_time() after each
  /// (same per-edge compensated accumulation, same stream consumption
  /// as next_periods). Falls back to stepping when a modulation hook is
  /// installed.
  void next_edges(std::span<double> out);

  /// Fast path: advances `k` periods in O(flicker stages) time — the
  /// thermal sum is one Gaussian draw, the flicker sum comes from the
  /// filter bank's exact block advance. Statistically indistinguishable
  /// from k next_period() calls for every downstream observable that only
  /// depends on edge times at the block boundaries. Falls back to
  /// stepping when a modulation hook is installed (the hook must see
  /// every period) or k is small.
  void advance_periods(std::uint64_t k);

  /// Absolute time of the most recently produced rising edge [s].
  /// Accumulated with compensated summation.
  [[nodiscard]] double edge_time() const noexcept { return edge_time_.value(); }

  /// Periods that can be skipped towards an instant `gap` seconds past
  /// the last edge without passing it (edge_walk.hpp safe_skip_periods,
  /// with this oscillator's thermal sigma and flicker stationary sd). A
  /// modulated oscillator first keeps 10% of the gap back for the
  /// modulation's period change, so its walk converges in a few
  /// shrinking jumps instead of one.
  [[nodiscard]] std::uint64_t safe_skip(double gap) const;

  /// Bulk-edge API for batched sampling: advances this oscillator until
  /// its edge bracket contains `t_target` and returns that bracket.
  /// `bracket` is the caller's current bracket (bracket.next must be the
  /// most recent realized edge, i.e. edge_time()). One exact block
  /// advance of safe_skip periods, then period steps over the last 1-3
  /// periods to realize the bracketing edges (edge_walk.hpp walk_to).
  /// Already-bracketed targets (t_target < bracket.next) return the input
  /// unchanged, so per-bit resampling costs nothing extra.
  [[nodiscard]] EdgeBracket advance_to_block(double t_target,
                                             EdgeBracket bracket);

  /// Number of periods generated so far.
  [[nodiscard]] std::uint64_t cycle_count() const noexcept { return cycles_; }

  /// Deterministic fractional-frequency modulation hook (used by the
  /// attack models): df/f = modulation(t). Pass nullptr to clear.
  void set_modulation(std::function<double(double)> modulation);

  /// Thermal per-period jitter stddev realized by this instance [s].
  [[nodiscard]] double sigma_thermal() const noexcept { return sigma_th_; }

  /// Mean period including mismatch [s].
  [[nodiscard]] double nominal_period() const noexcept { return t_nom_; }

  [[nodiscard]] const RingOscillatorConfig& config() const noexcept {
    return config_;
  }

 private:
  RingOscillatorConfig config_;
  double t_nom_;
  double sigma_th_;
  double sigma_fl_ = 0.0;  ///< flicker stationary sd per period
  GaussianSampler gauss_;
  std::optional<noise::FilterBankFlicker> flicker_;  ///< absent if b_fl == 0
  std::function<double(double)> modulation_;
  KahanSum edge_time_;
  std::uint64_t cycles_ = 0;
  std::vector<double> flicker_scratch_;  ///< next_periods block staging
  std::vector<double> thermal_scratch_;  ///< batched thermal draw staging
};

}  // namespace ptrng::oscillator
