// Structural (gate-level) ring-oscillator model: N inverter stages, each
// contributing an independently noisy propagation delay per transition.
// One oscillation period = 2N stage delays (a rising edge must traverse
// the ring twice). This is the "one level down" view of the phase-domain
// simulator: it validates the aggregation rules (per-stage thermal
// variances add; per-stage flicker adds in PSD) and feeds the ISF ablation
// bench.
#pragma once

#include <cstdint>
#include <optional>

#include "common/rng.hpp"
#include "noise/filter_bank.hpp"
#include "oscillator/ring_oscillator.hpp"

namespace ptrng::oscillator {

/// Per-stage delay model configuration.
struct GateChainConfig {
  std::size_t n_stages = 5;     ///< inverters in the ring (odd, >= 3)
  double stage_delay = 970e-12 / 10.0;  ///< nominal per-stage delay [s]
  double sigma_stage = 5e-12;   ///< thermal stddev per stage transition [s]
  /// Two-sided flicker amplitude of the per-stage delay sequence
  /// (PSD = amplitude/f against the stage-transition rate); 0 disables.
  double flicker_amplitude = 0.0;
  double flicker_floor_hz = 100.0;
  std::uint64_t seed = 0x9a7ec4a1ULL;
};

/// Gate-level ring oscillator producing periods as sums of noisy stage
/// delays.
class GateChainOscillator {
 public:
  explicit GateChainOscillator(const GateChainConfig& config);

  /// Next full period: sum of 2*n_stages noisy stage delays.
  PeriodSample next_period();

  /// Exact block advance of k periods: the thermal sum is one
  /// N(0, 2N*k*sigma_stage^2) draw and the flicker sum is the summed
  /// stage bank's advance_sum(2k) (each stage is traversed twice per
  /// period). Statistically indistinguishable from k next_period()
  /// calls for every observable that depends only on the end edge time.
  void advance_periods(std::uint64_t k);

  /// Absolute time of the most recently produced rising edge [s],
  /// accumulated with compensated summation.
  [[nodiscard]] double edge_time() const noexcept { return edge_time_.value(); }

  /// Periods that can be skipped towards an instant `gap` seconds past
  /// the last edge without passing it (edge_walk.hpp safe_skip_periods).
  [[nodiscard]] std::uint64_t safe_skip(double gap) const;

  /// Brings the edge bracket over `t_target` with the same walk as
  /// RingOscillator::advance_to_block (edge_walk.hpp walk_to).
  [[nodiscard]] EdgeBracket advance_to_block(double t_target,
                                             EdgeBracket bracket);

  /// Nominal frequency 1/(2*N*t_stage).
  [[nodiscard]] double f0() const noexcept { return f0_; }

  /// Theoretical per-period thermal jitter variance: 2N * sigma_stage^2.
  [[nodiscard]] double period_thermal_variance() const;

  /// Equivalent phase-domain configuration (for cross-validation against
  /// RingOscillator): b_th = Var(J_th) * f0^3.
  [[nodiscard]] RingOscillatorConfig equivalent_phase_config() const;

  [[nodiscard]] const GateChainConfig& config() const noexcept {
    return config_;
  }

 private:
  GateChainConfig config_;
  double f0_;
  GaussianSampler gauss_;
  /// Summed flicker of all stages (absent if flicker_amplitude == 0).
  std::optional<noise::FilterBankFlicker> flicker_;
  double t_nom_;           ///< nominal period 2N * stage_delay [s]
  double sigma_th_;        ///< per-period thermal sd sqrt(2N) * sigma_stage
  double sigma_fl_ = 0.0;  ///< per-period flicker sd bound
  KahanSum edge_time_;
};

}  // namespace ptrng::oscillator
