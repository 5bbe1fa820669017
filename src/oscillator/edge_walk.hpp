// The one skip rule and the one edge walk shared by every oscillator
// model (docs/ARCHITECTURE.md §5 "Edge walk"). A walker bringing an
// oscillator's edge bracket over a sampling instant makes one exact
// block advance of safe_skip periods and then steps the last few
// periods one by one, so the bracketing edges are realized exactly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/contracts.hpp"
#include "oscillator/ring_oscillator.hpp"

namespace ptrng::oscillator {

/// Standard deviations of margin the skip rule keeps between a jump's
/// nominal end and the target. A block sum is Gaussian, so a jump
/// overshoots with probability below P(N(0,1) > 10) ~ 7.6e-24 < 1e-22.
inline constexpr double kSkipSigmas = 10.0;

/// Periods an oscillator may skip towards an instant `usable` seconds
/// ahead without realizing an edge past it: floor(usable/t_nom) - m,
/// where m = max(1, ceil(z * sd_k / t_nom)) and
/// sd_k = sigma_th * sqrt(k) + k * sigma_fl bounds the spread of a
/// k-period sum (thermal adds in variance; the flicker sum is bounded
/// by perfect correlation). The m >= 1 floor keeps a noise-free
/// oscillator from landing exactly on (or, by rounding, past) the
/// target. Returns 0 when no period can be skipped.
[[nodiscard]] inline std::uint64_t safe_skip_periods(double usable,
                                                     double t_nom,
                                                     double sigma_th,
                                                     double sigma_fl) {
  if (!(usable > 0.0)) return 0;
  const double n = std::floor(usable / t_nom);
  const double sd_k = sigma_th * std::sqrt(n) + n * sigma_fl;
  const double m = std::max(1.0, std::ceil(kSkipSigmas * sd_k / t_nom));
  return n > m ? static_cast<std::uint64_t>(n - m) : 0;
}

/// Walks `osc` until its edge bracket contains `t_target`: block
/// advances of osc.safe_skip(gap) periods while one is safe, then
/// next_period() steps until the next edge passes the target. A jump
/// collapses the bracket onto its landing edge, so an overshooting jump
/// would surface as prev > t_target in the postcondition rather than as
/// a stale bracket. `bracket.next` must be osc.edge_time().
template <class Oscillator>
[[nodiscard]] EdgeBracket walk_to(Oscillator& osc, double t_target,
                                  EdgeBracket bracket) {
  for (;;) {
    const std::uint64_t skip = osc.safe_skip(t_target - bracket.next);
    if (skip == 0) break;
    osc.advance_periods(skip);
    bracket.prev = bracket.next = osc.edge_time();
  }
  while (bracket.next <= t_target) {
    bracket.prev = bracket.next;
    osc.next_period();
    bracket.next = osc.edge_time();
  }
  PTRNG_ENSURES(bracket.prev <= t_target && t_target < bracket.next);
  return bracket;
}

}  // namespace ptrng::oscillator
