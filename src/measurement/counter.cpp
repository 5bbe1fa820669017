#include "measurement/counter.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/contracts.hpp"
#include "common/simd.hpp"
#include "stats/descriptive.hpp"

namespace ptrng::measurement {
namespace {

/// How many edges of the ascending buffer [edges, edges + n) lie strictly
/// below `bound` — i.e. the length of the prefix of values < bound.
std::size_t count_below_scalar(const double* edges, std::size_t n,
                               double bound) noexcept {
  std::size_t i = 0;
  while (i < n && edges[i] < bound) ++i;
  return i;
}

/// Vector prefix count: 4 compares at a time; the first block whose mask
/// is not all-ones ends the prefix, and countr_one picks out how many of
/// its leading lanes still qualify. Because the buffer ascends, this is
/// exactly the scalar stop-at-first-failure count.
PTRNG_SIMD_TARGET std::size_t count_below_vector(const double* edges,
                                                 std::size_t n,
                                                 double bound) noexcept {
  const simd::f64x4 b = simd::splat4(bound);
  std::size_t i = 0;
  for (; i + simd::kLanes <= n; i += simd::kLanes) {
    const int m = simd::lt_mask(simd::load4(edges + i), b);
    if (m != 0xf)
      return i + static_cast<std::size_t>(
                     std::countr_one(static_cast<unsigned>(m)));
  }
  return count_below_scalar(edges + i, n - i, bound) + i;
}

std::size_t count_below(const double* edges, std::size_t n,
                        double bound) noexcept {
  if (simd::active()) return count_below_vector(edges, n, bound);
  return count_below_scalar(edges, n, bound);
}

}  // namespace

DifferentialCounter::DifferentialCounter(oscillator::RingOscillator& osc1,
                                         oscillator::RingOscillator& osc2)
    : osc1_(osc1), osc2_(osc2) {}

std::vector<std::int64_t> DifferentialCounter::count_windows(
    std::size_t n_cycles, std::size_t n_windows) {
  PTRNG_EXPECTS(n_cycles >= 1);
  PTRNG_EXPECTS(n_windows >= 1);
  std::vector<std::int64_t> counts;
  counts.reserve(n_windows);
  const double t_nom1 = osc1_.nominal_period();

  for (std::size_t w = 0; w < n_windows; ++w) {
    // Window end: advance osc2 by n_cycles periods (exact block advance).
    osc2_.advance_periods(n_cycles);
    const double window_end = osc2_.edge_time();

    std::int64_t q = 0;
    for (;;) {
      // Drain buffered edges first: the prefix below window_end belongs
      // to this window; a surviving suffix means the window is closed.
      const std::size_t avail = edges_.size() - edge_pos_;
      if (avail > 0) {
        const std::size_t took =
            count_below(edges_.data() + edge_pos_, avail, window_end);
        q += static_cast<std::int64_t>(took);
        edge_pos_ += took;
        if (took < avail) break;  // an edge >= window_end remains buffered
      }
      edges_.clear();
      edge_pos_ = 0;
      // Far from the window end, jump osc1 in one block (every skipped
      // period is one counted edge; the skip rule keeps the jump short
      // of the boundary); realize explicit edge times only near the
      // boundary, where the exact time decides the count.
      const std::uint64_t skip =
          osc1_.safe_skip(window_end - osc1_.edge_time());
      if (skip > 0) {
        osc1_.advance_periods(skip);
        q += static_cast<std::int64_t>(skip);
        continue;
      }
      // Realize a block slightly past the expected boundary: the +8
      // margin makes an all-below block (another loop iteration) rare,
      // and the leftover suffix seeds the next window's prefix count.
      const double need =
          std::max(0.0, (window_end - osc1_.edge_time()) / t_nom1);
      edges_.resize(static_cast<std::size_t>(need) + 8);
      osc1_.next_edges(edges_);
    }
    counts.push_back(q);
  }
  return counts;
}

std::vector<double> DifferentialCounter::sn_from_counts(
    const std::vector<std::int64_t>& counts, double f0) {
  PTRNG_EXPECTS(counts.size() >= 2);
  PTRNG_EXPECTS(f0 > 0.0);
  std::vector<double> sn;
  sn.reserve(counts.size() - 1);
  for (std::size_t i = 0; i + 1 < counts.size(); ++i)
    sn.push_back(static_cast<double>(counts[i + 1] - counts[i]) / f0);
  return sn;
}

double DifferentialCounter::sigma2_n(std::size_t n_cycles,
                                     std::size_t n_windows) {
  PTRNG_EXPECTS(n_windows >= 2);
  const auto counts = count_windows(n_cycles, n_windows);
  const double f0 = osc1_.config().f0;
  stats::RunningStats acc;
  for (std::size_t i = 0; i + 1 < counts.size(); ++i)
    acc.add(static_cast<double>(counts[i + 1] - counts[i]) / f0);
  return acc.variance();
}

}  // namespace ptrng::measurement
