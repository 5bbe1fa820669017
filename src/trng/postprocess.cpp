#include "trng/postprocess.hpp"

#include <cmath>
#include <cstddef>

#include "common/contracts.hpp"

namespace ptrng::trng {

double bias(std::span<const std::uint8_t> bits) {
  PTRNG_EXPECTS(!bits.empty());
  std::size_t ones = 0;
  for (auto b : bits) ones += (b & 1u);
  return std::abs(static_cast<double>(ones) /
                      static_cast<double>(bits.size()) -
                  0.5);
}

double serial_correlation(std::span<const std::uint8_t> bits) {
  PTRNG_EXPECTS(bits.size() >= 3);
  double sum = 0.0, sum_sq = 0.0, cross = 0.0;
  const std::size_t n = bits.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(bits[i] & 1u);
    sum += x;
    sum_sq += x * x;
    if (i + 1 < n)
      cross += x * static_cast<double>(bits[i + 1] & 1u);
  }
  const double nn = static_cast<double>(n);
  const double mean = sum / nn;
  const double var = sum_sq / nn - mean * mean;
  if (var <= 0.0) return 0.0;
  const double cov = cross / (nn - 1.0) - mean * mean;
  return cov / var;
}

}  // namespace ptrng::trng
