// Bit-stream quality figures used to judge post-processing: empirical
// bias and lag-1 serial correlation. The post-processing blocks
// themselves (AIS31 Fig. 1 third stage: XOR decimation, i.e. group
// parity, and Von Neumann) are the streaming BitTransform stages in
// trng/bit_stream.hpp.
#pragma once

#include <cstdint>
#include <span>

namespace ptrng::trng {

/// Empirical bias |P(1) - 1/2| of a bit stream.
[[nodiscard]] double bias(std::span<const std::uint8_t> bits);

/// Lag-1 serial correlation coefficient of a bit stream.
[[nodiscard]] double serial_correlation(std::span<const std::uint8_t> bits);

}  // namespace ptrng::trng
