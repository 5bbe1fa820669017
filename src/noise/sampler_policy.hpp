// One sampler-policy knob for the whole noise/oscillator layer: the
// Gaussian-engine choice (docs/ARCHITECTURE.md §5 "Sampler policy") as
// ONE value type passed by value, so a new sampler knob is added here
// once instead of to every Config struct and constructor signature.
#pragma once

#include "common/rng.hpp"

namespace ptrng::noise {

/// Sampling policy shared by every noise generator and oscillator
/// config. Passed by value; extend here (not per-Config) when a new
/// sampler knob appears.
struct SamplerPolicy {
  /// Gaussian engine: Ziggurat (default) or Polar (the pre-PR-5
  /// streams, bit-for-bit — see §5 "Sampler policy").
  GaussianSampler::Method gauss_method = GaussianSampler::Method::Ziggurat;
};

}  // namespace ptrng::noise
