// Deterministic pseudo-random number generation for simulations.
//
// The library deliberately does not use std::mt19937/std::normal_distribution
// because their outputs are not guaranteed to be identical across standard
// library implementations; reproducibility of every bench/example table (docs/ARCHITECTURE.md §3)
// depends on a fully specified generator.
//
//  * SplitMix64   — seed expansion (Steele, Lea, Flood 2014)
//  * Xoshiro256pp — main uniform generator (Blackman & Vigna 2019)
//  * GaussianSampler — normal sampler on top of Xoshiro256pp: the
//    256-layer ziggurat (common/ziggurat.hpp), the library's one Gaussian
//    engine (docs/ARCHITECTURE.md §5 "Gaussian engine")
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace ptrng {

/// SplitMix64: a tiny 64-bit generator used to expand a single seed into the
/// state of larger generators. Passes BigCrush when used standalone.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next 64 uniformly distributed bits.
  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256++ 1.0: fast, high-quality 64-bit generator with 2^256-1 period.
/// Satisfies the C++ UniformRandomBitGenerator requirements.
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from one 64-bit seed via SplitMix64.
  explicit Xoshiro256pp(std::uint64_t seed = 0x8badf00ddeadbeefULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept { return next(); }

  /// Next 64 uniformly distributed bits.
  std::uint64_t next() noexcept;

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in (0, 1] — safe as log() argument.
  double uniform_pos() noexcept {
    return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Raw 256-bit state, for lane-parallel (struct-of-arrays) stepping in
  /// the SIMD kernels and for state spill/reload around their scalar
  /// slow paths. A state restored via set_state continues the exact
  /// word sequence; an all-zero state is invalid (the generator would
  /// stick at zero) and must never be installed.
  [[nodiscard]] const std::array<std::uint64_t, 4>& state() const noexcept {
    return state_;
  }
  void set_state(const std::array<std::uint64_t, 4>& state) noexcept {
    state_ = state;
  }

 private:
  std::array<std::uint64_t, 4> state_{};
};

/// Standard-normal sampler (mean 0, variance 1): the 256-layer
/// ziggurat (common/ziggurat.hpp) over one Xoshiro256pp stream. It keeps
/// no cross-draw state, so the stream is a pure function of the seed.
class GaussianSampler {
 public:
  explicit GaussianSampler(std::uint64_t seed = 0x5eedcafef00dULL) noexcept
      : rng_(seed) {}
  explicit GaussianSampler(Xoshiro256pp rng) noexcept : rng_(rng) {}

  /// One N(0,1) sample.
  double operator()() noexcept;

  /// Batched draws, bit-identical to out.size() operator()() calls on
  /// the same stream (the scalar path inlined across the block).
  void fill(std::span<double> out) noexcept;

  /// Multi-stream batched draws for the SIMD lane kernels: four
  /// samplers advance in lockstep and their draws land interleaved,
  /// out[i*4 + l] = the i-th draw of lanes[l] (out.size() must be a
  /// multiple of 4). Each lane's subsequence is bit-identical to the
  /// same number of operator()() calls on that sampler alone — lanes
  /// own independent streams, so batching across them never reorders
  /// any single stream. Rides the vectorized common/simd kernel when
  /// simd::active().
  static void fill_lanes(const std::array<GaussianSampler*, 4>& lanes,
                         std::span<double> out) noexcept;

  /// One N(mean, stddev^2) sample.
  double operator()(double mean, double stddev) noexcept {
    return mean + stddev * (*this)();
  }

 private:
  Xoshiro256pp rng_;
};

}  // namespace ptrng
