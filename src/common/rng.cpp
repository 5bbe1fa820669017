#include "common/rng.hpp"

#include "common/ziggurat.hpp"

namespace ptrng {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Xoshiro256pp::Xoshiro256pp(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& word : state_) word = sm.next();
}

std::uint64_t Xoshiro256pp::next() noexcept {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double GaussianSampler::operator()() noexcept {
  return ZigguratNormal::draw(rng_);
}

void GaussianSampler::fill(std::span<double> out) noexcept {
  ZigguratNormal::fill(rng_, out);
}

void GaussianSampler::fill_lanes(const std::array<GaussianSampler*, 4>& lanes,
                                 std::span<double> out) noexcept {
  ZigguratNormal::fill_lanes4(
      {&lanes[0]->rng_, &lanes[1]->rng_, &lanes[2]->rng_, &lanes[3]->rng_},
      out.size() / 4, out.data());
}

}  // namespace ptrng
