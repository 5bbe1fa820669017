// Stream pins for the one Gaussian engine: one seeded stream per
// consumer (raw sampler, white, filter bank, kasdin), each pinned as
// hexfloat literals on the fully specified Xoshiro256pp streams. Every
// simulated jitter, bit, KAT and campaign report is drawn through these
// consumers, so as long as these pass, a refactor of the sampler or the
// noise layer has moved no realized stream. The pins are exact on every
// platform whose libm matches the CI image's (the ziggurat's wedge and
// tail call exp/log; the flicker calibrations call pow and the trig
// functions).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "common/rng.hpp"
#include "noise/filter_bank.hpp"
#include "noise/kasdin.hpp"
#include "noise/white.hpp"

namespace {

using namespace ptrng;
using namespace ptrng::noise;

TEST(StreamPins, RawSamplerSeed123) {
  GaussianSampler g(123);
  const std::array<double, 6> expected = {
      0x1.0d35bab3db27dp-2,  0x1.8f4f66bab6dd5p+0, 0x1.0207b5a82e9a3p-1,
      -0x1.460fbff58065ap-4, 0x1.d1db3812bb189p-1, 0x1.d6f85432bef6ep+0,
  };
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(g(), expected[i]) << "draw " << i;
}

TEST(StreamPins, WhiteGaussianStream) {
  // WhiteGaussianNoise(2.0, 1000.0, 0x77) — the seed test_noise uses
  // for the fill bit-identity check — stepped through next().
  WhiteGaussianNoise w(2.0, 1000.0, 0x77);
  const std::array<double, 8> expected = {
      -0x1.70394b97b6529p-1, 0x1.72946e8550569p+0,  0x1.052f8bdb7d812p+1,
      -0x1.13a1edca3364ap+0, 0x1.d37de517d733bp+0,  -0x1.407bd87cd8abep+0,
      -0x1.b212a7718818dp+1, 0x1.fdceb71ebf72fp-2,
  };
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(w.next(), expected[i]) << "sample " << i;
}

TEST(StreamPins, FilterBankStream) {
  FilterBankFlicker::Config cfg;
  cfg.amplitude = 1e-2;
  cfg.fs = 1.0;
  cfg.f_min = 1e-4;
  cfg.f_max = 0.25;
  cfg.seed = 0xbac2;
  FilterBankFlicker fb(cfg);
  const std::array<double, 8> expected = {
      -0x1.901d47dcf3beap-3, -0x1.3bdcb14d07d73p-2, -0x1.f86bc5988a756p-2,
      -0x1.721546c9773cep-2, -0x1.daad66069e2e1p-2, -0x1.1eebaee24e6dbp-1,
      -0x1.fbb429f88fc46p-1, -0x1.f4f93ae00d5f8p-2,
  };
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(fb.next(), expected[i]) << "sample " << i;
}

TEST(StreamPins, KasdinStream) {
  KasdinFlicker::Config cfg;
  cfg.alpha = 1.0;
  cfg.sigma_w = 1.0;
  cfg.fs = 1.0;
  cfg.fir_length = 1 << 10;
  cfg.block = 1 << 8;
  cfg.seed = 0x4a5d17;
  KasdinFlicker kf(cfg);
  const std::array<double, 8> expected = {
      0x1.04312acd55d1dp-1,  -0x1.dfe84f5a821bcp-3, 0x1.ef89872008ff1p-2,
      -0x1.b22537917e0ap-1,  -0x1.116c8a8d4e395p+1, -0x1.bda1dec039bd8p-3,
      -0x1.b5dc7385caef2p+0, -0x1.1c22aef8b7aep-4,
  };
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(kf.next(), expected[i]) << "sample " << i;
}

}  // namespace
