// POSTPROC — throughput of the algebraic post-processing stages: one
// push of the whole stream through a fresh BitTransform, and block-sized
// pushes with carry state (the Pipeline hot loop).
// Items processed = RAW input bits, so rows are comparable across
// factors and correctors. Closes the ROADMAP postprocess bench gap.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "trng/bit_stream.hpp"
#include "trng/postprocess.hpp"

namespace {

using namespace ptrng;
using namespace ptrng::trng;

constexpr std::size_t kBits = 1u << 23;  // 8M raw bits

const std::vector<std::uint8_t>& raw_bits() {
  static const std::vector<std::uint8_t> bits = [] {
    std::vector<std::uint8_t> b(kBits);
    Xoshiro256pp rng(0x9057b1);
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.next() & 1u);
    return b;
  }();
  return bits;
}

void bm_xor_decimate(benchmark::State& state) {
  const auto& bits = raw_bits();
  const auto factor = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    XorDecimateTransform t(factor);
    std::vector<std::uint8_t> out;
    out.reserve(bits.size() / factor);
    t.push(bits, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(bits.size()));
}
BENCHMARK(bm_xor_decimate)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void bm_von_neumann(benchmark::State& state) {
  const auto& bits = raw_bits();
  for (auto _ : state) {
    VonNeumannTransform t;
    std::vector<std::uint8_t> out;
    out.reserve(bits.size() / 4);
    t.push(bits, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(bits.size()));
}
BENCHMARK(bm_von_neumann)->Unit(benchmark::kMillisecond);

void bm_transform_streaming_blocks(benchmark::State& state) {
  // The Pipeline hot loop: 4096-bit pushes with carry state across block
  // boundaries (xor/2 then von Neumann chained).
  const auto& bits = raw_bits();
  const std::size_t block = 4096;
  std::vector<std::uint8_t> mid, out;
  for (auto _ : state) {
    XorDecimateTransform x2(2);
    VonNeumannTransform vn;
    out.clear();
    for (std::size_t pos = 0; pos < bits.size(); pos += block) {
      mid.clear();
      x2.push(std::span<const std::uint8_t>(bits).subspan(
                  pos, std::min(block, bits.size() - pos)),
              mid);
      vn.push(mid, out);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(bits.size()));
}
BENCHMARK(bm_transform_streaming_blocks)->Unit(benchmark::kMillisecond);

void bm_bias(benchmark::State& state) {
  const auto& bits = raw_bits();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bias(bits));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(bits.size()));
}
BENCHMARK(bm_bias)->Unit(benchmark::kMillisecond);

void bm_serial_correlation(benchmark::State& state) {
  const auto& bits = raw_bits();
  for (auto _ : state) {
    benchmark::DoNotOptimize(serial_correlation(bits));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(bits.size()));
}
BENCHMARK(bm_serial_correlation)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
