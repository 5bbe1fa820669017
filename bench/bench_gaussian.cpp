// RNG — throughput of the library's one Gaussian engine, the 256-layer
// ziggurat behind GaussianSampler: scalar draws, batched fill(), and
// pool-parallel fill over independent chunk_seed streams. Row names keep
// the /ziggurat suffix so budgets and trajectories stay comparable.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <iostream>
#include <span>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace {

using namespace ptrng;

constexpr std::size_t kBlockSamples = 1u << 20;

// Bit-identity preamble (bench_multi_ring conventions): fill() must
// reproduce the scalar stream exactly before any timing here is trusted.
bool verify_determinism() {
  GaussianSampler stepped(0xbe9c), batched(0xbe9c);
  std::vector<double> expected(10001);
  for (auto& x : expected) x = stepped();
  std::vector<double> got(expected.size());
  batched.fill(std::span<double>(got).subspan(0, 777));
  batched.fill(std::span<double>(got).subspan(777));
  return got == expected && batched() == stepped();
}

void bm_gaussian_scalar(benchmark::State& state) {
  GaussianSampler g(0x9a55);
  for (auto _ : state) benchmark::DoNotOptimize(g());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_gaussian_scalar)->Name("bm_gaussian_scalar/ziggurat");

// One 1M-sample block per iteration through the single-stream fill()
// fast path.
void bm_gaussian_fill(benchmark::State& state) {
  GaussianSampler g(0x9a55);
  std::vector<double> block(kBlockSamples);
  for (auto _ : state) {
    g.fill(block);
    benchmark::DoNotOptimize(block.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(block.size()));
}
BENCHMARK(bm_gaussian_fill)
    ->Name("bm_gaussian_fill/ziggurat")
    ->Unit(benchmark::kMillisecond);

// Pool-parallel fill: 8 fixed, independent chunk_seed streams each fill
// 1/8 of the block one-per-task (§5 batched-noise rules), so the output
// is identical for any pool width; Arg is the pool width. On the 1-core
// CI container the speedup only shows on multi-core hosts (à la
// bench_multi_ring).
void bm_gaussian_fill_threads(benchmark::State& state) {
  ThreadPool::global().resize(static_cast<std::size_t>(state.range(0)));
  constexpr std::size_t kTasks = 8;
  constexpr std::size_t kChunk = kBlockSamples / kTasks;
  std::vector<GaussianSampler> streams;
  streams.reserve(kTasks);
  for (std::size_t t = 0; t < kTasks; ++t)
    streams.emplace_back(chunk_seed(0x9a55, t));
  std::vector<double> block(kBlockSamples);
  for (auto _ : state) {
    parallel_for(0, kTasks, 1, [&](std::size_t begin, std::size_t end) {
      for (std::size_t t = begin; t < end; ++t)
        streams[t].fill(std::span<double>(block).subspan(t * kChunk, kChunk));
    });
    benchmark::DoNotOptimize(block.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(block.size()));
  ThreadPool::global().resize(0);
}
BENCHMARK(bm_gaussian_fill_threads)
    ->Name("bm_gaussian_fill_threads/ziggurat")
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  const bool deterministic = verify_determinism();
  std::cout << "sampler determinism (fill vs scalar): "
            << (deterministic ? "OK" : "FAILED") << "\n\n";
  if (!deterministic) return 1;  // fail bench-smoke, timings untrustworthy
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
