// FLEETCAMPAIGN — the fleet campaign end to end on its actual workload
// shape: shard costs are wildly SKEWED (an attacked eRO device runs the
// per-period modulation path, ~10x a healthy device) and heavy shards
// sit CONTIGUOUSLY in shard-index order (the attack axis is innermost,
// so a corner's devices are neighbours). The pool claims one shard at a
// time (grain 1), so a run of heavy shards spreads across the workers.
//
// Rows:
//  * bm_fleet_campaign_serial — one-thread end-to-end campaign cost,
//    the gated row;
//  * bm_fleet_campaign_pool/W — the same campaign at pool width W.
//
// The pool-width row is runtime-registered: on a single-CPU host it
// measures oversubscription noise, not scaling, so it gets the
// ":informational" suffix bench_diff.py skips. The preamble verifies
// that the campaign report is byte-identical at width 1 and at width W
// before any timing is trusted.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <iostream>
#include <string>
#include <thread>

#include "common/parallel.hpp"
#include "model/fleet_campaign.hpp"

namespace {

using namespace ptrng;
using namespace ptrng::model;

constexpr std::size_t kPoolWidth = 4;

CampaignConfig bench_config() {
  CampaignConfig config;
  // First 4 grid cells: ero/180nm/tt/f0 under none/em_weak/em_strong/
  // lock — one light corner, three heavy ones.
  config.corners = 4;
  config.seeds = 4;
  config.bits_per_shard = 2000;
  config.batch_size = 16;  // one batch: all shards in one fan-out
  return config;
}

std::string report_at_width(std::size_t width) {
  ThreadPool::global().resize(width);
  const auto json = run_campaign(bench_config()).json();
  ThreadPool::global().resize(0);
  return json;
}

void bm_fleet_campaign_at(benchmark::State& state, std::size_t width) {
  ThreadPool::global().resize(width);
  const auto config = bench_config();
  for (auto _ : state) {
    auto report = run_campaign(config);
    benchmark::DoNotOptimize(report.shards_folded);
  }
  ThreadPool::global().resize(0);
}

void bm_fleet_campaign_serial(benchmark::State& state) {
  bm_fleet_campaign_at(state, 1);
}
BENCHMARK(bm_fleet_campaign_serial)->Unit(benchmark::kMillisecond);

void bm_fleet_campaign_pool(benchmark::State& state) {
  bm_fleet_campaign_at(state, static_cast<std::size_t>(state.range(0)));
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << "=== FLEETCAMPAIGN: skewed shards on the thread pool ===\n"
            << "hardware concurrency " << std::thread::hardware_concurrency()
            << "\n";
  const bool agree = report_at_width(1) == report_at_width(kPoolWidth);
  std::cout << "report identity (width 1 vs " << kPoolWidth
            << "): " << (agree ? "OK" : "FAILED") << "\n\n";
  if (!agree) return 1;  // fail bench-smoke, timings untrustworthy
  benchmark::Initialize(&argc, argv);
  const bool single_cpu = std::thread::hardware_concurrency() <= 1;
  const std::string name = single_cpu
                               ? "bm_fleet_campaign_pool:informational"
                               : "bm_fleet_campaign_pool";
  benchmark::RegisterBenchmark(name.c_str(), bm_fleet_campaign_pool)
      ->Arg(static_cast<std::int64_t>(kPoolWidth))
      ->Unit(benchmark::kMillisecond)
      ->MeasureProcessCPUTime()
      ->UseRealTime();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
