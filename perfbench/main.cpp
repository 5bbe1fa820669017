// perfbench_trng — end-to-end TRNG benchmark.
//
//   perfbench_trng --workload <physics_entropy|service_expand|fleet_campaign>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--scratch-dir <dir>]
//
// Every workload runs the physics, service and campaign phases; the
// workload's own phase gets kMainShare of --seconds. With --trace 0 the
// last stdout line carries the end-to-end metrics, with --trace 1 the
// per-layer metrics. Any failed correctness gate exits 1 without a
// result line. README.md documents workloads, metrics and predictions.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/parallel.hpp"

namespace perfbench {

void note(const std::string& line) { std::cerr << "perfbench: " << line << "\n"; }

namespace {

enum class Phase { kPhysics, kService, kCampaign };

/// Set-ups timed after each physics round (see main()). One set-up
/// takes about 2 ms, most of it the service's root-seed draw. On the
/// baseline host the same set-up runs at one of two speeds, 0.9 or
/// 1.6 ms, and the host stays in one of them for seconds at a time, so
/// even the median of many set-ups taken in one burst jumps between
/// runs. Spread over the phase, their median does not.
constexpr std::size_t kSetupsPerRound = 4;

struct WorkloadSpec {
  const char* name;
  Phase main;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"physics_entropy", Phase::kPhysics},
    {"service_expand", Phase::kService},
    {"fleet_campaign", Phase::kCampaign},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_trng: " << why
            << "\nusage: perfbench_trng --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--scratch-dir <dir>]\n";
  std::exit(2);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  RunConfig run;
  double seconds = 0.0;
  bool have_seed = false, have_trace = false;
  run.scratch_dir = ".bench_build/perfbench-scratch";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        workload = val;
      } else if (arg == "--seed") {
        run.seed = std::stoull(val);
        have_seed = true;
      } else if (arg == "--seconds") {
        seconds = std::stod(val);
      } else if (arg == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        run.trace = val == "1";
        have_trace = true;
      } else if (arg == "--scratch-dir") {
        run.scratch_dir = val;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + val);
    }
  }
  const auto* spec = std::find_if(
      std::begin(kWorkloads), std::end(kWorkloads),
      [&](const WorkloadSpec& w) { return workload == w.name; });
  if (spec == std::end(kWorkloads)) usage("unknown workload '" + workload + "'");
  if (!have_seed || !have_trace || !(seconds > 0.0))
    usage("--seed, --trace and a positive --seconds are required");

  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  run.width = std::min(kMaxPoolWidth, nproc);

  // Set-up samples: kSetupsPerRound after every physics round, so they
  // spread over the phase instead of sitting in one moment of host
  // load. Each builds every phase's devices once, pinned to the next
  // CPU in turn; the producer thread a service starts inherits the pin
  // and is joined before the pin is lifted.
  std::vector<double> setups;
  const auto sample_setups = [&] {
    for (std::size_t k = 0; k < kSetupsPerRound; ++k) {
      const std::size_t i = setups.size();
      const PinnedToCpu pin(i);
      const std::uint64_t seed = ptrng::chunk_seed(run.seed, 1000 + i);
      setups.push_back(physics_setup_s(seed) + service_setup_s(seed) +
                       campaign_setup_s(seed));
    }
  };

  MetricSet metrics;
  PhaseReport reports[3];
  const double other_share = (1.0 - kMainShare) / 2.0;
  try {
    for (Phase phase : {Phase::kPhysics, Phase::kService, Phase::kCampaign}) {
      PhaseReport& rep = reports[static_cast<int>(phase)];
      rep.metrics = &metrics;
      const double budget =
          seconds * (phase == spec->main ? kMainShare : other_share);
      const std::int64_t t0 = now_ns();
      switch (phase) {
        case Phase::kPhysics:
          run_physics(run, budget, rep, sample_setups);
          break;
        case Phase::kService: run_service(run, budget, rep); break;
        case Phase::kCampaign: run_campaign_phase(run, budget, rep); break;
      }
      note("phase " + std::to_string(static_cast<int>(phase)) + " took " +
           std::to_string(seconds_since(t0)) + " s");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_trng: aborted: " << e.what() << "\n";
    return 1;
  }

  Outcomes outcomes;
  bool correct = true;
  for (const PhaseReport& rep : reports) {
    outcomes.merge(rep.outcomes);
    for (const std::string& f : rep.failures) {
      std::cerr << "perfbench_trng: FAILED " << f << "\n";
      correct = false;
    }
  }
  if (!correct) return 1;

  if (run.trace) {
    metrics.add("trace_overhead",
                reports[static_cast<int>(spec->main)].trace_overhead, "ratio");
    metrics.add("error_rate", outcomes.error_rate(), "ratio");
  } else {
    metrics.add("setup_s", median(setups), "s");
    metrics.add("peak_rss_mb", peak_rss_mb(), "MiB");
  }
  std::cout << metrics.result_json(correct, outcomes) << std::endl;
  return 0;
}
