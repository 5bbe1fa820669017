// Shared benchmark types: the run configuration every phase receives and
// the report it writes metrics and failures into.
//
// A workload runs all three phases — physics (generators -> health ->
// conditioner), service (Hash-DRBG byte service) and campaign (fleet
// corner grid) — so every run can print every metric; the workload
// decides which phase gets most of the measured time (kMainShare).
#pragma once

#include <sched.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "tracing.hpp"
#include "trng/conditioning.hpp"
#include "trng/continuous_health.hpp"

namespace perfbench {

/// Share of --seconds given to the workload's own phase; the other two
/// phases split the rest evenly.
inline constexpr double kMainShare = 0.6;

/// Widest pool the benchmark uses (the baseline host has 4 CPUs).
inline constexpr std::size_t kMaxPoolWidth = 4;

/// Sampling divider K of the paper eRO in the physics and service
/// phases. Not 1000: the paper pair's +-1.5e-3 mismatch advances the
/// sampling phase by 1000 * 3e-3 = 3 whole cycles per bit there, so the
/// raw stream is nearly periodic between jitter kicks and the SP
/// 800-90B repetition-count test alarms (~170 per 200k bits). K = 200
/// is the campaign's and the health bench's operating point.
inline constexpr std::uint32_t kEroDivider = 200;

/// Conditioner settings of the physics chains and the service: 32-byte
/// full-entropy blocks at an assessed 0.5 bit of min-entropy per raw bit.
inline ptrng::trng::ConditionerConfig conditioner_config() {
  ptrng::trng::ConditionerConfig c;
  c.h_min = 0.5;
  c.block_bytes = 32;
  c.full_entropy_margin = true;
  return c;
}

/// SP 800-90B continuous-health settings of every phase.
inline ptrng::trng::ContinuousHealthConfig health_config() {
  ptrng::trng::ContinuousHealthConfig c;
  c.h_min = 0.5;
  c.false_alarm = 0x1p-20;
  c.apt_window = 1024;
  c.total_failure_alarms = 3;
  c.recovery_bits = 4096;
  return c;
}

struct RunConfig {
  std::uint64_t seed = 0;
  bool trace = false;
  std::size_t width = 1;    ///< pool width: min(kMaxPoolWidth, nproc)
  std::string scratch_dir;  ///< checkpoint files live here
};

/// What a phase hands back to main().
struct PhaseReport {
  MetricSet* metrics = nullptr;  ///< end-to-end or per-layer, per mode
  Outcomes outcomes;
  std::vector<std::string> failures;  ///< correctness-gate violations
  double trace_overhead = 0.0;        ///< traced mode: traced/untraced - 1

  void fail(const std::string& what) { failures.push_back(what); }
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
};

/// Pins the calling thread to the i-th (mod count) CPU it may run on,
/// and restores its previous CPU mask on destruction. On a shared host
/// one core can sit under a busy neighbour for minutes while the others
/// are quiet; a single-threaded layer timed on one core then reads that
/// core's luck. Rotating the measuring thread over every core samples
/// them all evenly. Threads created while pinned inherit the one-CPU
/// mask: create only threads that end before the pin does.
class PinnedToCpu {
 public:
  explicit PinnedToCpu(std::size_t i) {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    auto k = static_cast<int>(i % static_cast<std::size_t>(CPU_COUNT(&saved_)));
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &saved_) || k-- != 0) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
      return;
    }
  }
  ~PinnedToCpu() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinnedToCpu(const PinnedToCpu&) = delete;
  PinnedToCpu& operator=(const PinnedToCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// Runs the physics phase; calls `between_rounds` after each round of
/// family slices, outside every timed slice.
void run_physics(const RunConfig& run, double budget_s, PhaseReport& out,
                 const std::function<void()>& between_rounds);
void run_service(const RunConfig& run, double budget_s, PhaseReport& out);
void run_campaign_phase(const RunConfig& run, double budget_s,
                        PhaseReport& out);

/// One timed set-up of each phase's devices: the three physics chains;
/// a service with its `start()` root-seed draw; the campaign grid.
/// Seconds; tearing down is not timed.
[[nodiscard]] double physics_setup_s(std::uint64_t seed);
[[nodiscard]] double service_setup_s(std::uint64_t seed);
[[nodiscard]] double campaign_setup_s(std::uint64_t seed);

/// Prints a progress/diagnostic line on stderr.
void note(const std::string& line);

}  // namespace perfbench
