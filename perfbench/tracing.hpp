// Benchmark-side instrumentation: spans recorded around calls into the
// library's public API, the self-time and percentile arithmetic the
// reports are built from, metric-name validation and the
// attempted/failed ledger behind `error_rate`. Nothing here reaches
// into src/ — every layer is timed from the outside.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// --- spans -----------------------------------------------------------------

/// The layer boundaries a span can sit on.
enum class Layer : std::uint8_t {
  kCondition,       ///< HashConditioner::condition
  kPipeline,        ///< Pipeline::generate_into (pump, taps, transforms)
  kSource,          ///< BitSource::generate_into of a generator
  kHealth,          ///< HealthEngine as a pipeline tap
  kFill,            ///< RandomByteService::Stream::fill
  kFold,            ///< CornerAccumulator::fold
  kCheckpointWrite, ///< model::write_checkpoint
  kCheckpointRead,  ///< model::read_checkpoint
  kBatch,           ///< one campaign batch fan-out
};

inline constexpr std::uint32_t kNoParent = 0xffffffffu;

/// One closed span. `parent` indexes the same thread's log.
struct Span {
  Layer layer;
  std::uint32_t parent;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// Per-layer aggregate over a set of spans.
struct LayerTotals {
  std::uint64_t spans = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

/// Length of the part of [begin, end) covered by the union of
/// `intervals` (each clipped to [begin, end)). Intervals may overlap —
/// children that ran concurrently on other threads, for instance — and
/// overlapping time is counted once.
[[nodiscard]] std::int64_t covered_ns(
    std::int64_t begin, std::int64_t end,
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals);

/// Self time of every span: its duration minus the part its children
/// cover. Result is indexed like `spans`.
[[nodiscard]] std::vector<std::int64_t> self_times(
    const std::vector<Span>& spans);

/// Span recorder. Spans are kept in memory, one log per thread, and are
/// only aggregated after the measured section ends. When disabled,
/// ScopedSpan costs one branch.
class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Drops every recorded span (all threads). Call only while no other
  /// thread is recording; the same holds for totals() and all_spans().
  void clear();

  /// Per-layer totals over every thread's log.
  [[nodiscard]] std::map<Layer, LayerTotals> totals() const;

  /// Spans recorded by all threads, concatenated with parents rebased.
  [[nodiscard]] std::vector<Span> all_spans() const;

  // Recording side (used by ScopedSpan).
  std::uint32_t open(Layer layer);
  void close(std::uint32_t id);

 private:
  struct ThreadLog {
    std::vector<Span> spans;
    std::vector<std::uint32_t> stack;
  };
  ThreadLog& local();

  std::atomic<bool> enabled_{false};
  std::vector<ThreadLog*> logs_;  // guarded by the mutex in tracing.cpp
};

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer) {
    Tracer& t = Tracer::instance();
    if (t.enabled()) id_ = t.open(layer);
  }
  ~ScopedSpan() {
    if (id_ != kNoParent) Tracer::instance().close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::uint32_t id_ = kNoParent;
};

// --- statistics --------------------------------------------------------------

/// Nearest-rank quantile of `sorted` (ascending), q in [0, 1].
[[nodiscard]] double quantile_sorted(const std::vector<double>& sorted,
                                     double q);

[[nodiscard]] double median(std::vector<double> values);

/// The fastest decile of per-slice samples: the 90th percentile of
/// rates, the 10th of times. On a shared host, load from other tenants
/// only ever slows a slice down, and no slice runs faster than the
/// program can; so this tracks the program's own speed, where a median
/// follows the neighbours as soon as they are busy for half of the run.
[[nodiscard]] double fast_decile_of_rates(std::vector<double> rates);
[[nodiscard]] double fast_decile_of_times(std::vector<double> times);

/// The percentile ladder tails are reported on, highest first.
inline constexpr double kPercentileLadder[] = {99.99, 99.9, 99.0, 95.0,
                                               90.0,  75.0, 50.0};

/// Samples a reported percentile needs strictly beyond it.
inline constexpr std::size_t kMinBeyond = 10;

/// Highest ladder percentile with at least kMinBeyond samples strictly
/// beyond it in a sample of size n, or 0 when even the median is not
/// supported.
[[nodiscard]] double highest_supported_percentile(std::size_t n);

/// Latency sample with exact nearest-rank quantiles in constant memory:
/// whole nanoseconds below kRange are counted in one bin each, longer
/// ones are kept as they are. The bins are allocated and zeroed up front,
/// so the resident size does not depend on how many samples arrive.
class LatencyHistogram {
 public:
  static constexpr std::int64_t kRange = 1 << 18;  ///< ns, ~262 us

  LatencyHistogram() : bins_(kRange, 0) {}

  void record(std::int64_t ns) {
    ++count_;
    if (ns < 0) ns = 0;
    if (ns < kRange)
      ++bins_[static_cast<std::size_t>(ns)];
    else
      long_.push_back(ns);
  }
  void merge(const LatencyHistogram& other);
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  /// Nearest-rank q-quantile in ns, q in [0, 1]; the same value
  /// quantile_sorted() gives on the sorted samples.
  [[nodiscard]] std::int64_t quantile_ns(double q) const;

 private:
  std::vector<std::uint32_t> bins_;
  std::vector<std::int64_t> long_;
  std::uint64_t count_ = 0;
};

// --- outcome ledger ---------------------------------------------------------

/// Operations attempted and failed across a run. A verdict (an attack
/// alarm in the campaign) is not a failure; a call that did not do its
/// job is.
class Outcomes {
 public:
  void record(bool ok) noexcept {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void merge(const Outcomes& other) noexcept {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
  }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  /// failed / attempted; 0 when nothing was attempted.
  [[nodiscard]] double error_rate() const noexcept {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- metric output ------------------------------------------------------------

/// Metric names: 1..64 characters of [A-Za-z0-9_.-], starting with a
/// letter or digit.
[[nodiscard]] bool valid_metric_name(std::string_view name) noexcept;

/// Ordered name -> (value, unit) map rendered as the result line.
class MetricSet {
 public:
  /// Throws std::invalid_argument on an invalid or repeated name, or a
  /// non-finite value.
  void add(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool has(const std::string& name) const;
  /// The result line: {"correct":...,"attempted":...,"failed":...,
  /// "metrics":{name:{"value":v,"unit":u},...}}.
  [[nodiscard]] std::string result_json(bool correct,
                                        const Outcomes& outcomes) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench
