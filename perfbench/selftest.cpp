// Self-tests for the benchmark's own helpers: the percentile rule,
// span self time under overlapping children, metric-name validation
// and error_rate accounting. run.py runs this before every benchmark
// run; exit status 0 means every check held.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "tracing.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

void percentile_rule() {
  // p99 needs 10 samples beyond the nearest-rank p99: n = 1000 gives
  // rank 990 and exactly 10 beyond.
  expect(highest_supported_percentile(1000) == 99.0, "n=1000 -> p99");
  expect(highest_supported_percentile(999) == 95.0, "n=999 -> p95");
  expect(highest_supported_percentile(10000) == 99.9, "n=10000 -> p99.9");
  expect(highest_supported_percentile(100000) == 99.99, "n=1e5 -> p99.99");
  expect(highest_supported_percentile(20) == 50.0, "n=20 -> p50");
  expect(highest_supported_percentile(19) == 0.0, "n=19 -> nothing");

  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i);
  expect(quantile_sorted(samples, 0.99) == 990.0 &&
             quantile_sorted(samples, 0.5) == 500.0,
         "nearest-rank p99 of 1..1000 is 990, p50 is 500");
  expect(fast_decile_of_rates(samples) == 900.0 &&
             fast_decile_of_times(samples) == 100.0,
         "fastest decile: p90 of rates, p10 of times");
  expect(median({3.0, 1.0, 2.0}) == 2.0 && median({4.0, 1.0, 2.0, 3.0}) == 2.5,
         "median");

  // The latency histogram gives the exact nearest-rank quantile, also
  // when the rank falls among the samples beyond its binned range and
  // after samples from two recorders are merged.
  LatencyHistogram a, b;
  std::vector<double> all;
  std::uint64_t x = 12345;
  for (int i = 0; i < 5000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    std::int64_t ns = static_cast<std::int64_t>(x >> 44);  // < 2^20
    if (i % 7 != 0) ns %= 60000;  // most short, every 7th maybe long
    (i % 2 ? a : b).record(ns);
    all.push_back(static_cast<double>(ns));
  }
  a.merge(b);
  std::sort(all.begin(), all.end());
  bool same = a.count() == all.size();
  for (double q : {0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0})
    same = same && static_cast<double>(a.quantile_ns(q)) ==
                       quantile_sorted(all, q);
  expect(same, "histogram quantiles equal sorted-sample quantiles");
  expect(all.back() >= LatencyHistogram::kRange,
         "the histogram test reaches past the binned range");
}

void span_self_time() {
  // Parent [0, 100) with children [10, 40) and [30, 60) overlapping
  // (e.g. run on two threads) plus [90, 120) running past the parent:
  // covered = [10, 60) + [90, 100) = 60, self = 40.
  expect(covered_ns(0, 100, {{10, 40}, {30, 60}, {90, 120}}) == 60,
         "overlapping children are covered once and clipped");
  expect(covered_ns(0, 100, {{20, 30}, {20, 30}}) == 10,
         "duplicate children count once");
  expect(covered_ns(0, 100, {}) == 0, "no children");

  std::vector<Span> spans = {
      {Layer::kCondition, kNoParent, 0, 100},
      {Layer::kPipeline, 0, 10, 40},
      {Layer::kPipeline, 0, 30, 60},
      {Layer::kSource, 1, 15, 35},
  };
  const auto self = self_times(spans);
  expect(self[0] == 50, "root self = 100 - |[10,60)|");
  expect(self[1] == 10 && self[2] == 30 && self[3] == 20,
         "child self times");
  // Attribution closes: with nested, non-overlapping children the self
  // times sum to the root duration exactly.
  std::vector<Span> nested = {
      {Layer::kCondition, kNoParent, 0, 100},
      {Layer::kPipeline, 0, 5, 95},
      {Layer::kSource, 1, 10, 80},
      {Layer::kHealth, 1, 80, 90},
  };
  std::int64_t sum = 0;
  for (std::int64_t s : self_times(nested)) sum += s;
  expect(sum == 100, "self times of a nested tree sum to the root span");

  // The recorder: nested ScopedSpans land with the right parents.
  Tracer& t = Tracer::instance();
  t.clear();
  t.set_enabled(true);
  {
    const ScopedSpan outer(Layer::kCondition);
    { const ScopedSpan inner(Layer::kSource); }
    { const ScopedSpan inner(Layer::kHealth); }
  }
  t.set_enabled(false);
  { const ScopedSpan ignored(Layer::kFill); }
  const auto recorded = t.all_spans();
  expect(recorded.size() == 3 && recorded[0].parent == kNoParent &&
             recorded[1].parent == 0 && recorded[2].parent == 0,
         "recorder nests spans and ignores them while disabled");
  const auto totals = t.totals();
  const auto& root = totals.at(Layer::kCondition);
  expect(root.self_ns + totals.at(Layer::kSource).total_ns +
                 totals.at(Layer::kHealth).total_ns ==
             root.total_ns,
         "recorded self time closes");
  t.clear();
}

void metric_names() {
  for (const char* ok : {"setup_s", "fullentropy_bits_per_s.ero",
                         "source.multi_ring.scaling_eff", "9lives", "a-b",
                         "x"})
    expect(valid_metric_name(ok), std::string("accepts ") + ok);
  for (const char* bad : {"", "_lead", ".lead", "-lead", "has space",
                          "slash/no", "colon:no", "unicode\xc3\xa9"})
    expect(!valid_metric_name(bad), std::string("rejects '") + bad + "'");
  expect(valid_metric_name(std::string(64, 'a')), "64 chars ok");
  expect(!valid_metric_name(std::string(65, 'a')), "65 chars rejected");

  MetricSet set;
  set.add("a.b", 1.5, "s");
  bool threw = false;
  try {
    set.add("a.b", 2.0, "s");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "repeated metric rejected");
  threw = false;
  try {
    set.add("nan", std::nan(""), "s");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "non-finite metric rejected");
  Outcomes none;
  none.record(true);
  expect(set.result_json(true, none) ==
             "{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
             "\"metrics\": {\"a.b\": {\"value\": 1.5, \"unit\": \"s\"}}}",
         "result line format");
}

void error_rate_accounting() {
  Outcomes o;
  expect(o.error_rate() == 0.0 && o.attempted() == 0, "empty ledger");
  for (int i = 0; i < 7; ++i) o.record(true);
  o.record(false);
  expect(o.attempted() == 8 && o.failed() == 1 && o.error_rate() == 0.125,
         "1 of 8 failed");
  Outcomes other;
  other.record(false);
  other.record(true);
  o.merge(other);
  expect(o.attempted() == 10 && o.failed() == 2 && o.error_rate() == 0.2,
         "merge adds both counts");
}

}  // namespace

int main() {
  percentile_rule();
  span_self_time();
  metric_names();
  error_rate_accounting();
  if (g_failures == 0) std::fprintf(stderr, "perfbench selftest: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
