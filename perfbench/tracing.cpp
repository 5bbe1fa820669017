#include "tracing.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <stdexcept>

namespace perfbench {
namespace {

std::mutex g_logs_mutex;

}  // namespace

std::int64_t covered_ns(
    std::int64_t begin, std::int64_t end,
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals) {
  for (auto& [b, e] : intervals) {
    b = std::clamp(b, begin, end);
    e = std::clamp(e, begin, end);
  }
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t cursor = begin;
  for (const auto& [b, e] : intervals) {
    const std::int64_t from = std::max(b, cursor);
    if (e > from) {
      covered += e - from;
      cursor = e;
    }
  }
  return covered;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans)
    if (s.parent != kNoParent)
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    self[i] = (s.end_ns - s.start_ns) -
              covered_ns(s.start_ns, s.end_ns, std::move(children[i]));
  }
  return self;
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadLog& Tracer::local() {
  // One log per thread, owned by the tracer for the life of the process
  // so spans outlive short-lived client threads.
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    log = new ThreadLog();
    std::lock_guard<std::mutex> lock(g_logs_mutex);
    logs_.push_back(log);
  }
  return *log;
}

std::uint32_t Tracer::open(Layer layer) {
  ThreadLog& log = local();
  const auto id = static_cast<std::uint32_t>(log.spans.size());
  const std::uint32_t parent = log.stack.empty() ? kNoParent : log.stack.back();
  log.spans.push_back({layer, parent, now_ns(), 0});
  log.stack.push_back(id);
  return id;
}

void Tracer::close(std::uint32_t id) {
  ThreadLog& log = local();
  log.spans[id].end_ns = now_ns();
  log.stack.pop_back();
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(g_logs_mutex);
  for (ThreadLog* log : logs_) {
    log->spans.clear();
    log->stack.clear();
  }
}

std::vector<Span> Tracer::all_spans() const {
  std::lock_guard<std::mutex> lock(g_logs_mutex);
  std::vector<Span> out;
  for (const ThreadLog* log : logs_) {
    const auto base = static_cast<std::uint32_t>(out.size());
    for (Span s : log->spans) {
      if (s.parent != kNoParent) s.parent += base;
      out.push_back(s);
    }
  }
  return out;
}

std::map<Layer, LayerTotals> Tracer::totals() const {
  const std::vector<Span> spans = all_spans();
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<Layer, LayerTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTotals& t = out[spans[i].layer];
    ++t.spans;
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
  }
  return out;
}

namespace {

/// Nearest rank ceil(q * n), guarded against q * n landing a rounding
/// error above an integer (0.999 * 10000 is 9990.000000000002).
std::size_t nearest_rank(double q, std::size_t n) {
  const double x = q * static_cast<double>(n);
  return static_cast<std::size_t>(std::ceil(x - 1e-9 * std::max(1.0, x)));
}

}  // namespace

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("quantile of empty sample");
  const std::size_t rank = nearest_rank(q, sorted.size());
  return sorted[std::min(rank == 0 ? 0 : rank - 1, sorted.size() - 1)];
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  if (values.empty()) throw std::invalid_argument("median of empty sample");
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double fast_decile_of_rates(std::vector<double> rates) {
  std::sort(rates.begin(), rates.end());
  return quantile_sorted(rates, 0.9);
}

double fast_decile_of_times(std::vector<double> times) {
  std::sort(times.begin(), times.end());
  return quantile_sorted(times, 0.1);
}

double highest_supported_percentile(std::size_t n) {
  for (double p : kPercentileLadder) {
    // Samples strictly beyond the nearest-rank p-th percentile.
    const std::size_t rank = nearest_rank(p / 100.0, n);
    if (n >= rank && n - rank >= kMinBeyond) return p;
  }
  return 0.0;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < bins_.size(); ++i) bins_[i] += other.bins_[i];
  long_.insert(long_.end(), other.long_.begin(), other.long_.end());
  count_ += other.count_;
}

std::int64_t LatencyHistogram::quantile_ns(double q) const {
  if (count_ == 0) throw std::invalid_argument("quantile of empty sample");
  const std::size_t rank =
      std::clamp<std::size_t>(nearest_rank(q, count_), 1, count_);
  std::uint64_t seen = 0;
  for (std::size_t ns = 0; ns < bins_.size(); ++ns) {
    seen += bins_[ns];
    if (seen >= rank) return static_cast<std::int64_t>(ns);
  }
  std::vector<std::int64_t> tail = long_;
  std::sort(tail.begin(), tail.end());
  return tail[rank - seen - 1];
}

bool valid_metric_name(std::string_view name) noexcept {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void MetricSet::add(const std::string& name, double value,
                    const std::string& unit) {
  if (!valid_metric_name(name))
    throw std::invalid_argument("invalid metric name: " + name);
  if (has(name)) throw std::invalid_argument("repeated metric: " + name);
  if (!std::isfinite(value))
    throw std::invalid_argument("non-finite metric: " + name);
  entries_.push_back({name, value, unit});
}

bool MetricSet::has(const std::string& name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.name == name; });
}

std::string MetricSet::result_json(bool correct,
                                   const Outcomes& outcomes) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(outcomes.attempted());
  out += ", \"failed\": " + std::to_string(outcomes.failed());
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    std::snprintf(buf, sizeof(buf), "%.17g", e.value);
    if (i) out += ", ";
    out += "\"" + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
