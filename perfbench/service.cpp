// Service phase: RandomByteService over a paper eRO source, three
// closed-loop clients (the calling thread plus two more) each issuing
// 4 KiB fills; with the producer that is four busy threads.
// End-to-end: aggregate DRBG bytes/s, fill latency p50 (typical fill
// cost) and p99 (tail, stalls included).
// Traced: DRBG expand vs reseed cost per fill, ring occupancy, reseed
// counts and the producer's source cost.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/parallel.hpp"
#include "layers.hpp"
#include "trng/continuous_health.hpp"
#include "trng/ero_trng.hpp"
#include "trng/rbg_service.hpp"

namespace perfbench {
namespace {

using namespace ptrng;
using namespace ptrng::trng;
using FillStatus = RandomByteService::FillStatus;

constexpr std::size_t kClients = 3;
constexpr std::size_t kFillBytes = 4096;
constexpr double kWindowS = 0.1;  ///< a client moves CPU every window

RbgServiceConfig service_config() {
  RbgServiceConfig c;
  c.conditioner = conditioner_config();
  // ~50k fills/s across the clients need ~50 reseed blocks/s, under a
  // tenth of what the eRO producer conditions.
  c.drbg.reseed_interval = 1024;
  c.drbg.prediction_resistance = false;
  c.drbg.max_bytes_per_request = 1u << 16;
  c.ring_capacity = 64;
  c.wait_budget = std::chrono::milliseconds(2000);
  c.pipeline_block_bits = 640;
  return c;
}

/// A running service over its own generator; members in dependency
/// order (the service stops and joins its producer first on
/// destruction).
struct Rig {
  EroTrng generator;
  TimedSource source;
  HealthEngine health{health_config()};
  RandomByteService service;

  explicit Rig(std::uint64_t seed)
      : generator(paper_trng(kEroDivider, seed)),
        source(generator, Layer::kSource),
        service(source, health, service_config()) {
    service.start();
  }
};

/// One client's record. Latencies go into a fixed-size histogram, so
/// memory does not grow with the fill rate.
struct ClientLog {
  LatencyHistogram latency;  ///< every fill, ns
  std::vector<double> window_p50_us;  ///< median fill of each window
  std::vector<std::byte> first_fill;
  Outcomes outcomes;
  std::int64_t end_ns = 0;   ///< end of the client's last fill
  std::int64_t busy_ns = 0;  ///< first fill start to last fill end
  // Traced legs only.
  double plain_us = 0, plain_n = 0;    ///< fills without a reseed
  double reseed_us = 0, reseed_n = 0;  ///< fills that reseeded
  double ring_sum = 0, ring_samples = 0, ring_empty = 0;
  std::uint64_t reseeds = 0;
};

/// Closed loop of fills from `start` for `windows` windows of kWindowS;
/// window w runs pinned to CPU (cpu_offset + w).
void client_loop(RandomByteService& svc, RandomByteService::Stream& stream,
                 std::int64_t start, std::size_t windows,
                 std::size_t cpu_offset, bool traced, ClientLog& log) {
  std::vector<std::byte> buf(kFillBytes);
  std::vector<double> window_us;  // reused, so memory stays flat
  const auto window_ns = static_cast<std::int64_t>(kWindowS * 1e9);
  std::int64_t t = now_ns();
  const std::int64_t first = t;
  for (std::size_t w = 0; w < windows; ++w) {
    const PinnedToCpu pin(cpu_offset + w);
    window_us.clear();
    const std::int64_t window_end =
        start + static_cast<std::int64_t>(w + 1) * window_ns;
    do {
      std::uint64_t reseeds_before = 0;
      if (traced) {
        const std::size_t ring = svc.ring_size_approx();
        log.ring_sum += static_cast<double>(ring);
        log.ring_samples += 1;
        if (ring == 0) log.ring_empty += 1;
        reseeds_before = LedgerAdapter::stream_reseeds(stream);
      }
      const std::int64_t t0 = now_ns();
      FillStatus st;
      {
        const ScopedSpan span(Layer::kFill);
        st = stream.fill(buf);
      }
      t = now_ns();
      log.outcomes.record(st == FillStatus::kOk);
      log.latency.record(t - t0);
      const double us = static_cast<double>(t - t0) * 1e-3;
      window_us.push_back(us);
      if (traced) {
        if (LedgerAdapter::stream_reseeds(stream) != reseeds_before) {
          log.reseed_us += us;
          log.reseed_n += 1;
        } else {
          log.plain_us += us;
          log.plain_n += 1;
        }
      }
      if (log.first_fill.empty()) log.first_fill = buf;
    } while (t < window_end);
    log.window_p50_us.push_back(median(window_us));
  }
  log.end_ns = t;
  log.busy_ns = t - first;
  if (traced) log.reseeds = LedgerAdapter::stream_reseeds(stream);
}

struct LegResult {
  std::vector<ClientLog> clients;
  /// All clients' bytes over the common wall interval: from the shared
  /// start to the end of the last fill of any client.
  double bytes_per_s = 0.0;
  std::uint64_t blocks_conditioned = 0;  ///< traced only
  std::uint64_t producer_bits = 0;
  std::map<Layer, LayerTotals> totals;
};

LegResult run_leg(std::uint64_t seed, std::uint64_t id_base, double budget_s,
                  bool traced) {
  Tracer::instance().clear();
  Tracer::instance().set_enabled(traced);
  LegResult r;
  auto rig = std::make_unique<Rig>(seed);
  std::vector<RandomByteService::Stream> streams;
  for (std::size_t c = 0; c < kClients; ++c)
    streams.push_back(rig->service.open_stream(id_base + c));

  r.clients.resize(kClients);
  const auto windows =
      std::max<std::size_t>(4, static_cast<std::size_t>(budget_s / kWindowS));
  const std::int64_t start = now_ns();
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 1; c < kClients; ++c)
      threads.emplace_back([&, c] {
        client_loop(rig->service, streams[c], start, windows, c, traced,
                    r.clients[c]);
      });
    client_loop(rig->service, streams[0], start, windows, 0, traced,
                r.clients[0]);
  }  // joins the client threads
  Tracer::instance().set_enabled(false);
  if (traced)
    r.blocks_conditioned = LedgerAdapter::service_blocks(rig->service);
  rig->service.stop();  // joins the producer before its spans are read
  r.producer_bits = rig->source.bits();
  if (traced) r.totals = Tracer::instance().totals();
  std::int64_t end = start;
  double fills = 0;
  for (const ClientLog& c : r.clients) {
    end = std::max(end, c.end_ns);
    fills += static_cast<double>(c.latency.count());
  }
  r.bytes_per_s = fills * kFillBytes * 1e9 / static_cast<double>(end - start);
  return r;
}

/// A fresh service with one client, built while the pool has
/// `pool_width` threads, must hand consumer `id` the same first fill.
bool first_fill_reproduces(std::uint64_t seed, std::uint64_t id,
                           std::size_t pool_width,
                           const std::vector<std::byte>& ref) {
  ThreadPool::global().resize(pool_width);
  Rig rig(seed);
  auto stream = rig.service.open_stream(id);
  std::vector<std::byte> buf(kFillBytes);
  return stream.fill(buf) == FillStatus::kOk && buf == ref;
}

}  // namespace

double service_setup_s(std::uint64_t seed) {
  const std::int64_t t0 = now_ns();
  const Rig rig(seed);
  return seconds_since(t0);
}

void run_service(const RunConfig& run, double budget_s, PhaseReport& out) {
  // Producer + three clients are the whole load: park the pool's
  // workers so no other thread exists.
  ThreadPool::global().resize(1);
  const std::uint64_t seed = chunk_seed(run.seed, 200);
  const std::uint64_t id_base = chunk_seed(run.seed, 201) >> 16;

  const LegResult plain =
      run_leg(seed, id_base, run.trace ? budget_s / 2 : budget_s, false);

  // Correctness: every fill served, distinct ids distinct bytes, and
  // consumer id_base's first fill reproduced by a fresh service. The
  // measured legs run with the pool parked at width 1 (the service does
  // not use the pool), so the reproduction runs at another width.
  LatencyHistogram latency;  // every fill of every client
  std::vector<double> window_p50_us;
  for (const ClientLog& c : plain.clients) {
    out.outcomes.merge(c.outcomes);
    latency.merge(c.latency);
    window_p50_us.insert(window_p50_us.end(), c.window_p50_us.begin(),
                         c.window_p50_us.end());
  }
  const std::size_t fills = latency.count();
  const double top = highest_supported_percentile(fills);
  out.check(top >= 99.0, "service: " + std::to_string(fills) +
                             " fills do not support a p99");
  out.check(out.outcomes.failed() == 0,
            "service: " + std::to_string(out.outcomes.failed()) +
                " fill(s) did not return kOk");
  for (std::size_t a = 0; a < kClients; ++a)
    for (std::size_t b = a + 1; b < kClients; ++b)
      out.check(plain.clients[a].first_fill != plain.clients[b].first_fill,
                "service: consumers " + std::to_string(a) + " and " +
                    std::to_string(b) + " got identical bytes");
  const std::size_t gate_width = run.width == 1 ? 2 : run.width;
  out.check(first_fill_reproduces(seed, id_base, gate_width,
                                  plain.clients[0].first_fill),
            "service: a fresh service at pool width " +
                std::to_string(gate_width) +
                " did not reproduce consumer 0's first fill");
  ThreadPool::global().resize(run.width);
  if (top < 99.0) return;

  if (!run.trace) {
    // The typical fill cost: the fastest decile of the per-window medians
    // (see README). The tail and the byte rate cover every fill, pooled.
    out.metrics->add("drbg_bytes_per_s", plain.bytes_per_s, "B/s");
    out.metrics->add("fill_p50_us", fast_decile_of_times(window_p50_us), "us");
    out.metrics->add("fill_p99_us",
                     static_cast<double>(latency.quantile_ns(0.99)) * 1e-3,
                     "us");
    out.metrics->add("fill_samples", static_cast<double>(fills), "count");
    char tail[96];
    std::snprintf(tail, sizeof(tail), "p%g = %.3f us", top,
                  static_cast<double>(latency.quantile_ns(top / 100.0)) * 1e-3);
    note("service: " + std::to_string(fills) + " fills pooled over " +
         std::to_string(kClients) + " clients; pooled p50 = " +
         std::to_string(static_cast<double>(latency.quantile_ns(0.5)) * 1e-3) +
         " us; highest supported " + tail);
    return;
  }

  ThreadPool::global().resize(1);
  const LegResult traced = run_leg(seed, id_base, budget_s / 2, true);
  ThreadPool::global().resize(run.width);
  out.trace_overhead = plain.bytes_per_s / traced.bytes_per_s - 1.0;

  double plain_us = 0, plain_n = 0, reseed_us = 0, reseed_n = 0;
  double ring_sum = 0, ring_samples = 0, ring_empty = 0, reseeds = 0;
  double busy_ns = 0;
  for (const ClientLog& c : traced.clients) {
    out.outcomes.merge(c.outcomes);
    plain_us += c.plain_us;
    plain_n += c.plain_n;
    reseed_us += c.reseed_us;
    reseed_n += c.reseed_n;
    ring_sum += c.ring_sum;
    ring_samples += c.ring_samples;
    ring_empty += c.ring_empty;
    reseeds += static_cast<double>(c.reseeds);
    busy_ns += static_cast<double>(c.busy_ns);
  }
  out.check(out.outcomes.failed() == 0, "service: traced fills failed");
  const double traced_fills = plain_n + reseed_n;
  const double expand_us = plain_us / std::max(plain_n, 1.0);
  out.metrics->add("drbg.expand_us_per_fill", expand_us, "us");
  out.metrics->add("drbg.reseed_us_per_fill",
                   (reseed_us - reseed_n * expand_us) / traced_fills,
                   "us");
  out.metrics->add("ring.occupancy_mean", ring_sum / ring_samples, "blocks");
  out.metrics->add("ring.empty_fraction", ring_empty / ring_samples, "ratio");
  out.metrics->add("service.reseeds", reseeds, "count");
  out.metrics->add("service.block_use_ratio",
                   reseeds / static_cast<double>(traced.blocks_conditioned),
                   "ratio");
  const auto src = traced.totals.find(Layer::kSource);
  const auto fill = traced.totals.find(Layer::kFill);
  if (src == traced.totals.end() || fill == traced.totals.end()) {
    out.fail("service: traced leg recorded no spans");
    return;
  }
  out.metrics->add("producer.source_ns_per_raw_bit",
                   static_cast<double>(src->second.total_ns) /
                       static_cast<double>(traced.producer_bits),
                   "ns/bit");
  const double closure = static_cast<double>(fill->second.self_ns) / busy_ns;
  note("service: fill spans cover " + std::to_string(closure) +
       " of the client wall");
  out.check(closure > 0.9 && closure <= 1.0 + 1e-9,
            "service: fill spans cover " + std::to_string(closure) +
                " of the client wall (need > 0.9)");
}

}  // namespace perfbench
