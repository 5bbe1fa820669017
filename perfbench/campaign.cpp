// Campaign phase: model::run_campaign over the full 324-cell corner
// grid (three generator families, every attack, flicker 0/1/4), one
// device per corner, checkpointing every batch to a scratch file.
// End-to-end: devices (shards) completed per second.
// Traced: a replica of the campaign loop built from the public pieces
// (expand_grid, run_shard, CornerAccumulator::fold, write/read
// checkpoint) with a span on each call; its serial shard-ordered fold
// must reproduce the library's report byte for byte.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <vector>

#include "bench.hpp"
#include "common/parallel.hpp"
#include "common/sha256.hpp"
#include "model/fleet_campaign.hpp"
#include "trng/ais31.hpp"
#include "trng/continuous_health.hpp"
#include "trng/entropy.hpp"
#include "trng/ero_trng.hpp"
#include "trng/raw_export.hpp"

namespace perfbench {
namespace {

using namespace ptrng;
using namespace ptrng::model;

constexpr std::size_t kCorners = 324;   // the full grid
constexpr std::size_t kBitsPerShard = 20000;  // ais31 quick-battery size

CampaignConfig campaign_config(std::uint64_t seed, const std::string& ckpt) {
  CampaignConfig c;
  c.corners = 0;  // full grid
  c.seeds = 1;
  c.bits_per_shard = kBitsPerShard;
  c.seed = seed;
  c.run_ais31 = true;
  c.divider = 200;
  c.rings = 4;
  c.cells = 3;
  c.batch_size = 54;  // six batches, a checkpoint after each
  c.checkpoint_path = ckpt;
  c.resume = false;
  c.max_shards = 0;
  return c;
}

/// The report's verdict rule, restated so the replica's report is built
/// independently of run_campaign.
std::string verdict(const CornerReport& row) {
  if (row.acc.shards == 0) return "pending";
  if (row.spec.attack == "none")
    return row.acc.ais31_pass_rate() >= 0.75 && row.acc.alarm_rate() <= 0.25
               ? "pass"
               : "degraded";
  return row.acc.alarm_rate() >= 0.5 ? "detected" : "missed";
}

CampaignReport report_from(const std::vector<CornerSpec>& grid,
                           const CampaignConfig& config,
                           const CampaignState& state) {
  CampaignReport report;
  report.shards_total = grid.size() * config.seeds;
  report.shards_folded = state.folded;
  report.complete = state.folded == report.shards_total;
  report.config_digest =
      to_hex(trng::config_digest(canonical_config(config)));
  for (std::size_t i = 0; i < grid.size(); ++i) {
    CornerReport row;
    row.spec = grid[i];
    row.acc = state.corners[i];
    row.verdict = verdict(row);
    report.corners.push_back(std::move(row));
  }
  return report;
}

void check_complete(const CampaignReport& report, PhaseReport& out) {
  out.check(report.complete && report.shards_folded == kCorners &&
                report.corners.size() == kCorners,
            "campaign: report incomplete (" +
                std::to_string(report.shards_folded) + " of " +
                std::to_string(report.shards_total) + " shards)");
  for (const auto& row : report.corners)
    if (row.verdict == "pending" || row.acc.shards != 1) {
      out.fail("campaign: corner " + row.spec.name() + " has no result");
      return;
    }
}

struct ShardTiming {
  std::int64_t ns = 0;
  std::size_t corner = 0;
};

struct ReplicaResult {
  std::string json;
  double wall_s = 0.0;
  std::vector<ShardTiming> shards;
  std::map<Layer, LayerTotals> totals;
  std::vector<double> read_ms;
  std::uintmax_t checkpoint_bytes = 0;
  bool read_back_ok = false;
};

/// The campaign loop from public pieces: shards fan out one per task on
/// the deterministic pool, results land in per-index slots, the fold
/// runs serially in shard order, and a checkpoint follows every batch.
/// Run once traced and once untraced, it gives the tracing overhead on
/// the same loop.
ReplicaResult replica(const CampaignConfig& config, bool traced) {
  Tracer::instance().clear();
  Tracer::instance().set_enabled(traced);
  ReplicaResult r;
  const std::int64_t t0 = now_ns();
  const auto grid = expand_grid(config);
  const std::uint64_t total = grid.size() * config.seeds;
  CampaignState state;
  state.corners.resize(grid.size());
  std::vector<ShardResult> results;
  r.shards.resize(total);
  while (state.folded < total) {
    const std::uint64_t base = state.folded;
    const std::uint64_t n = std::min<std::uint64_t>(config.batch_size,
                                                    total - base);
    results.assign(n, ShardResult{});
    {
      const ScopedSpan batch(Layer::kBatch);
      ThreadPool::global().parallel_for(
          0, n, 1, [&](std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i) {
              const std::uint64_t s = base + i;
              const std::int64_t s0 = now_ns();
              results[i] = run_shard(grid[s / config.seeds],
                                     chunk_seed(config.seed, s), config);
              r.shards[s] = {now_ns() - s0, s / config.seeds};
            }
          });
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      const ScopedSpan span(Layer::kFold);
      state.corners[(base + i) / config.seeds].fold(results[i]);
    }
    state.folded += n;
    const ScopedSpan span(Layer::kCheckpointWrite);
    write_checkpoint(config.checkpoint_path, config, state);
  }
  r.json = report_from(grid, config, state).json();
  r.wall_s = seconds_since(t0);

  // Read the final checkpoint back a few times; it must restore the
  // folded state exactly.
  for (int i = 0; i < 5; ++i) {
    const std::int64_t s0 = now_ns();
    std::optional<CampaignState> back;
    {
      const ScopedSpan span(Layer::kCheckpointRead);
      back = read_checkpoint(config.checkpoint_path, config);
    }
    r.read_ms.push_back(seconds_since(s0) * 1e3);
    r.read_back_ok =
        back && back->folded == state.folded &&
        report_from(grid, config, *back).json() == r.json;
  }
  Tracer::instance().set_enabled(false);
  r.totals = Tracer::instance().totals();
  r.checkpoint_bytes = std::filesystem::file_size(config.checkpoint_path);
  return r;
}

constexpr const char* kFamilyNames[] = {"ero", "multi_ring", "cell_array"};

}  // namespace

double campaign_setup_s(std::uint64_t seed) {
  const std::int64_t t0 = now_ns();
  const auto grid = expand_grid(campaign_config(seed, ""));
  const double s = seconds_since(t0);
  if (grid.size() != kCorners)
    throw std::runtime_error("campaign: grid is not the 324-cell grid");
  return s;
}

void run_campaign_phase(const RunConfig& run, double budget_s,
                        PhaseReport& out) {
  ThreadPool::global().resize(run.width);
  std::filesystem::create_directories(run.scratch_dir);
  const std::string ckpt = run.scratch_dir + "/campaign.ckpt";

  // Untraced runs: campaigns with their own seeds while another one fits
  // the budget, and at least two so that every batch has a second
  // sample; the traced run needs exactly one. The progress hook stamps
  // every batch; batch b of every campaign covers the same grid cells,
  // so its time is comparable across campaigns.
  std::vector<std::vector<double>> batch_s;  // [batch][campaign]
  std::string first_json;
  const std::int64_t start = now_ns();
  double wall = 0.0;
  for (std::uint64_t i = 0;
       i == 0 || (!run.trace && (i < 2 || seconds_since(start) + 0.5 * wall <
                                              budget_s));
       ++i) {
    auto cfg = campaign_config(chunk_seed(run.seed, 400 + i), ckpt);
    std::size_t batch = 0;
    std::int64_t last = now_ns();
    const std::int64_t t0 = last;
    cfg.progress = [&](std::uint64_t, std::uint64_t) {
      const std::int64_t t = now_ns();
      if (batch_s.size() <= batch) batch_s.resize(batch + 1);
      batch_s[batch++].push_back(static_cast<double>(t - last) * 1e-9);
      last = t;
    };
    const CampaignReport report = run_campaign(cfg);
    wall = seconds_since(t0);
    check_complete(report, out);
    for (std::uint64_t s = 0; s < report.shards_total; ++s)
      out.outcomes.record(s < report.shards_folded);
    if (i == 0) first_json = report.json();
  }
  // The fastest decile of each batch's times across campaigns, summed.
  double campaign_s = 0.0;
  for (const std::vector<double>& b : batch_s)
    campaign_s += fast_decile_of_times(b);
  if (!run.trace) {
    out.metrics->add("devices_per_s", kCorners / campaign_s, "1/s");
    std::filesystem::remove(ckpt);
    return;
  }

  // Replicas of the first campaign (same config, same seed), untraced
  // and traced.
  const auto cfg = campaign_config(chunk_seed(run.seed, 400), ckpt);
  const ReplicaResult untraced = replica(cfg, false);
  const ReplicaResult rep = replica(cfg, true);
  std::filesystem::remove(ckpt);
  for (const ReplicaResult* r : {&untraced, &rep}) {
    out.check(r->json == first_json,
              "campaign: the shard-ordered fold does not reproduce the "
              "run_campaign report byte for byte");
    out.check(r->read_back_ok,
              "campaign: checkpoint read-back does not restore the state");
  }
  out.trace_overhead = rep.wall_s / untraced.wall_s - 1.0;

  const auto grid = expand_grid(cfg);
  double fam_ns[3] = {0, 0, 0}, fam_n[3] = {0, 0, 0};
  double quiet_ns[3] = {0, 0, 0}, quiet_n[3] = {0, 0, 0};  // unattacked
  double atk_ns[2] = {0, 0}, atk_n[2] = {0, 0}, shard_sum_ns = 0;
  for (const ShardTiming& s : rep.shards) {
    const CornerSpec& spec = grid[s.corner];
    const std::size_t f = spec.generator == "ero"          ? 0
                          : spec.generator == "multi_ring" ? 1
                                                           : 2;
    fam_ns[f] += static_cast<double>(s.ns);
    fam_n[f] += 1;
    const std::size_t a = spec.attack == "none" ? 0 : 1;
    if (a == 0) {
      quiet_ns[f] += static_cast<double>(s.ns);
      quiet_n[f] += 1;
    }
    atk_ns[a] += static_cast<double>(s.ns);
    atk_n[a] += 1;
    shard_sum_ns += static_cast<double>(s.ns);
  }
  for (std::size_t f = 0; f < 3; ++f)
    out.metrics->add(std::string("campaign.shard_ms.") + kFamilyNames[f],
                     fam_ns[f] / fam_n[f] * 1e-6, "ms");
  out.metrics->add("campaign.shard_ms.unattacked", atk_ns[0] / atk_n[0] * 1e-6,
                   "ms");
  out.metrics->add("campaign.shard_ms.attacked", atk_ns[1] / atk_n[1] * 1e-6,
                   "ms");
  const auto get = [&](Layer l) {
    const auto it = rep.totals.find(l);
    return it == rep.totals.end() ? LayerTotals{} : it->second;
  };
  const LayerTotals fold = get(Layer::kFold), wr = get(Layer::kCheckpointWrite),
                    batch = get(Layer::kBatch);
  out.metrics->add("campaign.fold_us_per_shard",
                   static_cast<double>(fold.total_ns) / kCorners * 1e-3, "us");
  out.metrics->add("checkpoint.write_ms",
                   static_cast<double>(wr.total_ns) /
                       static_cast<double>(wr.spans) * 1e-6,
                   "ms");
  out.metrics->add("checkpoint.read_ms", median(rep.read_ms), "ms");
  out.metrics->add("checkpoint.bytes", static_cast<double>(rep.checkpoint_bytes),
                   "B");
  out.metrics->add("scheduler.parallel_efficiency",
                   shard_sum_ns / (static_cast<double>(run.width) *
                                   rep.wall_s * 1e9),
                   "ratio");
  // The replica's main thread is either fanning a batch out, folding or
  // checkpointing; the rest is report rendering and loop overhead.
  const double closure =
      static_cast<double>(batch.total_ns + fold.total_ns + wr.total_ns) /
      (rep.wall_s * 1e9);
  note("campaign: batch + fold + checkpoint spans cover " +
       std::to_string(closure) + " of the replica wall");
  out.check(closure > 0.95 && closure <= 1.0 + 1e-9,
            "campaign: spans cover " + std::to_string(closure) +
                " of the replica wall (need > 0.95)");

  // Estimator costs on shard-sized vectors (paper eRO at the campaign
  // divider; the estimators' cost does not depend on the source), and
  // by subtraction the generator's share (device build + bits) of an
  // unattacked shard per family.
  std::vector<double> markov, minent, ais, health;
  double sink = 0.0;  // keeps every estimator result live
  for (std::uint64_t i = 0; i < 5; ++i) {
    auto dev = trng::paper_trng(cfg.divider, chunk_seed(run.seed, 500 + i));
    std::vector<std::uint8_t> bits(kBitsPerShard);
    dev.generate_into(bits);
    std::int64_t t0 = now_ns();
    sink += trng::markov_entropy_rate(bits);
    markov.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    t0 = now_ns();
    sink += trng::min_entropy(bits, 8);
    minent.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    t0 = now_ns();
    sink += trng::ais31::quick_battery(bits).passed ? 1.0 : 0.0;
    ais.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    t0 = now_ns();
    trng::HealthEngine engine(health_config());
    engine.process(bits);
    sink += static_cast<double>(engine.alarms());
    health.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  out.check(std::isfinite(sink), "campaign: estimator returned non-finite");
  const double estimators_ms = (median(markov) + median(minent) +
                                median(health)) * 1e-3 + median(ais);
  for (std::size_t f = 0; f < 3; ++f)
    out.metrics->add(std::string("campaign.source_share.") + kFamilyNames[f],
                     1.0 - estimators_ms / (quiet_ns[f] / quiet_n[f] * 1e-6),
                     "ratio");
  out.metrics->add("estimators.markov_us", median(markov), "us");
  out.metrics->add("estimators.min_entropy_us", median(minent), "us");
  out.metrics->add("estimators.ais31_ms", median(ais), "ms");
  out.metrics->add("estimators.health_us", median(health), "us");
}

}  // namespace perfbench
