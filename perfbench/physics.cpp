// Physics phase: each generator family in turn through
//   generator -> Pipeline (+ HealthEngine tap, + decimation) ->
//   HashConditioner -> 32-byte full-entropy blocks.
// End-to-end: conditioned full-entropy bits per second per family.
// Traced: source / health / pipeline / conditioner self times.
#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "bench.hpp"
#include "common/parallel.hpp"
#include "layers.hpp"
#include "oscillator/oscillator_pair.hpp"
#include "trng/cell_array.hpp"
#include "trng/conditioning.hpp"
#include "trng/continuous_health.hpp"
#include "trng/ero_trng.hpp"
#include "trng/multi_ring.hpp"

namespace perfbench {
namespace {

using namespace ptrng;
using namespace ptrng::trng;

constexpr std::size_t kBlockBytes = 32;  // conditioner_config().block_bytes
constexpr std::size_t kBlockBits = 8 * kBlockBytes;
constexpr double kSliceS = 0.1;  ///< time per family before switching

enum class Family { kEro, kMultiRing, kCellArray };

struct FamilySpec {
  Family family;
  const char* name;
  /// Devices run side by side, one per pool thread. The eRO has no
  /// parallel path of its own, so it runs one device per thread and is
  /// reported per device: the figure then averages over every core
  /// instead of reading the one core a lone thread happens to sit on.
  bool device_per_thread;
  std::size_t block_bits;       ///< pipeline raw block; 640 = one block's need
  std::size_t gate_block_bits;  ///< block size of the reproduction re-run
  /// Blocks before timing starts; the reproduction gate compares them.
  std::size_t warmup_blocks;
};

constexpr FamilySpec kFamilies[] = {
    {Family::kEro, "ero", true, 640, 1000, 8},
    {Family::kMultiRing, "multi_ring", false, 640, 1000, 4},
    {Family::kCellArray, "cell_array", false, 512, 4096, 1},
};

std::unique_ptr<BitSource> make_generator(Family family, std::uint64_t seed) {
  switch (family) {
    case Family::kEro:
      return std::make_unique<EroTrng>(paper_trng(kEroDivider, seed));
    case Family::kMultiRing: {
      MultiRingTrngConfig cfg;
      cfg.rings = 8;
      cfg.divider = 1000;
      cfg.duty_cycle = 0.5;
      cfg.frequency_spread = 1e-2;
      return std::make_unique<MultiRingTrng>(
          oscillator::paper_single_config(seed), cfg);
    }
    case Family::kCellArray: {
      CellArrayConfig cfg;
      cfg.cells = 3;
      cfg.base_stages = 5;
      cfg.stage_delay = 970e-12 / 10.0;
      cfg.sigma_stage = 5e-12;
      cfg.flicker_amplitude = 0.0;
      cfg.flicker_floor_hz = 100.0;
      cfg.sample_divider = 64;
      cfg.sync_stages = 2;
      cfg.duty_cycle = 0.5;
      cfg.decimation = 64;
      cfg.seed = seed;
      return std::make_unique<CellArrayTrng>(cfg);
    }
  }
  return nullptr;
}

/// One device's full product chain. Members are declared in dependency
/// order; nothing here is copied or moved after set-up.
struct Chain {
  std::unique_ptr<BitSource> generator;
  std::optional<TimedSource> source;  ///< spans: Layer::kSource
  HealthEngine health{health_config()};
  std::optional<TimedTap> tap;
  std::optional<Pipeline> pipeline;
  std::optional<TimedSource> output;  ///< spans: Layer::kPipeline
  HashConditioner conditioner{conditioner_config()};
  std::vector<std::byte> buf = std::vector<std::byte>(kBlockBytes);
  std::uint64_t blocks = 0;
  std::size_t alarms_seen = 0;
  Outcomes outcomes;  ///< one per chain: chains run on different threads

  Chain(const FamilySpec& spec, std::uint64_t seed, std::size_t block_bits) {
    generator = make_generator(spec.family, seed);
    source.emplace(*generator, Layer::kSource);
    tap.emplace(health);
    pipeline.emplace(*source, block_bits);
    pipeline->attach_tap(*tap);
    if (spec.family == Family::kCellArray)
      static_cast<CellArrayTrng&>(*generator).attach_decimation(*pipeline);
    output.emplace(*pipeline, Layer::kPipeline);
  }

  /// Conditions one full-entropy block into `out`.
  void block(std::span<std::byte> out) {
    const ScopedSpan span(Layer::kCondition);
    conditioner.condition(*output, out);
  }

  /// Conditions one block into `buf`; a block produced while the health
  /// engine alarmed counts as a failed operation.
  void counted_block() {
    block(buf);
    ++blocks;
    const std::size_t alarms = health.alarms();
    outcomes.record(alarms == alarms_seen);
    alarms_seen = alarms;
  }
};

/// One family's state across the interleaved slices. Index [t] is 0
/// for untraced and 1 for traced slices.
struct FamilyRun {
  const FamilySpec* spec = nullptr;
  std::uint64_t seed = 0;
  std::vector<std::unique_ptr<Chain>> chains;
  std::vector<std::byte> first;  ///< chain 0's warm-up blocks, for the gate
  std::vector<double> rates[2];  ///< full-entropy bit/s per device, per slice
  double wall_ns[2] = {0, 0};    ///< summed over devices
  double raw_bits[2] = {0, 0};
  double out_bits[2] = {0, 0};
  double blocks[2] = {0, 0};
  std::map<Layer, LayerTotals> totals;  ///< traced slices only
};

std::uint64_t device_seed(const FamilyRun& f, std::size_t d) {
  return d == 0 ? f.seed : chunk_seed(f.seed, d);
}

/// Builds the chains and warms them up (lazy pool start-up, first-touch
/// buffers); chain 0's warm-up blocks are kept for the reproduction gate.
void start_family(FamilyRun& f, std::size_t width) {
  const std::size_t devices = f.spec->device_per_thread ? width : 1;
  for (std::size_t d = 0; d < devices; ++d) {
    f.chains.push_back(std::make_unique<Chain>(*f.spec, device_seed(f, d),
                                               f.spec->block_bits));
    Chain& c = *f.chains.back();
    for (std::size_t i = 0; i < f.spec->warmup_blocks; ++i) {
      c.counted_block();
      if (d == 0) f.first.insert(f.first.end(), c.buf.begin(), c.buf.end());
    }
  }
}

/// Runs every device of one family for about kSliceS (whole blocks) and
/// records the slice's per-device full-entropy rate.
void run_slice(FamilyRun& f, bool traced) {
  const std::size_t n = f.chains.size();
  std::vector<std::uint64_t> raw0(n), out0(n), blocks0(n);
  for (std::size_t d = 0; d < n; ++d) {
    raw0[d] = f.chains[d]->source->bits();
    out0[d] = f.chains[d]->output->bits();
    blocks0[d] = f.chains[d]->blocks;
  }
  Tracer::instance().clear();
  Tracer::instance().set_enabled(traced);
  const std::int64_t t0 = now_ns();
  const std::int64_t deadline = t0 + static_cast<std::int64_t>(kSliceS * 1e9);
  std::vector<std::int64_t> busy(n);  ///< each device's own run time
  const auto run_device = [&](std::size_t d) {
    Chain& c = *f.chains[d];
    const std::int64_t start = now_ns();
    do c.counted_block();
    while (now_ns() < deadline);
    busy[d] = now_ns() - start;
  };
  if (n == 1) {
    run_device(0);
  } else {
    ThreadPool::global().parallel_for(
        0, n, 1, [&](std::size_t b, std::size_t e) {
          for (std::size_t d = b; d < e; ++d) run_device(d);
        });
  }
  Tracer::instance().set_enabled(false);
  double rate_sum = 0;
  for (std::size_t d = 0; d < n; ++d) {
    const Chain& c = *f.chains[d];
    const auto blocks = static_cast<double>(c.blocks - blocks0[d]);
    rate_sum += blocks * kBlockBits * 1e9 / static_cast<double>(busy[d]);
    f.blocks[traced] += blocks;
    f.raw_bits[traced] += static_cast<double>(c.source->bits() - raw0[d]);
    f.out_bits[traced] += static_cast<double>(c.output->bits() - out0[d]);
    f.wall_ns[traced] += static_cast<double>(busy[d]);
  }
  f.rates[traced].push_back(rate_sum / static_cast<double>(n));
  if (traced)
    for (const auto& [layer, t] : Tracer::instance().totals()) {
      LayerTotals& acc = f.totals[layer];
      acc.spans += t.spans;
      acc.total_ns += t.total_ns;
      acc.self_ns += t.self_ns;
    }
}

/// Re-runs the first blocks with another pipeline block size and pool
/// width; the conditioned bytes must not change.
void reproduction_gate(const FamilySpec& spec, std::uint64_t seed,
                       std::size_t width, const std::vector<std::byte>& ref,
                       PhaseReport& out) {
  const std::size_t gate_width = width == 1 ? 2 : 1;
  ThreadPool::global().resize(gate_width);
  Chain chain(spec, seed, spec.gate_block_bits);
  std::vector<std::byte> bytes(spec.warmup_blocks * kBlockBytes);
  for (std::size_t i = 0; i < spec.warmup_blocks; ++i)
    chain.block(std::span<std::byte>(bytes).subspan(i * kBlockBytes,
                                                    kBlockBytes));
  ThreadPool::global().resize(width);
  out.check(bytes == ref,
            std::string("physics/") + spec.name +
                ": conditioned bytes changed with block size " +
                std::to_string(spec.gate_block_bits) + " and pool width " +
                std::to_string(gate_width));
}

/// Width-1 vs width-W time per raw bit of the multi-ring source.
double multi_ring_scaling(const FamilySpec& spec, std::uint64_t seed,
                          std::size_t width) {
  if (width == 1) return 1.0;
  const auto time_per_bit = [&](std::size_t w) {
    ThreadPool::global().resize(w);
    auto gen = make_generator(spec.family, seed);
    std::vector<std::uint8_t> bits(spec.block_bits);
    gen->generate_into(bits);  // warm-up: pool threads, buffers
    gen->generate_into(bits);
    std::vector<double> per_bit;
    for (int i = 0; i < 6; ++i) {
      const std::int64_t t0 = now_ns();
      gen->generate_into(bits);
      per_bit.push_back(seconds_since(t0) / static_cast<double>(bits.size()));
    }
    return median(per_bit);
  };
  const double t1 = time_per_bit(1);
  const double tw = time_per_bit(width);
  ThreadPool::global().resize(width);
  return t1 / (static_cast<double>(width) * tw);
}

}  // namespace

double physics_setup_s(std::uint64_t seed) {
  double s = 0.0;
  for (const FamilySpec& spec : kFamilies) {
    const std::int64_t t0 = now_ns();
    const Chain chain(spec, seed, spec.block_bits);
    s += seconds_since(t0);
  }
  return s;
}

void run_physics(const RunConfig& run, double budget_s, PhaseReport& out,
                 const std::function<void()>& between_rounds) {
  ThreadPool::global().resize(run.width);
  std::vector<FamilyRun> fams(std::size(kFamilies));
  for (std::size_t i = 0; i < fams.size(); ++i) {
    fams[i].spec = &kFamilies[i];
    fams[i].seed = chunk_seed(run.seed, 100 + i);
    start_family(fams[i], run.width);
  }

  // Families take turns in short slices, so a burst of load from other
  // tenants of the host lands on all of them rather than on one, and
  // each slice runs with the calling thread pinned to the next CPU in
  // turn. The traced run alternates untraced and traced rounds.
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  bool traced = false;
  std::size_t round = 0;
  const auto enough = [&](const FamilyRun& f) {
    return f.rates[0].size() >= 3 && (!run.trace || f.rates[1].size() >= 3);
  };
  while (now_ns() < deadline ||
         !std::all_of(fams.begin(), fams.end(), enough)) {
    for (std::size_t i = 0; i < fams.size(); ++i) {
      const PinnedToCpu pin(round + i);
      run_slice(fams[i], traced);
    }
    ++round;
    if (run.trace) traced = !traced;
    between_rounds();
  }

  // Health and ledger gates over every block the chains produced.
  const std::size_t need =
      fams[0].chains[0]->conditioner.raw_bits_needed(kBlockBytes);
  for (FamilyRun& f : fams) {
    const std::string fam = f.spec->name;
    for (const auto& c : f.chains) {
      out.outcomes.merge(c->outcomes);
      out.check(c->output->bits() == c->blocks * need,
                "physics/" + fam +
                    ": pipeline bits != blocks * raw_bits_needed(32)");
      if (run.trace)
        out.check(LedgerAdapter::conditioner_bits_in(c->conditioner) ==
                      c->blocks * need,
                  "physics/" + fam +
                      ": conditioner bits_in != blocks * raw_bits_needed(32)");
      out.check(c->health.alarms() == 0 &&
                    c->health.state() == HealthState::kNominal,
                "physics/" + fam + ": health engine raised " +
                    std::to_string(c->health.alarms()) + " alarm(s)");
    }
    f.chains.clear();
    reproduction_gate(*f.spec, f.seed, run.width, f.first, out);
  }

  if (!run.trace) {
    for (const FamilyRun& f : fams)
      out.metrics->add(std::string("fullentropy_bits_per_s.") + f.spec->name,
                       fast_decile_of_rates(f.rates[0]), "bit/s");
    return;
  }

  double health_ns = 0, health_self_ns = 0, pipeline_self_ns = 0;
  double cond_self_ns = 0, raw_all = 0, blocks_all = 0, wall_all = 0;
  double overhead_sum = 0;
  for (const FamilyRun& f : fams) {
    const std::string fam = f.spec->name;
    const auto get = [&](Layer l) {
      const auto it = f.totals.find(l);
      return it == f.totals.end() ? LayerTotals{} : it->second;
    };
    const LayerTotals src = get(Layer::kSource), hl = get(Layer::kHealth),
                      pl = get(Layer::kPipeline), cd = get(Layer::kCondition);
    overhead_sum += fast_decile_of_rates(f.rates[0]) /
                        fast_decile_of_rates(f.rates[1]) -
                    1.0;
    out.metrics->add("source." + fam + ".ns_per_raw_bit",
                     static_cast<double>(src.total_ns) / f.raw_bits[1],
                     "ns/bit");
    out.metrics->add("source." + fam + ".share",
                     static_cast<double>(src.self_ns) / f.wall_ns[1], "ratio");
    if (f.spec->family == Family::kMultiRing)
      out.metrics->add("source.multi_ring.scaling_eff",
                       multi_ring_scaling(*f.spec, f.seed, run.width), "ratio");
    if (f.spec->family == Family::kCellArray)
      out.metrics->add("decimation.keep_ratio.cell_array",
                       f.out_bits[1] / f.raw_bits[1], "ratio");
    const double closure = static_cast<double>(src.self_ns + hl.self_ns +
                                               pl.self_ns + cd.self_ns) /
                           f.wall_ns[1];
    note("physics/" + fam + ": layer self times cover " +
         std::to_string(closure) + " of the traced wall");
    out.check(closure > 0.95 && closure <= 1.0 + 1e-9,
              "physics/" + fam + ": layer self times cover " +
                  std::to_string(closure) + " of the traced wall (need > 0.95)");
    health_ns += static_cast<double>(hl.total_ns);
    health_self_ns += static_cast<double>(hl.self_ns);
    pipeline_self_ns += static_cast<double>(pl.self_ns);
    cond_self_ns += static_cast<double>(cd.self_ns);
    raw_all += f.raw_bits[1];
    blocks_all += f.blocks[1];
    wall_all += f.wall_ns[1];
  }
  out.metrics->add("conditioner.raw_bits_per_block", static_cast<double>(need),
                   "bit");
  out.metrics->add("health.ns_per_bit", health_ns / raw_all, "ns/bit");
  out.metrics->add("health.share", health_self_ns / wall_all, "ratio");
  out.metrics->add("pipeline.self_ns_per_raw_bit", pipeline_self_ns / raw_all,
                   "ns/bit");
  out.metrics->add("conditioner.self_us_per_block",
                   cond_self_ns / blocks_all * 1e-3, "us");
  out.trace_overhead = overhead_sum / static_cast<double>(fams.size());
}

}  // namespace perfbench
