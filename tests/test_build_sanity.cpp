// Build-sanity suite: references at least one OUT-OF-LINE symbol from
// every translation unit (.cpp) of the ptrng static library, so a TU
// orphaned from its module CMakeLists — not just a whole dropped module —
// fails this test's link in CI instead of bit-rotting silently. One TEST
// per module, one statement per TU (labelled). Keep this file in sync
// with the source lists in src/*/CMakeLists.txt.
// Including the umbrella header additionally proves every public header
// still compiles under the current standard and warning flags.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ptrng.hpp"

namespace {

using namespace ptrng;

TEST(BuildSanity, CommonLinks) {
  // math_utils.cpp
  const std::vector<double> xs{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(kahan_sum(xs), 6.0);
  // parallel.cpp
  EXPECT_NE(chunk_seed(1, 0), chunk_seed(1, 1));
  EXPECT_GE(configured_thread_count(), 1u);
  // rng.cpp
  Xoshiro256pp rng(42);
  EXPECT_NE(rng.next(), rng.next());
  // sha256.cpp
  EXPECT_EQ(to_hex(Sha256::digest({})).size(), 64u);
  // simd.cpp
  EXPECT_NE(simd::compiled_backend(), nullptr);
  // ziggurat.cpp
  Xoshiro256pp zrng(42);
  EXPECT_NE(ZigguratNormal::draw(zrng), ZigguratNormal::draw(zrng));
  // table.cpp
  EXPECT_FALSE(cell_sci(1.0).empty());
}

TEST(BuildSanity, FftLinks) {
  // window.cpp
  EXPECT_EQ(fft::make_window(fft::WindowKind::rectangular, 4).size(), 4u);
  // fft.cpp
  const std::vector<double> sig{1.0, 0.0, 0.0, 0.0};
  EXPECT_EQ(fft::rfft_padded(sig).size(), 4u);
}

TEST(BuildSanity, StatsLinks) {
  std::vector<double> xs(128);
  Xoshiro256pp xs_rng(5);
  for (auto& v : xs) v = xs_rng.uniform();
  // descriptive.cpp
  EXPECT_GE(stats::mean(xs), 0.0);
  // allan.cpp: sigma2_N = 2*tau^2*avar
  EXPECT_DOUBLE_EQ(stats::sigma2_n_from_allan(2.0, 1.0), 4.0);
  // autocorrelation.cpp
  EXPECT_GT(stats::white_noise_band(100), 0.0);
  // bienayme.cpp
  const std::vector<std::size_t> blocks{2};
  EXPECT_FALSE(stats::bienayme_sweep(xs, blocks).empty());
  // hypothesis.cpp
  EXPECT_GE(stats::turning_point_test(xs).p_value, 0.0);
  // normality.cpp
  EXPECT_GT(stats::kolmogorov_sf(1.0), 0.0);
  // psd.cpp
  EXPECT_FALSE(stats::periodogram(xs, 1.0).psd.empty());
  // regression.cpp
  const std::vector<double> x{1.0, 2.0, 3.0};
  const std::vector<double> y{2.0, 4.0, 6.0};
  EXPECT_GT(stats::fit_line(x, y).r_squared, 0.99);
  // special.cpp
  EXPECT_DOUBLE_EQ(stats::normal_cdf(0.0), 0.5);
}

TEST(BuildSanity, NoiseLinks) {
  // white.cpp
  noise::WhiteGaussianNoise white(1.0, 1e6, /*seed=*/42);
  EXPECT_DOUBLE_EQ(white.sigma(), 1.0);
  // kasdin.cpp
  EXPECT_GT(noise::KasdinFlicker::sigma_w_for_amplitude(1.0), 0.0);
  // filter_bank.cpp
  noise::FilterBankFlicker bank{noise::FilterBankFlicker::Config{}};
  EXPECT_GT(bank.analytic_psd(bank.sample_rate() / 8.0), 0.0);
  // psd_model.cpp
  noise::PowerLawPsd psd;
  psd.add_term(1.0, 0.0);
  EXPECT_DOUBLE_EQ(psd(1.0), 1.0);
}

TEST(BuildSanity, TransistorLinks) {
  // technology.cpp
  EXPECT_FALSE(transistor::technology_nodes().empty());
  const auto& node = transistor::technology_nodes().front();
  // mosfet.cpp
  const transistor::Mosfet mosfet{transistor::MosfetParams{}};
  EXPECT_GT(mosfet.gate_capacitance(), 0.0);
  // inverter.cpp
  const transistor::Inverter inv(node);
  EXPECT_GT(inv.propagation_delay(), 0.0);
}

TEST(BuildSanity, OscillatorLinks) {
  // oscillator_pair.cpp
  EXPECT_GT(oscillator::paper::f0, 0.0);
  EXPECT_GT(oscillator::paper_single_config(1).f0, 0.0);
  // ring_oscillator.cpp
  oscillator::RingOscillator osc(oscillator::paper_single_config(1));
  EXPECT_GT(osc.next_period().period, 0.0);
  // gate_chain.cpp
  oscillator::GateChainOscillator chain{oscillator::GateChainConfig{}};
  EXPECT_GT(chain.next_period().period, 0.0);
}

TEST(BuildSanity, PhaseNoiseLinks) {
  // phase_psd.cpp
  const phase_noise::PhasePsd psd(1.0, 1.0, 1e8);
  EXPECT_GT(psd.sigma2_n(10.0), 0.0);
  // isf.cpp
  const auto isf = phase_noise::Isf::sine();
  EXPECT_GT(isf.rms(), 0.0);
  // conversion.cpp
  EXPECT_GT(phase_noise::convert_raw(1e-22, 1e-24, 1e-15, 3, isf, 1e8).b_th,
            0.0);
  // sigma2n.cpp
  EXPECT_GT(phase_noise::sigma2_n_power_law(1.0, -2.0, 1e8, 10.0), 0.0);
}

TEST(BuildSanity, MeasurementLinks) {
  // sn_process.cpp
  const std::vector<double> jitter{1e-12, -1e-12, 2e-12, 0.0};
  const auto x = measurement::time_error_from_jitter(jitter);
  EXPECT_EQ(x.size(), jitter.size() + 1);
  // counter.cpp
  const std::vector<std::int64_t> counts{100, 101, 99, 100};
  EXPECT_EQ(measurement::DifferentialCounter::sn_from_counts(counts, 100e6)
                .size(),
            counts.size() - 1);
  // sigma_n_estimator.cpp
  std::vector<double> series(2048);
  GaussianSampler gauss(13);
  for (auto& v : series) v = 1e-12 * gauss();
  const std::vector<std::size_t> grid{2, 4, 8, 16};
  const auto sweep = measurement::sigma2_n_sweep(series, grid);
  EXPECT_EQ(sweep.size(), grid.size());
  // calibration.cpp
  EXPECT_GT(measurement::fit_sigma2_n(sweep, 1e8).r_squared, 0.0);
}

TEST(BuildSanity, ModelLinks) {
  // legacy_models.cpp
  const model::NaiveWhiteModel naive(1e-22, 1e8);
  EXPECT_GT(naive.sigma2_n(10.0), 0.0);
  // multilevel_model.cpp
  EXPECT_GT(model::MultilevelModel::from_coefficients(276.0, 1.9e6, 103e6)
                .sigma2_n(10.0),
            0.0);
  // independence.cpp
  std::vector<double> series(2048);
  Xoshiro256pp rng(9);
  for (auto& v : series) v = rng.uniform() - 0.5;
  EXPECT_FALSE(model::analyze_independence(series, 16, 8).bienayme.empty());
  // ensemble.cpp
  model::EnsembleConfig ens;
  ens.pairs = 1;
  ens.samples = 1024;
  EXPECT_EQ(model::analyze_pair_ensemble(ens).pair_count(), 1u);
}

TEST(BuildSanity, TrngLinks) {
  // entropy.cpp
  EXPECT_GT(trng::entropy_lower_bound(1.0), 0.0);
  // ais31.cpp
  EXPECT_GT(trng::ais31::procedure_b_bits(), 0u);
  // postprocess.cpp
  const std::vector<std::uint8_t> bits{0, 1, 0, 1, 1, 0, 1, 0};
  EXPECT_DOUBLE_EQ(trng::bias(bits), 0.0);
  // bit_stream.cpp
  trng::XorDecimateTransform decimate(2);
  std::vector<std::uint8_t> decimated;
  decimate.push(bits, decimated);
  EXPECT_EQ(decimated.size(), bits.size() / 2);
  // cell_array.cpp
  trng::CellArrayConfig cell_cfg;
  cell_cfg.sample_divider = 4;
  trng::CellArrayTrng cells(cell_cfg);
  EXPECT_EQ(cells.cell_count(), cell_cfg.cells);
  // raw_export.cpp
  EXPECT_EQ(trng::encode_header(trng::RawExportHeader{}).size(),
            trng::RawExportHeader::kSize);
  // sp80090b.cpp
  std::vector<std::uint8_t> many(4096);
  Xoshiro256pp rng(11);
  for (auto& b : many) b = static_cast<std::uint8_t>(rng.next() & 1u);
  EXPECT_GT(trng::sp80090b::most_common_value(many), 0.0);
  // continuous_health.cpp
  EXPECT_EQ(trng::repetition_count_cutoff(1.0, 0x1p-20), 21u);
  // online_test.cpp
  trng::OnlineTestConfig cfg;
  cfg.reference_sigma2 = 1e-24;
  const trng::ThermalNoiseMonitor monitor(cfg, 100e6);
  EXPECT_EQ(monitor.decisions(), 0u);
  // ero_trng.cpp
  auto ero = trng::paper_trng(1000, /*seed=*/5);
  EXPECT_LE(ero.next_bit(), 1);
  // multi_ring.cpp
  auto multi = trng::paper_multi_ring(2, 1000, /*seed=*/6);
  EXPECT_EQ(multi.ring_count(), 2u);
  // conditioning.cpp
  EXPECT_EQ(trng::hash_df(std::vector<std::byte>(8), 32).size(), 32u);
  // rbg_service.cpp
  trng::HealthEngine health{trng::ContinuousHealthConfig{}};
  trng::RandomByteService service(ero, health);
  EXPECT_EQ(service.state(), trng::ServiceState::kStopped);
}

TEST(BuildSanity, AttacksLinks) {
  // injection.cpp
  EXPECT_GT(attacks::em_harmonic_attack().coupling, 0.0);
}

}  // namespace
