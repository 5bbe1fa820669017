// Wrappers that time the library's layers from outside: a BitSource
// around a generator (or a whole Pipeline), a TapStage around the
// health engine, and the one adapter that reads the ledger accessors a
// future metrics snapshot is meant to replace.
#pragma once

#include <cstdint>
#include <span>

#include "tracing.hpp"
#include "trng/bit_stream.hpp"
#include "trng/conditioning.hpp"
#include "trng/rbg_service.hpp"

namespace perfbench {

/// BitSource that forwards to `inner` and records one span per batch
/// pull. Counts the bits it delivered whether or not tracing is on.
class TimedSource final : public ptrng::trng::BitSource {
 public:
  TimedSource(ptrng::trng::BitSource& inner, Layer layer)
      : inner_(inner), layer_(layer) {}

  std::uint8_t next_bit() override {
    std::uint8_t bit = 0;
    generate_into(std::span<std::uint8_t>(&bit, 1));
    return bit;
  }
  void generate_into(std::span<std::uint8_t> out) override {
    const ScopedSpan span(layer_);
    inner_.generate_into(out);
    bits_ += out.size();
  }

  [[nodiscard]] std::uint64_t bits() const noexcept { return bits_; }

 private:
  ptrng::trng::BitSource& inner_;
  Layer layer_;
  std::uint64_t bits_ = 0;
};

/// TapStage that forwards to `inner` (the health engine) under a span.
class TimedTap final : public ptrng::trng::TapStage {
 public:
  explicit TimedTap(ptrng::trng::TapStage& inner) : inner_(inner) {}

  void observe(std::span<const std::uint8_t> raw_bits) override {
    const ScopedSpan span(Layer::kHealth);
    inner_.observe(raw_bits);
    bits_ += raw_bits.size();
  }
  [[nodiscard]] const char* tap_name() const noexcept override {
    return inner_.tap_name();
  }

  [[nodiscard]] std::uint64_t bits() const noexcept { return bits_; }

 private:
  ptrng::trng::TapStage& inner_;
  std::uint64_t bits_ = 0;
};

/// The only reads of the library's one-off ledger accessors
/// (conditioner bits_in, service blocks_produced/blocks_discarded,
/// stream reseeds). A later metrics snapshot replaces them; only the
/// traced run calls this adapter, so that change touches one place.
struct LedgerAdapter {
  [[nodiscard]] static std::uint64_t conditioner_bits_in(
      const ptrng::trng::HashConditioner& c) {
    return c.bits_in();
  }
  /// Blocks the service's producer conditioned: published + discarded.
  [[nodiscard]] static std::uint64_t service_blocks(
      const ptrng::trng::RandomByteService& s) {
    return s.blocks_produced() + s.blocks_discarded();
  }
  [[nodiscard]] static std::uint64_t stream_reseeds(
      const ptrng::trng::RandomByteService::Stream& s) {
    return s.reseeds();
  }
};

}  // namespace perfbench
