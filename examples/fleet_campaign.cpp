// Fleet-scale Monte Carlo corner campaign CLI (model/fleet_campaign.hpp):
// expands the {generator x node x operating corner x flicker x attack}
// grid, simulates `--seeds` devices per corner on the thread pool,
// and prints the per-corner verdict table. With `--checkpoint`
// the campaign snapshots after every batch and `--resume` continues a
// killed run — the final report is BYTE-IDENTICAL to an uninterrupted
// run (the CI kill-and-resume smoke relies on exactly that).
//
// Usage: fleet_campaign [options]
//   --corners N       grid cells to run (0 = full grid; default 12)
//   --seeds N         devices per corner            (default 4)
//   --bits N          raw bits per device           (default 20000)
//   --seed X          campaign base seed            (default 0xf1ee7ca5)
//   --divider N       eRO / multi-ring divider      (default 200)
//   --batch N         shards per batch/checkpoint   (default 64)
//   --checkpoint F    snapshot file (enables checkpointing)
//   --resume          continue from --checkpoint if present
//   --max-shards N    fold at most N shards, then checkpoint and exit 3
//   --report-json F   write the versioned JSON report to F
//   --quiet           suppress the progress lines
//
// Numeric values are unsigned integers (decimal, 0x hex or 0 octal);
// anything else — empty, signed, trailing characters, too large for the
// field — is a usage error, like an unknown option: exit 2.
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>

#include "model/fleet_campaign.hpp"

namespace {

// Reads all of `text` as an unsigned integer no larger than `max`, or
// exits 2. strtoull alone would skip leading blanks, accept a sign
// (wrapping "-1" to 2^64-1), stop silently at "7x", and read "x" as 0.
std::uint64_t parse_u64(const char* flag, const char* text,
                        std::uint64_t max =
                            std::numeric_limits<std::uint64_t>::max()) {
  if (*text >= '0' && *text <= '9') {
    errno = 0;
    char* end = nullptr;
    const std::uint64_t v = std::strtoull(text, &end, 0);
    if (errno == 0 && *end == '\0' && v <= max) return v;
  }
  std::cerr << flag << ": invalid value '" << text
            << "' (expected an unsigned integer <= " << max << ")\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ptrng;

  model::CampaignConfig config;
  config.corners = 12;
  config.seeds = 4;
  std::string report_json;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const auto arg = [&](const char* name) {
      return std::strcmp(flag, name) == 0;
    };
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    const auto size_value = [&] {
      return static_cast<std::size_t>(
          parse_u64(flag, value(), std::numeric_limits<std::size_t>::max()));
    };
    if (arg("--corners")) {
      config.corners = size_value();
    } else if (arg("--seeds")) {
      config.seeds = size_value();
    } else if (arg("--bits")) {
      config.bits_per_shard = size_value();
    } else if (arg("--seed")) {
      config.seed = parse_u64(flag, value());
    } else if (arg("--divider")) {
      config.divider = static_cast<std::uint32_t>(parse_u64(
          flag, value(), std::numeric_limits<std::uint32_t>::max()));
    } else if (arg("--batch")) {
      config.batch_size = size_value();
    } else if (arg("--checkpoint")) {
      config.checkpoint_path = value();
    } else if (arg("--resume")) {
      config.resume = true;
    } else if (arg("--max-shards")) {
      config.max_shards = size_value();
    } else if (arg("--report-json")) {
      report_json = value();
    } else if (arg("--quiet")) {
      quiet = true;
    } else {
      std::cerr << "unknown option: " << flag << "\n";
      return 2;
    }
  }
  if (!quiet) {
    config.progress = [](std::uint64_t folded, std::uint64_t total) {
      std::cerr << "  " << folded << "/" << total << " shards folded\n";
    };
  }

  const auto report = model::run_campaign(config);
  std::cout << report.table();
  if (!report_json.empty()) {
    std::ofstream out(report_json, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::cerr << "cannot write " << report_json << "\n";
      return 1;
    }
    out << report.json() << "\n";
  }
  if (!report.complete) {
    std::cout << "campaign interrupted at " << report.shards_folded << "/"
              << report.shards_total
              << " shards; re-run with --resume to continue\n";
    return 3;
  }
  return 0;
}
