// Experiment B1 (extension) — in-order vs out-of-order leakage ablation.
//
// The DAC'18 paper characterizes one design point (the in-order
// Cortex-A7); its thesis — leakage is a property of the
// micro-architecture, not the ISA — predicts that the SAME program on an
// ISA-compatible out-of-order core leaks through different structures
// with different attack cost.  This bench quantifies that prediction
// across backends and OoO sizings:
//
//   * CPA measurements-to-disclosure (key byte 0, HW(SubBytes-out) model,
//     Fisher-z > 2.326 criterion) — how many traces until the correct key
//     is distinguishable;
//   * full-key recovery (bytes at rank 0 at the full campaign size);
//   * TVLA fixed-vs-random max |t| — model-free leakage magnitude.
//
// Every campaign runs through core::trace_campaign (parallel, per-index
// seeded, window-bounded, bit-identical at any thread count) into an
// analysis pass; the MTD search evaluates prefixes of one acquired trace
// matrix, so it costs no extra simulation.
//
// Defaults: max_traces=1200, tvla_traces=800, averaging=4.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/analysis_sinks.h"
#include "core/campaign.h"
#include "crypto/aes_codegen.h"
#include "stats/attack_metrics.h"
#include "stats/cpa.h"
#include "stats/ttest.h"
#include "util/bitops.h"

using namespace usca;

namespace {

struct ablation_cell {
  const char* name;
  sim::backend_kind backend;
  sim::ooo_config ooo; ///< ignored for the in-order backend
};

sim::micro_arch_config arch_of(const ablation_cell& cell) {
  if (cell.backend == sim::backend_kind::inorder) {
    return sim::cortex_a7();
  }
  return sim::cortex_a7_ooo(cell.ooo);
}

struct cell_result {
  std::size_t mtd = 0;
  int full_key_bytes = 0;
  std::uint64_t window_cycles = 0;
  double tvla_max_t = 0.0;
  std::size_t tvla_leaking = 0;
};

cell_result run_cell(const ablation_cell& cell, std::size_t max_traces,
                     std::size_t tvla_traces, int averaging,
                     unsigned threads, std::uint64_t seed) {
  const crypto::aes_key key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                               0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                               0x09, 0xcf, 0x4f, 0x3c};
  cell_result out;

  // --- CPA campaign: acquire once, evaluate MTD on prefixes ------------
  core::campaign_config config;
  config.traces = max_traces;
  config.threads = threads;
  config.seed = seed;
  config.averaging = averaging;
  config.backend = cell.backend;
  config.uarch = arch_of(cell);
  core::trace_campaign campaign(config, key);

  // Every trace shares the window's schedule: read its length off one
  // whole run.
  const core::trace_record first = campaign.produce(0);
  out.window_cycles = first.window_end - first.window_begin;
  bench::collecting_pass records; // labels = the plaintext bytes
  campaign.run(records);

  const auto model_at = [&](std::size_t byte_index, std::size_t n) {
    stats::cpa_engine cpa(records.samples.front().size(), 256);
    std::vector<double> h(256);
    for (std::size_t t = 0; t < std::min(n, records.samples.size()); ++t) {
      const auto pt =
          static_cast<std::uint8_t>(records.labels[t][byte_index]);
      for (std::size_t g = 0; g < 256; ++g) {
        h[g] = util::hamming_weight(
            crypto::subbytes_hypothesis(pt, static_cast<std::uint8_t>(g)));
      }
      cpa.add_trace(records.samples[t], h);
    }
    return cpa.solve();
  };

  out.mtd = stats::measurements_to_disclosure(
      [&](std::size_t n) {
        return model_at(0, n).distinguishing_z(key[0]);
      },
      2.326, 50, max_traces);

  for (std::size_t b = 0; b < 16; ++b) {
    if (model_at(b, max_traces).rank_of(key[b]) == 0) {
      ++out.full_key_bytes;
    }
  }

  // --- TVLA campaign: fixed-vs-random keyed on index parity ------------
  const crypto::aes_block fixed_pt = {0xda, 0x39, 0xa3, 0xee, 0x5e, 0x6b,
                                      0x4b, 0x0d, 0x32, 0x55, 0xbf, 0xef,
                                      0x95, 0x60, 0x18, 0x90};
  core::campaign_config tvla_config = config;
  tvla_config.traces = tvla_traces;
  tvla_config.seed = seed ^ 0x71a70000ULL;
  core::trace_campaign tvla_campaign(tvla_config, key);
  tvla_campaign.set_plaintext_policy(
      [fixed_pt](std::size_t index, util::xoshiro256& rng) {
        if (index % 2 == 0) {
          return fixed_pt;
        }
        crypto::aes_block pt;
        for (auto& b : pt) {
          b = rng.next_u8();
        }
        return pt;
      });
  core::tvla_sink tvla; // even indices are the fixed class
  tvla_campaign.run(tvla);
  out.tvla_max_t = tvla.tvla().max_abs_t();
  out.tvla_leaking = tvla.tvla().leaking_samples();
  return out;
}

} // namespace

int main(int argc, char** argv) {
  const bench::arg_map args(
      argc, argv,
      {"max_traces", "tvla_traces", "averaging", "threads", "seed"});
  const std::size_t max_traces = args.get_size("max_traces", 1'200);
  const std::size_t tvla_traces = args.get_size("tvla_traces", 800);
  const int averaging = static_cast<int>(args.get_size("averaging", 4));
  const auto threads = static_cast<unsigned>(args.get_size("threads", 0));
  const std::uint64_t seed = args.get_size("seed", 0xab1a7e);

  const ablation_cell cells[] = {
      {"in-order A7 (2-wide)", sim::backend_kind::inorder, {}},
      {"OoO 2-wide ROB32", sim::backend_kind::ooo, sim::ooo_config{}},
      {"OoO 1-wide ROB8", sim::backend_kind::ooo,
       sim::ooo_config{8, 1, 1, 4, 32, 1, 2}},
      {"OoO 4-wide ROB64", sim::backend_kind::ooo,
       sim::ooo_config{64, 4, 4, 32, 128, 4, 8}},
  };

  std::printf("== B1: in-order vs out-of-order leakage ablation ==\n");
  std::printf("   CPA: HW(SubBytes out), key byte 0, round-1 window, "
              "MTD at Fisher-z > 2.326\n");
  std::printf("   campaigns: %zu CPA traces, %zu TVLA traces, averaging "
              "%d\n\n",
              max_traces, tvla_traces, averaging);
  std::printf("%-22s | %7s | %9s | %8s | %10s | %8s\n", "core", "window",
              "CPA MTD", "key/16", "TVLA max|t|", "|t|>4.5");
  std::printf("-----------------------+---------+-----------+----------+"
              "------------+---------\n");

  for (const ablation_cell& cell : cells) {
    const cell_result r = run_cell(cell, max_traces, tvla_traces, averaging,
                                   threads, seed);
    char mtd_text[32];
    if (r.mtd >= max_traces) {
      std::snprintf(mtd_text, sizeof mtd_text, ">%zu", max_traces);
    } else {
      std::snprintf(mtd_text, sizeof mtd_text, "%zu", r.mtd);
    }
    std::printf("%-22s | %7llu | %9s | %5d/16 | %10.1f | %8zu\n", cell.name,
                static_cast<unsigned long long>(r.window_cycles), mtd_text,
                r.full_key_bytes, r.tvla_max_t, r.tvla_leaking);
  }

  std::printf("\nReading: the OoO engine compresses the window (fewer\n"
              "cycles) and moves leakage onto rename/PRF/CDB/retirement\n"
              "structures; the coarse HW model stays viable on every\n"
              "design point — the paper's portability warning, measured.\n");
  return 0;
}
