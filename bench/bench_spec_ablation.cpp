// Experiment B3 (extension) — speculation-depth leakage ablation.
//
// The speculation subsystem makes wrong-path µop activity a first-class
// leakage source.  The paper's constant-time AES never mispredicts —
// its only branches are direct calls and RSB-covered returns, so every
// predictor design point produces the same schedule (the control row
// below measures exactly that).  The interesting axis needs a victim
// with secret-dependent control flow: the branchy AES variant
// (crypto::generate_aes128_branchy_program) implements xtime's
// reduction as a real branch whose direction is a round-state bit, the
// classic non-constant-time shape.  On it, each predictor design point
// converts a different fraction of those secret bits into mispredicts,
// recovery bubbles and wrong-path rename/load activity:
//
//   * perfect prediction — the timing side channel of the skipped eor
//     alone (no wrong path);
//   * static BTFN / bimodal / gshare — per-point mispredict rates, each
//     mispredict spilling the secret branch direction into BP-table,
//     BTB-port and wrong-path µop toggles;
//   * an under-sized gshare (16-entry) whose aliasing keeps the
//     mispredict rate highest.
//
// Metrics per design point, following bench_ooo_ablation: CPA
// measurements-to-disclosure (key byte 0, HW(SubBytes-out), Fisher-z >
// 2.326) on prefixes of one acquired matrix; full-key recovery; TVLA
// fixed-vs-random max |t|.  Speculating configs have no batched
// counterpart — the campaign transparently runs them per-trace.
//
// Defaults: max_traces=1200, tvla_traces=800, averaging=4.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/acquisition.h"
#include "crypto/aes_codegen.h"
#include "sim/ooo/ooo_core.h"
#include "stats/attack_metrics.h"
#include "stats/cpa.h"
#include "stats/ttest.h"
#include "util/bitops.h"

using namespace usca;

namespace {

const crypto::aes_key bench_key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                                   0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                                   0x09, 0xcf, 0x4f, 0x3c};

struct spec_cell {
  const char* name;
  sim::speculation_config spec;
};

struct cell_result {
  std::size_t mtd = 0;
  int full_key_bytes = 0;
  std::size_t window_samples = 0;
  std::uint64_t mispredicts = 0; ///< one full run, zero plaintext
  double tvla_max_t = 0.0;
  std::size_t tvla_leaking = 0;
};

core::acquisition_config base_config(const sim::speculation_config& spec,
                                     std::size_t traces, unsigned threads,
                                     int averaging, std::uint64_t seed) {
  core::acquisition_config config;
  config.traces = traces;
  config.threads = threads;
  config.seed = seed;
  config.averaging = averaging;
  config.window = core::campaign_window{crypto::mark_encrypt_begin,
                                        crypto::mark_round1_end};
  config.backend = sim::backend_kind::ooo;
  config.uarch = sim::cortex_a7_ooo_spec(spec);
  return config;
}

core::acquisition_campaign
make_campaign(const crypto::aes_program_layout& layout,
              const crypto::aes_round_keys& rk,
              const core::acquisition_config& config, bool fixed_vs_random) {
  core::acquisition_campaign campaign(sim::program_image(layout.prog),
                                      config);
  const crypto::aes_block fixed_pt = {0xda, 0x39, 0xa3, 0xee, 0x5e, 0x6b,
                                      0x4b, 0x0d, 0x32, 0x55, 0xbf, 0xef,
                                      0x95, 0x60, 0x18, 0x90};
  campaign.set_setup([&layout, &rk, fixed_pt, fixed_vs_random](
                         std::size_t index, util::xoshiro256& rng,
                         sim::backend& core, std::vector<double>& labels) {
    crypto::aes_block pt;
    for (auto& b : pt) {
      b = rng.next_u8();
    }
    if (fixed_vs_random && index % 2 == 0) {
      pt = fixed_pt;
    }
    crypto::install_aes_inputs(core.memory(), layout, rk, pt);
    labels.resize(pt.size());
    for (std::size_t b = 0; b < pt.size(); ++b) {
      labels[b] = static_cast<double>(pt[b]);
    }
  });
  return campaign;
}

cell_result run_cell(const crypto::aes_program_layout& layout,
                     const crypto::aes_round_keys& rk, const spec_cell& cell,
                     std::size_t max_traces, std::size_t tvla_traces,
                     int averaging, unsigned threads, std::uint64_t seed) {
  cell_result out;

  // --- mispredict census: one plain run of the victim ------------------
  {
    sim::ooo_core core(sim::program_image(layout.prog),
                       sim::cortex_a7_ooo_spec(cell.spec));
    core.set_record_activity(false);
    crypto::install_aes_inputs(core.memory(), layout, rk,
                               crypto::aes_block{});
    core.warm_caches();
    core.run();
    out.mispredicts = core.mispredicts();
  }

  // --- CPA campaign: acquire once, evaluate MTD on prefixes ------------
  // The branchy victim's timing is data-dependent, so windows differ in
  // length per trace; every trace is truncated to the shortest before
  // the fixed-width CPA/TVLA accumulators see it.  Both campaigns
  // therefore take whole records through run(sink): an analysis pass
  // reads fixed-shape tiles, which cannot carry them.
  std::vector<power::trace> traces;
  std::vector<std::vector<double>> labels;
  traces.reserve(max_traces);
  labels.reserve(max_traces);
  core::acquisition_campaign campaign = make_campaign(
      layout, rk,
      base_config(cell.spec, max_traces, threads, averaging, seed), false);
  campaign.run([&](core::acquisition_record&& rec) {
    labels.push_back(std::move(rec.labels));
    traces.push_back(std::move(rec.samples));
  });
  std::size_t samples = traces.front().size();
  for (const power::trace& t : traces) {
    samples = std::min(samples, t.size());
  }
  out.window_samples = samples;

  const auto model_at = [&](std::size_t byte_index, std::size_t n) {
    stats::cpa_engine cpa(samples, 256);
    std::vector<double> h(256);
    for (std::size_t t = 0; t < std::min(n, traces.size()); ++t) {
      const auto pt_byte =
          static_cast<std::uint8_t>(labels[t][byte_index]);
      for (std::size_t g = 0; g < 256; ++g) {
        h[g] = util::hamming_weight(crypto::subbytes_hypothesis(
            pt_byte, static_cast<std::uint8_t>(g)));
      }
      cpa.add_trace(std::span<const double>(traces[t]).first(samples), h);
    }
    return cpa.solve();
  };

  out.mtd = stats::measurements_to_disclosure(
      [&](std::size_t n) {
        return model_at(0, n).distinguishing_z(bench_key[0]);
      },
      2.326, 50, max_traces);

  for (std::size_t b = 0; b < 16; ++b) {
    if (model_at(b, max_traces).rank_of(bench_key[b]) == 0) {
      ++out.full_key_bytes;
    }
  }

  // --- TVLA campaign: fixed-vs-random keyed on index parity ------------
  core::acquisition_config tvla_config = base_config(
      cell.spec, tvla_traces, threads, averaging, seed ^ 0x51ec0000ULL);
  core::acquisition_campaign tvla_campaign =
      make_campaign(layout, rk, tvla_config, true);
  stats::tvla_accumulator acc(0);
  std::vector<power::trace> fixed_traces;
  std::vector<power::trace> random_traces;
  std::size_t tvla_samples = ~std::size_t{0};
  tvla_campaign.run([&](core::acquisition_record&& rec) {
    tvla_samples = std::min(tvla_samples, rec.samples.size());
    (rec.index % 2 == 0 ? fixed_traces : random_traces)
        .push_back(std::move(rec.samples));
  });
  acc = stats::tvla_accumulator(tvla_samples);
  for (const power::trace& t : fixed_traces) {
    acc.add_fixed(std::span<const double>(t).first(tvla_samples));
  }
  for (const power::trace& t : random_traces) {
    acc.add_random(std::span<const double>(t).first(tvla_samples));
  }
  out.tvla_max_t = acc.max_abs_t();
  out.tvla_leaking = acc.leaking_samples();
  return out;
}

sim::speculation_config spec_of(sim::predictor_kind kind) {
  sim::speculation_config spec;
  spec.predictor = kind;
  return spec;
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
  const std::uint64_t seed = args.get_size("seed", 0x51ec7a);

  sim::speculation_config tiny_gshare = spec_of(sim::predictor_kind::gshare);
  tiny_gshare.bp_table_bits = 4;
  tiny_gshare.history_bits = 4;

  const spec_cell cells[] = {
      {"perfect (no wrong path)", spec_of(sim::predictor_kind::perfect)},
      {"static BTFN", spec_of(sim::predictor_kind::static_btfn)},
      {"bimodal 1K", spec_of(sim::predictor_kind::bimodal)},
      {"gshare 1K h8", spec_of(sim::predictor_kind::gshare)},
      {"gshare 16-entry (alias)", tiny_gshare},
  };

  const crypto::aes_program_layout layout =
      crypto::generate_aes128_branchy_program();
  const crypto::aes_round_keys rk = crypto::expand_key(bench_key);

  std::printf("== B3: speculation-depth leakage ablation (OoO 2-wide, "
              "branchy AES) ==\n");
  std::printf("   victim: xtime reduction as a key-dependent branch "
              "(non-constant-time AES)\n");
  std::printf("   CPA: HW(SubBytes out), key byte 0, round-1 window, "
              "MTD at Fisher-z > 2.326\n");
  std::printf("   campaigns: %zu CPA traces, %zu TVLA traces, averaging "
              "%d\n\n",
              max_traces, tvla_traces, averaging);
  std::printf("%-24s | %7s | %9s | %9s | %8s | %10s | %8s\n", "predictor",
              "window", "mispred", "CPA MTD", "key/16", "TVLA max|t|",
              "|t|>4.5");
  std::printf("-------------------------+---------+-----------+-----------+"
              "----------+------------+---------\n");

  for (const spec_cell& cell : cells) {
    const cell_result r = run_cell(layout, rk, cell, max_traces, tvla_traces,
                                   averaging, threads, seed);
    char mtd_text[32];
    if (r.mtd >= max_traces) {
      std::snprintf(mtd_text, sizeof mtd_text, ">%zu", max_traces);
    } else {
      std::snprintf(mtd_text, sizeof mtd_text, "%zu", r.mtd);
    }
    std::printf("%-24s | %7zu | %9llu | %9s | %5d/16 | %10.1f | %8zu\n",
                cell.name, r.window_samples,
                static_cast<unsigned long long>(r.mispredicts), mtd_text,
                r.full_key_bytes, r.tvla_max_t, r.tvla_leaking);
  }

  // Control: the paper's constant-time AES never mispredicts — every
  // branch is a direct call or an RSB-covered return — so the predictor
  // design point cannot matter there.
  {
    const crypto::aes_program_layout ct = crypto::generate_aes128_program();
    sim::ooo_core core(sim::program_image(ct.prog),
                       sim::cortex_a7_ooo_spec(tiny_gshare));
    core.set_record_activity(false);
    crypto::install_aes_inputs(core.memory(), ct, rk, crypto::aes_block{});
    core.warm_caches();
    core.run();
    std::printf("\ncontrol: constant-time AES under the worst predictor "
                "(gshare 16-entry): %llu mispredicts\n",
                static_cast<unsigned long long>(core.mispredicts()));
  }

  std::printf("\nReading: every mispredict is a secret branch direction\n"
              "spilled into the schedule — a recovery bubble plus wrong-path\n"
              "rename/load toggles — so trainable predictors move leakage\n"
              "that was purely timing (perfect row) into wrong-path µop\n"
              "activity, and the attack cost tracks the mispredict rate,\n"
              "not the ISA-level code.\n");
  return 0;
}
