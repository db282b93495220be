// Experiment F3 — reproduces Figure 3 of the paper: "CPA against AES;
// leakage model: Hamming weight of the output of the SubBytes primitive",
// bare metal.
//
// The generated byte-oriented AES-128 runs on the Cortex-A7-like pipeline;
// traces cover the initial AddRoundKey through MixColumns of round 1.
// A CPA with the coarse HW(SubBytes-out) model on key byte 0 produces the
// correlation-versus-time series; phase boundaries (ARK | SB | ShR | MC)
// are annotated from the trigger markers, exactly as the red phase
// sections of Figure 3.
//
// Expected shape (paper Section 5): first leakage inside SubBytes at the
// S-box load/store; further peaks in ShiftRows when the SubBytes output
// byte is loaded, shifted byte-by-byte and stored; more leakage in
// MixColumns from the shift-reduce xtime and its spills/fills.
//
// Acquisition runs through core::trace_campaign into a core::cpa_sink:
// simulation and synthesis are sharded over worker threads and end at the
// window's end mark, while per-index seeding and in-order delivery keep
// the output bit-identical for a fixed seed at any thread count.
//
// Defaults: traces=5000 (paper: 100k), averaging=16, threads=hardware.
// Override with traces=N averaging=M seed=S threads=T.  With csv=1, the
// full correlation series of the correct key is written to
// fig3_correlation.csv for plotting.
#include <cmath>
#include <cstdio>

#include <fstream>

#include "bench_util.h"
#include "core/analysis_sinks.h"
#include "core/campaign.h"
#include "crypto/aes_codegen.h"
#include "stats/cpa.h"
#include "util/bitops.h"

using namespace usca;

int main(int argc, char** argv) {
  const bench::arg_map args(
      argc, argv, {"traces", "averaging", "seed", "threads", "csv"});
  const std::size_t traces = args.get_size("traces", 5'000);
  const int averaging = static_cast<int>(args.get_size("averaging", 16));
  const std::uint64_t seed = args.get_size("seed", 0xf16'3);
  const unsigned threads =
      static_cast<unsigned>(args.get_size("threads", 0));

  const crypto::aes_key key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                               0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                               0x09, 0xcf, 0x4f, 0x3c};

  core::campaign_config config;
  config.traces = traces;
  config.threads = threads;
  config.seed = seed;
  config.averaging = averaging;
  config.window = {crypto::mark_encrypt_begin, crypto::mark_round1_end};
  // bare metal: Gaussian noise only (default synthesis_config)
  core::trace_campaign campaign(config, key);

  std::printf("== Figure 3: CPA vs time, bare metal, model = "
              "HW(SubBytes output byte 0) ==\n");
  std::printf("   traces=%zu (avg of %d executions each), threads=%u\n\n",
              traces, averaging, campaign.resolved_threads());

  // Phase boundaries from one whole run: every trace shares the window's
  // schedule, so trace 0's marks annotate the whole campaign.
  const core::trace_record first = campaign.produce(0);
  const std::uint64_t window_begin = first.window_begin;
  std::uint64_t ark_end = 0;
  std::uint64_t sb_end = 0;
  std::uint64_t shr_end = 0;
  for (const auto& m : first.marks) {
    switch (m.id) {
    case crypto::mark_ark0_end:
      ark_end = m.cycle;
      break;
    case crypto::mark_sb1_end:
      sb_end = m.cycle;
      break;
    case crypto::mark_shr1_end:
      shr_end = m.cycle;
      break;
    default:
      break;
    }
  }

  core::cpa_sink cpa(0);
  const bench::stopwatch watch;
  campaign.run(cpa);
  const double elapsed = watch.seconds();
  std::printf("campaign: %zu traces in %.2f s (%.0f traces/s)\n\n", traces,
              elapsed, static_cast<double>(traces) / elapsed);

  const auto model = [](std::size_t guess, std::size_t pt_byte) {
    return static_cast<double>(util::hamming_weight(
        crypto::subbytes_hypothesis(static_cast<std::uint8_t>(pt_byte),
                                    static_cast<std::uint8_t>(guess))));
  };
  const stats::cpa_result result = cpa.cpa().solve(model, 256);

  const auto phase_of = [&](std::size_t cycle_in_window) {
    const std::uint64_t cycle = window_begin + cycle_in_window;
    if (cycle < ark_end) {
      return "ARK";
    }
    if (cycle < sb_end) {
      return "SB";
    }
    if (cycle < shr_end) {
      return "ShR";
    }
    return "MC";
  };

  // The correlation-versus-time series for the correct key, subsampled to
  // keep the output readable; peaks (|corr| above half the max) are
  // always printed.
  const std::vector<double>& correct = result.corr[key[0]];
  double max_abs = 0.0;
  for (const double c : correct) {
    max_abs = std::max(max_abs, std::fabs(c));
  }
  std::printf("cycle  phase  corr(correct key)\n");
  bench::print_rule(40);
  const std::size_t stride = std::max<std::size_t>(1, correct.size() / 120);
  for (std::size_t s = 0; s < correct.size(); ++s) {
    const bool peak = std::fabs(correct[s]) > 0.5 * max_abs;
    if (!peak && s % stride != 0) {
      continue;
    }
    std::printf("%5zu  %-5s  %+.4f %s\n", s, phase_of(s), correct[s],
                peak ? "  <== peak" : "");
  }

  if (args.get_size("csv", 0) != 0) {
    std::ofstream csv("fig3_correlation.csv");
    csv << "cycle,phase,correlation\n";
    for (std::size_t s = 0; s < correct.size(); ++s) {
      csv << s << ',' << phase_of(s) << ',' << correct[s] << '\n';
    }
    std::printf("\n(correlation series written to fig3_correlation.csv)\n");
  }

  // Per-phase summary: where does the coarse model light up?
  std::printf("\nper-phase max |corr| of the correct key:\n");
  const char* phases[] = {"ARK", "SB", "ShR", "MC"};
  for (const char* phase : phases) {
    double best = 0.0;
    std::size_t at = 0;
    for (std::size_t s = 0; s < correct.size(); ++s) {
      if (std::string(phase_of(s)) == phase &&
          std::fabs(correct[s]) > std::fabs(best)) {
        best = correct[s];
        at = s;
      }
    }
    std::printf("  %-4s max |corr| = %.4f at cycle %zu\n", phase,
                std::fabs(best), at);
  }

  const auto best = result.best();
  const auto wrong = result.best_excluding(key[0]);
  std::printf("\nkey recovery: best guess 0x%02zx (true 0x%02x), |corr| "
              "%.4f vs best wrong %.4f, distinguishing z = %.2f\n",
              best.guess, key[0], std::fabs(result.peak_of(key[0]).corr),
              std::fabs(wrong.corr), result.distinguishing_z(key[0]));
  const bool success = best.guess == key[0];
  std::printf("attack %s\n", success ? "SUCCEEDS" : "FAILS");
  return success ? 0 : 1;
}
