// Quickstart: assemble a program, run a campaign on the Cortex-A7-like
// pipeline through the generic acquisition engine, and test a leakage
// hypothesis against the synthesized power traces.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/example_quickstart
#include <cmath>
#include <cstdio>
#include <vector>

#include "asmx/assembler.h"
#include "core/acquisition.h"
#include "core/analysis_sinks.h"
#include "stats/pearson.h"
#include "util/bitops.h"

using namespace usca;

int main() {
  // 1. Assemble a tiny program: two xors separated by a nop.  At ISA
  //    level the values of r2 and r5 are unrelated; the pipeline will
  //    combine them anyway.
  const asmx::program prog = asmx::assemble(R"(
      nop
      nop
      mark #1
      eor r1, r2, r3
      nop
      eor r4, r5, r6
      nop
      nop
      nop
      mark #2
      halt
  )");

  // 2. Campaign: random inputs per trial, one synthesized trace each.
  //    The acquisition engine owns the simulation loop — worker-owned
  //    resettable pipelines, per-index seeding, records delivered in
  //    index order — so this example IS the hot path every large
  //    experiment of the repository runs on.
  const std::size_t trials = 5'000;
  core::acquisition_config config;
  config.traces = trials;
  config.seed = 2024;
  config.window = core::campaign_window{1, 2};
  core::acquisition_campaign campaign(sim::program_image(prog), config);
  campaign.set_setup([](std::size_t, util::xoshiro256& rng,
                        sim::backend& pipe, std::vector<double>& labels) {
    const std::uint32_t r2 = rng.next_u32();
    const std::uint32_t r5 = rng.next_u32();
    pipe.state().set_reg(isa::reg::r2, r2);
    pipe.state().set_reg(isa::reg::r3, rng.next_u32());
    pipe.state().set_reg(isa::reg::r5, r5);
    pipe.state().set_reg(isa::reg::r6, rng.next_u32());
    // The hypothesis value this trial contributes to the correlation.
    labels.assign(1, static_cast<double>(util::hamming_distance(r2, r5)));
  });

  core::label_correlation_sink hd_power;
  campaign.run(hd_power);
  const std::vector<stats::pearson_accumulator>& acc =
      hd_power.correlations()[0];

  // 3. Correlate the hypothesis "HD(r2, r5)" against every cycle.
  std::printf("cycle | corr(HD(r2,r5), power)\n");
  std::printf("------+------------------------\n");
  double best = 0.0;
  std::size_t best_cycle = 0;
  for (std::size_t s = 0; s < acc.size(); ++s) {
    const double r = acc[s].correlation();
    std::printf("%5zu | %+.4f%s\n", s, r,
                stats::correlation_significant(r, trials, 0.995)
                    ? "  <== leaks (>99.5%)"
                    : "");
    if (std::abs(r) > std::abs(best)) {
      best = r;
      best_cycle = s;
    }
  }
  std::printf("\nThe two xor operands r2 and r5 — algorithmically unrelated "
              "values —\nare combined by the shared IS/EX operand bus and "
              "the ALU input latch:\nmax |corr| %.3f at cycle %zu.\n",
              std::abs(best), best_cycle);
  return 0;
}
