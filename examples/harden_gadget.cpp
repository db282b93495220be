// The complete defensive loop of the paper's proposal: statically detect
// micro-architectural share combinations in a masked gadget, let the
// leakage-aware scheduling pass rewrite the code, and *dynamically verify*
// on the cycle-level models that the secret-dependent correlations are
// gone.
//
// Gadget: first-order masked XOR, c = a ^ b with a = a0^a1, b = b0^b1:
//
//     eor r1, r2, r4      ; c0 = a0 ^ b0
//     eor r5, r3, r6      ; c1 = a1 ^ b1
//
// Each share is uniform, each instruction is first-order secure — yet on
// the modelled Cortex-A7 the first-operand bus combines a0 with a1
// (leaking HW(a)) and the write-back buffer combines c0 with c1 (leaking
// HW(a ^ b)).  Neither combination is visible at ISA level.
//
// Verification runs through core::acquisition_campaign (the same
// parallel, per-index-seeded engine as the full-size experiments) and is
// repeated on the out-of-order backend: a schedule that is safe on the
// in-order pipeline is not automatically safe after rename/dynamic
// scheduling, so the hardened gadget must be re-verified per design
// point — exactly the paper's portability argument.
#include <cmath>
#include <cstdio>

#include "asmx/assembler.h"
#include "core/acquisition.h"
#include "core/analysis_sinks.h"
#include "core/leakage_aware_scheduler.h"
#include "isa/disasm.h"
#include "stats/pearson.h"
#include "util/bitops.h"

using namespace usca;
using isa::reg;

namespace {

void print_program(const char* title, const asmx::program& prog) {
  std::printf("%s\n", title);
  for (std::size_t i = 0; i < prog.code.size(); ++i) {
    std::printf("  %2zu: %s\n", i, isa::disassemble(prog.code[i]).c_str());
  }
}

struct leak_probe {
  double hw_a = 0.0;       ///< max |corr| of HW(a) = HD(a0, a1)
  double hw_a_xor_b = 0.0; ///< max |corr| of HW(a^b) = HD(c0, c1)
};

constexpr std::size_t probe_trials = 8'000;

/// Correlates the two share-combination models against the power of
/// every cycle of the gadget, on the selected core model.
leak_probe probe(const asmx::program& prog, std::uint64_t seed,
                 sim::backend_kind kind) {
  core::acquisition_config config;
  config.traces = probe_trials;
  config.seed = seed;
  config.averaging = 1;
  config.full_run_window = true;
  config.backend = kind;
  config.uarch = kind == sim::backend_kind::ooo ? sim::cortex_a7_ooo()
                                                : sim::cortex_a7();
  core::acquisition_campaign campaign(sim::program_image(prog), config);
  campaign.set_setup([](std::size_t, util::xoshiro256& rng,
                        sim::backend& pipe, std::vector<double>& labels) {
    const std::uint32_t a = rng.next_u32();
    const std::uint32_t b = rng.next_u32();
    const std::uint32_t mask_a = rng.next_u32();
    const std::uint32_t mask_b = rng.next_u32();
    pipe.state().set_reg(reg::r2, a ^ mask_a); // a0
    pipe.state().set_reg(reg::r3, mask_a);     // a1
    pipe.state().set_reg(reg::r4, b ^ mask_b); // b0
    pipe.state().set_reg(reg::r6, mask_b);     // b1
    labels.assign({static_cast<double>(util::hamming_weight(a)),
                   static_cast<double>(util::hamming_weight(a ^ b))});
  });

  core::label_correlation_sink probes;
  campaign.run(probes);
  const std::vector<stats::pearson_accumulator>& acc_a =
      probes.correlations()[0];
  const std::vector<stats::pearson_accumulator>& acc_c =
      probes.correlations()[1];

  leak_probe out;
  for (std::size_t s = 0; s < acc_a.size(); ++s) {
    out.hw_a = std::max(out.hw_a, std::fabs(acc_a[s].correlation()));
    out.hw_a_xor_b =
        std::max(out.hw_a_xor_b, std::fabs(acc_c[s].correlation()));
  }
  return out;
}

const char* verdict(double corr, double threshold) {
  return corr > threshold ? "LEAKS" : "clean";
}

void print_probe_table(const char* backend_name, const leak_probe& before,
                       const leak_probe& after, double threshold) {
  std::printf("  [%s]\n", backend_name);
  std::printf("  model        original   hardened\n");
  std::printf("  HW(a)        %.4f %-7s %.4f %s\n", before.hw_a,
              verdict(before.hw_a, threshold), after.hw_a,
              verdict(after.hw_a, threshold));
  std::printf("  HW(a^b)      %.4f %-7s %.4f %s\n", before.hw_a_xor_b,
              verdict(before.hw_a_xor_b, threshold), after.hw_a_xor_b,
              verdict(after.hw_a_xor_b, threshold));
}

} // namespace

int main() {
  std::printf("== leakage-aware hardening of a masked XOR gadget ==\n\n");
  const asmx::program original = asmx::assemble("eor r1, r2, r4\n"
                                                "eor r5, r3, r6\n"
                                                "halt\n");
  print_program("original gadget (r2/r3 = shares of a, r4/r6 = shares of b):",
                original);

  const core::leakage_aware_scheduler scheduler(sim::cortex_a7());
  core::hardening_options options;
  options.secret_registers = {reg::r2, reg::r3, reg::r4, reg::r6};
  const core::hardening_result result = scheduler.harden(original, options);

  std::printf("\nstatic scan: %zu secret combination(s) before, %zu after "
              "(%d swap(s), %d reorder(s), %d separator(s))\n\n",
              result.findings_before, result.findings_after, result.swaps,
              result.reorders, result.separators);
  print_program("hardened gadget:", result.hardened);

  const double threshold =
      stats::significance_threshold(probe_trials, 0.995);

  std::printf("\ndynamic verification (%zu traces each, in-order "
              "pipeline):\n",
              probe_trials);
  const leak_probe before = probe(original, 21, sim::backend_kind::inorder);
  const leak_probe after =
      probe(result.hardened, 21, sim::backend_kind::inorder);
  print_probe_table("in-order", before, after, threshold);
  std::printf("\nBoth combinations predicted by the scanner are real on the\n"
              "pipeline (operand bus: HW(a); write-back buffer: HW(a^b)),\n"
              "and the transformed code removes them.\n");

  // The scheduler reasoned about the in-order pipeline; re-verify the
  // same binary on the OoO backend, where rename and dynamic scheduling
  // reshape which values meet in which structure.
  std::printf("\ncross-design-point verification (out-of-order backend):\n");
  const leak_probe ooo_before = probe(original, 21, sim::backend_kind::ooo);
  const leak_probe ooo_after =
      probe(result.hardened, 21, sim::backend_kind::ooo);
  print_probe_table("out-of-order", ooo_before, ooo_after, threshold);

  const bool inorder_ok =
      before.hw_a > threshold && before.hw_a_xor_b > threshold &&
      after.hw_a < threshold && after.hw_a_xor_b < threshold;
  const bool ooo_ok =
      ooo_after.hw_a < threshold && ooo_after.hw_a_xor_b < threshold;
  if (ooo_ok) {
    std::printf("\nthe hardened schedule stays clean under rename/OoO "
                "issue on this design point.\n");
  } else {
    std::printf(
        "\nthe hardened schedule LEAKS AGAIN under rename/OoO issue: the\n"
        "separator that splits the shares on the in-order pipeline does\n"
        "not survive dynamic scheduling, which re-packs the two eors onto\n"
        "shared issue/broadcast structures.  This is the paper's\n"
        "portability argument made concrete — a hardening is a property\n"
        "of one micro-architecture, not of the binary; re-run the\n"
        "scheduler against the deployment core.\n");
  }
  std::printf("%s\n", inorder_ok
                          ? "HARDENING VERIFIED on the target (in-order) "
                            "core; see the cross-design-point table above"
                          : "UNEXPECTED OUTCOME");
  return inorder_ok ? 0 : 1;
}
