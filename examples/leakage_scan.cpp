// Static leakage scanning of a masked implementation (the Section 4.2
// toolchain use case), cross-checked dynamically on the pipeline.
//
// A first-order masked xor gadget is scanned under the Cortex-A7 model.
// The scanner reports that the two shares of the secret are combined by
// the IS/EX operand bus — a leak invisible to ISA-level reasoning — and
// shows that swapping the operands of one (commutative!) instruction
// changes the leakage, exactly the pitfall the paper warns about.
//
// Every static verdict is then confirmed dynamically: a
// core::acquisition_campaign (the same parallel, per-index-seeded engine
// as the full-size experiments) simulates each variant a few thousand
// times and correlates HW(A ^ B) — the *unmasked secret* — against the
// synthesized power.
#include <cmath>
#include <cstdio>

#include "asmx/assembler.h"
#include "core/acquisition.h"
#include "core/analysis_sinks.h"
#include "core/leakage_scanner.h"
#include "stats/pearson.h"
#include "util/bitops.h"

using namespace usca;
using isa::reg;

namespace {

void scan_and_print(const char* title, const char* source) {
  std::printf("--- %s ---\n%s\n", title, source);
  const core::leakage_scanner scanner(sim::cortex_a7());
  const auto findings = scanner.scan(asmx::assemble(source));
  if (findings.empty()) {
    std::printf("  no findings\n\n");
    return;
  }
  for (const auto& f : findings) {
    std::printf("  %s\n", core::to_string(f).c_str());
  }
  std::printf("\n");
}

constexpr std::size_t probe_trials = 6'000;

struct secret_probe {
  double max_corr = 0.0;       ///< max |corr(HW(A^B))| over all cycles
  std::size_t leaking_cycles = 0; ///< cycles above the threshold
};

/// Correlates HW(A ^ B) — the unmasked secret — against every cycle of
/// the gadget, measured through the acquisition engine.  r2 = share A,
/// r4 = share B, r3 = fresh mask.  Each leaking *cycle* is one
/// micro-architectural combination point (issue-stage bus, write-back
/// path, ...), so the count tracks the scanner's finding list.
secret_probe probe_secret(const char* source, double threshold) {
  const asmx::program prog = asmx::assemble(source);
  core::acquisition_config config;
  config.traces = probe_trials;
  config.seed = 0x5ca9;
  config.averaging = 1;
  config.full_run_window = true;
  core::acquisition_campaign campaign(sim::program_image(prog), config);
  campaign.set_setup([](std::size_t, util::xoshiro256& rng,
                        sim::backend& pipe, std::vector<double>& labels) {
    const std::uint32_t a = rng.next_u32();
    const std::uint32_t b = rng.next_u32();
    const std::uint32_t mask = rng.next_u32();
    pipe.state().set_reg(reg::r2, a);
    pipe.state().set_reg(reg::r4, b);
    pipe.state().set_reg(reg::r3, mask);
    labels.assign({static_cast<double>(util::hamming_weight(a ^ b))});
  });

  core::label_correlation_sink secret_power;
  campaign.run(secret_power);
  secret_probe out;
  for (const auto& a : secret_power.correlations()[0]) {
    const double corr = std::fabs(a.correlation());
    out.max_corr = std::max(out.max_corr, corr);
    if (corr > threshold) {
      ++out.leaking_cycles;
    }
  }
  return out;
}

void probe_and_print(const char* title, const char* source,
                     double threshold) {
  const secret_probe probe = probe_secret(source, threshold);
  std::printf("  %-28s max |corr(HW(A^B))| = %.4f, %zu leaking cycle(s)"
              "  -> %s\n",
              title, probe.max_corr, probe.leaking_cycles,
              probe.max_corr > threshold ? "LEAKS" : "clean");
}

} // namespace

int main() {
  std::printf("== static micro-architectural leakage scan ==\n\n");

  // r2 = share A of the secret, r4 = share B (secret = A ^ B), r3 = fresh
  // mask.  Each instruction alone is first-order secure.
  scan_and_print("masked gadget (original)",
                 "eor r1, r2, r3\n"
                 "eor r5, r4, r3\n");

  std::printf("note the operand-bus finding combining r2 (share A) and r4\n"
              "(share B): the bus transition leaks HD(A, B) = HW(A ^ B) —\n"
              "the *unmasked secret* — although no instruction ever\n"
              "computes A ^ B.\n\n");

  // Swapping the commutative operands of the second eor moves share B to
  // the other bus: now it combines with the mask instead of share A.
  scan_and_print("masked gadget (operands swapped)",
                 "eor r1, r2, r3\n"
                 "eor r5, r3, r4\n");

  std::printf("after the swap the shares no longer meet on the operand\n"
              "buses; the semantically neutral change is security relevant\n"
              "(Section 4.2).  The write-back finding remains — the\n"
              "dynamic check below quantifies both.\n\n");

  // Inserting a nop does NOT help: the ALU input latches keep share A
  // alive across it, and the nop adds Hamming-weight exposure on top.
  scan_and_print("masked gadget (nop inserted)",
                 "eor r1, r2, r3\n"
                 "nop\n"
                 "eor r5, r4, r3\n");

  // Memory remanence: a sensitive byte parked in memory combines with the
  // next loaded value inside the LSU.
  scan_and_print("memory remanence",
                 "strb r1, [r8]\n"
                 "ldr  r2, [r9]\n"
                 "ldrb r3, [r10]\n");

  // ---- dynamic confirmation ------------------------------------------
  // The static findings are claims about the micro-architecture; check
  // them on the cycle-level model by attacking the unmasked secret
  // directly (threshold: 99.5% significance for the trial count).
  const double threshold =
      stats::significance_threshold(probe_trials, 0.995);
  std::printf("== dynamic confirmation (%zu traces each, |corr| "
              "threshold %.4f) ==\n\n",
              probe_trials, threshold);
  probe_and_print("original:",
                  "eor r1, r2, r3\n"
                  "eor r5, r4, r3\n"
                  "halt\n",
                  threshold);
  probe_and_print("operands swapped:",
                  "eor r1, r2, r3\n"
                  "eor r5, r3, r4\n"
                  "halt\n",
                  threshold);
  probe_and_print("nop inserted:",
                  "eor r1, r2, r3\n"
                  "nop\n"
                  "eor r5, r4, r3\n"
                  "halt\n",
                  threshold);
  std::printf(
      "\nevery variant leaks the unmasked secret — as the scanner says:\n"
      "besides the operand bus, the two *results* (A^m and B^m) always\n"
      "combine on the shared write-back path, and HD(A^m, B^m) is again\n"
      "HW(A^B).  The swap removes exactly one combination point (compare\n"
      "the leaking-cycle counts), the nop converts combinations into\n"
      "boundary effects without removing them.  Closing all of them needs\n"
      "the scheduling pass demonstrated by example_harden_gadget.\n");
  return 0;
}
