// Experiment F2 — reproduces the structural deductions behind Figure 2:
// "Alleged ARM Cortex A7 pipeline structure according to the deductions
// possible via CPI analysis" (Section 3.2).
//
// The explorer treats the simulated core as a black box, measures CPI on
// targeted micro-benchmarks, and derives: fetch width, ALU count and
// asymmetry, shifter/multiplier placement, LSU and multiplier pipelining,
// and register-file port counts.  The same method is then applied to a
// scalar ablation of the core to show the deductions track the actual
// micro-architecture.
//
// The explorer's dozens of timing probes reuse one resettable pipeline
// (rebind per probe program) — the same zero-reallocation hot path the
// trace campaigns run on.
#include <cstdio>

#include "bench_util.h"
#include "core/cpi_explorer.h"

using namespace usca;

int main(int argc, char** argv) {
  const bench::arg_map args(argc, argv, {});
  (void)args;

  std::printf("== Figure 2: pipeline structure deduced via CPI analysis ==\n\n");
  std::printf("--- target: Cortex-A7-like configuration ---\n");
  const core::cpi_explorer explorer(sim::cortex_a7());
  const core::pipeline_inference inferred = explorer.infer_structure();
  std::printf("%s\n", inferred.to_string().c_str());

  const sim::micro_arch_config truth = sim::cortex_a7();
  std::printf("cross-check against the configured micro-architecture:\n");
  const auto check = [](const char* what, bool ok) {
    std::printf("  %-28s %s\n", what, ok ? "MATCH" : "MISMATCH");
    return ok;
  };
  bool all = true;
  all &= check("fetch width", inferred.fetch_width == truth.fetch_width);
  all &= check("ALU count", inferred.num_alus == truth.alu_count);
  all &= check("asymmetric ALUs",
               inferred.shifter_and_mul_on_single_alu ==
                   (truth.alu0_has_shifter && truth.alu0_has_multiplier));
  all &= check("LSU pipelined", inferred.lsu_pipelined == truth.lsu_pipelined);
  all &= check("MUL pipelined", inferred.mul_pipelined == truth.mul_pipelined);
  all &= check("RF read ports",
               inferred.rf_read_ports == truth.rf_read_ports);
  all &= check("RF write ports",
               inferred.rf_write_ports == truth.rf_write_ports);

  std::printf("\n--- ablation: scalar configuration of the same core ---\n");
  const core::cpi_explorer scalar(sim::cortex_a7_scalar());
  std::printf("%s\n", scalar.infer_structure().to_string().c_str());

  std::printf("overall: %s\n",
              all ? "all deductions match the configuration"
                  : "DEDUCTION MISMATCH");
  return all ? 0 : 1;
}
