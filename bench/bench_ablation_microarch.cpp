// Experiment A1 — ablations of the micro-architectural features the paper
// identifies as leakage-relevant (DESIGN.md section 5).  Each ablation
// re-runs a Table-2 benchmark under a modified micro-architecture and
// shows how the leakage verdicts move — the paper's core thesis
// ("the same ISA-level program leaks differently on different
// micro-architectures") made directly observable.
//
// Characterizations run through the generic campaign engine (reused
// pipelines, sharded trials, thread-count-independent verdicts).
//
// Defaults: traces=8000, threads=hardware. Override with traces=N
// threads=T.
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "core/cpi_explorer.h"
#include "core/leakage_characterizer.h"

using namespace usca;

namespace {

const core::characterization_benchmark& benchmark_named(const char* needle) {
  static const std::vector<core::characterization_benchmark> all =
      core::table2_benchmarks();
  for (const auto& b : all) {
    if (b.name.find(needle) != std::string::npos) {
      return b;
    }
  }
  std::abort();
}

void compare_verdicts(const core::benchmark_report& base,
                      const core::benchmark_report& ablated,
                      const char* base_name, const char* ablated_name) {
  std::printf("  %-12s %-15s %-12s %-12s\n", "model", "component", base_name,
              ablated_name);
  for (std::size_t i = 0; i < base.verdicts.size(); ++i) {
    const auto& a = base.verdicts[i];
    const auto& b = ablated.verdicts[i];
    const bool moved = a.detected != b.detected;
    std::printf("  %-12s %-15s %-12s %-12s%s\n", a.label.c_str(),
                std::string(core::table2_column_name(a.column)).c_str(),
                a.detected ? "RED" : "black", b.detected ? "RED" : "black",
                moved ? "   <== moved" : "");
  }
  std::printf("\n");
}

} // namespace

int main(int argc, char** argv) {
  const bench::arg_map args(argc, argv, {"traces", "threads"});
  core::characterizer_options opts;
  opts.traces = args.get_size("traces", 8'000);
  opts.averaging = 16;
  opts.threads = static_cast<unsigned>(args.get_size("threads", 0));

  const power::synthesis_config power_config;
  const core::leakage_characterizer baseline(sim::cortex_a7(), power_config);

  std::printf("== A1: micro-architectural ablations ==\n\n");

  // ------------------------------------------------------------------
  std::printf("--- ablation 1: dual-issue vs scalar (T2.3 add/add-imm) ---\n");
  std::printf("    dual-issuing routes the pair through separate buses and\n"
              "    write-back lanes; a scalar core combines their values.\n");
  {
    const core::leakage_characterizer scalar(sim::cortex_a7_scalar(),
                                             power_config);
    const auto base = baseline.characterize(benchmark_named("dual"), opts);
    const auto ablated = scalar.characterize(benchmark_named("dual"), opts);
    compare_verdicts(base, ablated, "dual-issue", "scalar");
  }

  // ------------------------------------------------------------------
  std::printf("--- ablation 2: nop implementation (T2.1 mov-nop-mov) ---\n");
  std::printf("    a transparent nop (no zero-driving, no WB reset) removes\n"
              "    the Hamming-weight border leaks; the ALU-latch HD leak\n"
              "    survives either way.\n");
  {
    sim::micro_arch_config transparent_nop = sim::cortex_a7();
    transparent_nop.nop_drives_zero_operands = false;
    transparent_nop.nop_zeroes_wb_bus = false;
    const core::leakage_characterizer ablated_chr(transparent_nop,
                                                  power_config);
    const auto base =
        baseline.characterize(benchmark_named("mov-nop-mov"), opts);
    const auto ablated =
        ablated_chr.characterize(benchmark_named("mov-nop-mov"), opts);
    compare_verdicts(base, ablated, "A7 nop", "transparent");
  }

  // ------------------------------------------------------------------
  std::printf("--- ablation 3: LSU align buffer (T2.7 ldr/ldrb) ---\n");
  {
    sim::micro_arch_config no_align = sim::cortex_a7();
    no_align.has_align_buffer = false;
    const core::leakage_characterizer ablated_chr(no_align, power_config);
    const auto base =
        baseline.characterize(benchmark_named("interleave"), opts);
    const auto ablated =
        ablated_chr.characterize(benchmark_named("interleave"), opts);
    compare_verdicts(base, ablated, "with buffer", "no buffer");
  }

  // ------------------------------------------------------------------
  std::printf("--- ablation 4: issue policy — A7 PLA vs purely structural "
              "---\n");
  {
    sim::micro_arch_config structural = sim::cortex_a7();
    structural.policy = sim::issue_policy::structural;
    const core::cpi_explorer a7(sim::cortex_a7());
    const core::cpi_explorer ideal(structural);
    const auto a7_cell =
        a7.measure_pair(core::probe_class::mov, core::probe_class::ld_st);
    const auto ideal_cell =
        ideal.measure_pair(core::probe_class::mov, core::probe_class::ld_st);
    std::printf("  mov + ld/st pair: A7 PLA CPI %.3f (%s), structural-only "
                "CPI %.3f (%s)\n",
                a7_cell.cpi_hazard_free,
                a7_cell.dual_issued ? "dual" : "single",
                ideal_cell.cpi_hazard_free,
                ideal_cell.dual_issued ? "dual" : "single");
    std::printf("  the pairing policy is a hard-wired design choice with\n"
                "  observable timing and leakage consequences.\n\n");
  }

  // ------------------------------------------------------------------
  std::printf("--- ablation 5: RF read-port load (T2.1) ---\n");
  std::printf("    the paper found no RF leakage and ascribed it to the\n"
              "    short capacitive load of the read ports; raising the\n"
              "    port weight makes the same benchmark light up.\n");
  {
    power::synthesis_config leaky_rf = power_config;
    leaky_rf.weights[sim::component::rf_read_port] = 1.0;
    const core::leakage_characterizer ablated_chr(sim::cortex_a7(),
                                                  leaky_rf);
    const auto base =
        baseline.characterize(benchmark_named("mov-nop-mov"), opts);
    const auto ablated =
        ablated_chr.characterize(benchmark_named("mov-nop-mov"), opts);
    compare_verdicts(base, ablated, "weight 0", "weight 1");
  }

  std::printf("done.\n");
  return 0;
}
