// Experiment T1 — reproduces Table 1 of the paper: "Instruction pairs
// executed in dual-issue by the Cortex-A7 MPCore CPU".
//
// Method (Section 3.2): for every ordered pair of instruction classes,
// run 200 repetitions of the pair framed by pipeline-flushing nops,
// measure CPI between trigger markers, and compare against an
// artificially RAW-hazarded variant.  CPI 0.5 => dual-issued.
//
// All 49x3 pair measurements run on one resettable pipeline (rebind per
// probe program) instead of constructing a simulator per measurement.
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "core/cpi_explorer.h"

using namespace usca;
using core::num_probe_classes;
using core::probe_class;

namespace {

// The paper's measured matrix (rows = older, cols = younger).
constexpr bool paper_matrix[num_probe_classes][num_probe_classes] = {
    /* mov   */ {true, true, true, false, true, true, false},
    /* ALU   */ {true, false, true, false, false, true, false},
    /* ALUi  */ {true, true, true, false, true, true, true},
    /* mul   */ {false, false, false, false, false, true, false},
    /* shift */ {false, false, true, false, false, true, false},
    /* br    */ {true, true, true, true, true, false, true},
    /* ld/st */ {true, false, true, false, false, true, false},
};

// Table 1 presents rows in this order: mov, ALU, ALU w/ imm, branch,
// ld/st, mul, shifts.
constexpr probe_class paper_row_order[num_probe_classes] = {
    probe_class::mov,    probe_class::alu, probe_class::alu_imm,
    probe_class::branch, probe_class::ld_st, probe_class::mul,
    probe_class::shift,
};

} // namespace

int main(int argc, char** argv) {
  const bench::arg_map args(argc, argv, {});
  (void)args;

  std::printf("== Table 1: dual-issue pair matrix (measured via CPI) ==\n");
  std::printf("   benchmark: 200 reps of each ordered pair, 100 flush nops,"
              " trigger-marker timing\n\n");

  const core::cpi_explorer explorer(sim::cortex_a7());
  const core::dual_issue_matrix matrix = explorer.explore();

  std::printf("%-12s", "older \\ younger");
  for (std::size_t col = 0; col < num_probe_classes; ++col) {
    std::printf(" %-11s",
                std::string(probe_class_name(static_cast<probe_class>(col)))
                    .c_str());
  }
  std::printf("\n");
  bench::print_rule(12 + 12 * static_cast<int>(num_probe_classes));

  int mismatches = 0;
  for (const probe_class row : paper_row_order) {
    std::printf("%-15s", std::string(probe_class_name(row)).c_str());
    for (std::size_t col = 0; col < num_probe_classes; ++col) {
      const auto& cell =
          matrix.entry[static_cast<std::size_t>(row)][col];
      const bool paper =
          paper_matrix[static_cast<std::size_t>(row)][col];
      const char* symbol = cell.dual_issued ? "Y" : "n";
      const char* verdict = cell.dual_issued == paper ? " " : "!";
      std::printf(" %s%s(%.2f)   ", symbol, verdict, cell.cpi_hazard_free);
      mismatches += cell.dual_issued == paper ? 0 : 1;
    }
    std::printf("\n");
  }
  std::printf("\nlegend: Y = dual-issued (CPI~0.5), n = single-issued"
              " (CPI~1); '!' marks disagreement with the paper\n");

  std::printf("\n== hazarded variants (artificial RAW -> never dual) ==\n");
  for (std::size_t cls = 0; cls < num_probe_classes; ++cls) {
    const auto pc = static_cast<probe_class>(cls);
    const core::pair_measurement m = explorer.measure_pair(pc, pc);
    if (std::isnan(m.cpi_hazarded)) {
      std::printf("  %-12s hazard-free CPI %.3f, no hazard variant\n",
                  std::string(probe_class_name(pc)).c_str(),
                  m.cpi_hazard_free);
    } else {
      std::printf("  %-12s hazard-free CPI %.3f, hazarded CPI %.3f\n",
                  std::string(probe_class_name(pc)).c_str(),
                  m.cpi_hazard_free, m.cpi_hazarded);
    }
  }

  std::printf("\nresult: %d/%zu cells match the paper's Table 1\n",
              static_cast<int>(num_probe_classes * num_probe_classes) -
                  mismatches,
              num_probe_classes * num_probe_classes);
  return mismatches == 0 ? 0 : 1;
}
