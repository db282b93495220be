// Experiment T2 — reproduces Table 2 of the paper: "Instruction
// micro-benchmark sequences employed to detect the main leakage sources in
// the Cortex-A7, and intermediate expressions employed to predict them".
//
// Seven short instruction sequences run with fresh random inputs per
// trial; per-component hypothesis models are correlated against the
// synthesized power.  RED = statistically sound leakage (>99.5%
// confidence in the component's clock cycle), black = no leakage.
// Entries marked '+' correspond to the paper's dagger: boundary effects
// of the flanking nops.
//
// Acquisition runs through the generic campaign engine (worker-owned
// resettable pipelines, per-index seeding, in-order delivery), so trials
// are sharded over threads with bit-identical verdicts at any count.
//
// Defaults: traces=20000 (paper: 100k), averaging=16, threads=hardware.
// Override with traces=N averaging=M seed=S threads=T.  Exits 1 unless
// every model verdict and every dual-issue observation matches the paper.
#include <cstdio>

#include <algorithm>
#include <iterator>
#include <vector>

#include "bench_util.h"
#include "core/leakage_characterizer.h"

using namespace usca;

int main(int argc, char** argv) {
  const bench::arg_map args(
      argc, argv, {"traces", "averaging", "threads", "seed"});
  core::characterizer_options opts;
  opts.traces = args.get_size("traces", 20'000);
  opts.averaging = static_cast<int>(args.get_size("averaging", 16));
  opts.threads = static_cast<unsigned>(args.get_size("threads", 0));
  opts.seed = args.get_size("seed", 0x5ca1ab1e);

  std::printf("== Table 2: leakage sources per micro-benchmark ==\n");
  std::printf("   traces=%zu (avg of %d executions each), detection"
              " confidence 99.5%%\n\n",
              opts.traces, opts.averaging);

  const core::leakage_characterizer characterizer(
      sim::cortex_a7(), power::synthesis_config{});

  int mismatched_models = 0;
  int total_models = 0;
  bool all_match = true;
  std::vector<core::characterization_benchmark> benches =
      core::table2_benchmarks();
  std::vector<core::characterization_benchmark> extensions =
      core::extension_benchmarks();
  const std::size_t paper_count = benches.size();
  std::move(extensions.begin(), extensions.end(),
            std::back_inserter(benches));
  std::size_t bench_index = 0;
  for (const auto& bench : benches) {
    if (bench_index++ == paper_count) {
      std::printf("--- extension benchmarks (beyond the paper's Table 2)"
                  " ---\n\n");
    }
    const core::benchmark_report report =
        characterizer.characterize(bench, opts);
    all_match = all_match && report.matches_expectations();
    std::printf("%s\n  sequence   : %s\n  dual-issue : %s (expected %s)%s\n",
                report.name.c_str(), report.sequence_text.c_str(),
                report.observed_dual_issue ? "yes" : "no",
                report.expect_dual_issue ? "yes" : "no",
                report.observed_dual_issue == report.expect_dual_issue
                    ? ""
                    : "  <-- disagrees with paper");
    std::printf("  %-12s %-15s %-8s %-10s %-10s %s\n", "model", "component",
                "corr", "threshold", "cycle", "verdict");
    for (const auto& v : report.verdicts) {
      ++total_models;
      const bool match = v.expected == v.detected;
      mismatched_models += match ? 0 : 1;
      std::printf("  %-12s %-15s %-8.4f %-10.4f %-10zu %s%s%s\n",
                  v.label.c_str(),
                  std::string(table2_column_name(v.column)).c_str(),
                  v.max_abs_corr, v.threshold, v.peak_sample,
                  v.detected ? "RED" : "black",
                  v.border_effect && v.detected ? "+" : "",
                  match ? "" : "  <-- disagrees with paper");
    }
    std::printf("\n");
  }

  std::printf("result: %d/%d model verdicts match the paper's Table 2\n",
              total_models - mismatched_models, total_models);
  return all_match ? 0 : 1;
}
