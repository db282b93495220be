// Micro-architectural leakage characterization (paper Section 4 / Table 2).
//
// A characterization benchmark is a short instruction sequence (2-8
// instructions) executed with fresh random inputs per trial, framed by
// pipeline-flushing nops and trigger markers, and measured over many
// trials (the paper: 100k traces, each the average of 16 executions of
// the same input).  For every micro-architectural component, hypothesis
// models — Hamming weights and distances of the involved values — are
// correlated against the per-cycle power.
//
// Detection criterion (paper): a model leaks from a component when its
// Pearson correlation with the power is statistically nonzero (>99.5%
// confidence, Bonferroni-corrected across the window) *in the correct
// clock cycle*.  The simulated setting makes the "correct cycle"
// attribution rigorous: a detection at cycle s is credited to column C
// only if the model also correlates with C's own (noise-free) power
// contribution at s — with a weight-0 component (the RF read ports) this
// attribution is exactly zero, reproducing the paper's "RF does not
// leak" finding even though the same value leaks from the IS/EX buffers
// one cycle later.
#ifndef USCA_CORE_LEAKAGE_CHARACTERIZER_H
#define USCA_CORE_LEAKAGE_CHARACTERIZER_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "asmx/program.h"
#include "core/acquisition.h"
#include "power/synthesizer.h"
#include "sim/backend.h"
#include "sim/micro_arch_config.h"
#include "util/rng.h"

namespace usca::core {

/// The seven component columns of Table 2.
enum class table2_column : std::size_t {
  register_file = 0,
  is_ex_buffer = 1,
  shift_buffer = 2,
  alu_buffer = 3,
  ex_wb_buffer = 4,
  mdr = 5,
  align_buffer = 6,
};

constexpr std::size_t num_table2_columns = 7;

std::string_view table2_column_name(table2_column col) noexcept;

/// Maps a pipeline component to its Table-2 reporting column.
table2_column column_of(sim::component comp) noexcept;

/// Named values of one trial (register inputs, loaded/stored words,
/// expected results) that the hypothesis models evaluate over.
class trial_context {
public:
  void set(const std::string& name, std::uint32_t value) {
    values_[name] = value;
  }
  std::uint32_t get(const std::string& name) const;

private:
  std::map<std::string, std::uint32_t> values_;
};

/// One hypothesis model of Table 2 (one cell entry).
struct model_spec {
  std::string label;       ///< e.g. "HD(rB,rD)"
  table2_column column;    ///< component column it belongs to
  bool expected_leak = false; ///< ground truth (the paper's red cells)
  bool border_effect = false; ///< the paper's dagger: caused by flanking nops
  std::function<double(const trial_context&)> eval;
};

/// A benchmark program plus the addresses of its data cells.
struct bench_program {
  asmx::program prog;
  std::map<std::string, std::uint32_t> addresses;
};

struct characterization_benchmark {
  std::string name;
  std::string sequence_text; ///< human-readable instruction sequence
  bool expect_dual_issue = false;
  std::function<bench_program()> build;
  /// Randomizes inputs: sets registers/memory on the pipeline, pre-charges
  /// destination registers with expected results (the paper's RF isolation
  /// step) and records every named value into the trial context.
  std::function<void(sim::backend&, util::xoshiro256&, const bench_program&,
                     trial_context&)>
      setup;
  std::vector<model_spec> models;
};

/// The seven Table-2 micro-benchmarks.
std::vector<characterization_benchmark> table2_benchmarks();

/// Extension benchmarks beyond the paper's Table 2: multiplier operand
/// buses, predication-failure leakage (condition-failed instructions
/// still read and drive their operands), and write-back separation of a
/// dual-issued ALU-imm + load pair.
std::vector<characterization_benchmark> extension_benchmarks();

struct model_verdict {
  std::string label;
  table2_column column = table2_column::register_file;
  bool expected = false;
  bool detected = false;
  bool border_effect = false;
  double max_abs_corr = 0.0;   ///< at the attributed cycle
  std::size_t peak_sample = 0; ///< window-relative cycle of the peak
  double threshold = 0.0;      ///< significance threshold on |corr|
};

struct benchmark_report {
  std::string name;
  std::string sequence_text;
  bool expect_dual_issue = false;
  bool observed_dual_issue = false;
  std::size_t traces = 0;
  std::size_t samples = 0;
  std::vector<model_verdict> verdicts;

  /// True when every verdict matches its expectation and the dual-issue
  /// observation matches.
  bool matches_expectations() const noexcept;
};

/// Campaign parameters for the characterizer.  Trials run through the
/// generic acquisition engine: per-index seeding, worker-owned resettable
/// pipelines, in-order delivery — results are bit-identical at any thread
/// count.
struct characterizer_options {
  std::size_t traces = 20'000;  ///< paper: 100k
  int averaging = 16;           ///< executions averaged per trace
  unsigned threads = 0;         ///< worker count; 0 = hardware concurrency
  double confidence = 0.995;    ///< paper's detection confidence
  double attribution_threshold = 0.2; ///< min |corr| vs column contribution
  std::size_t attribution_trials = 2'000;
  std::uint64_t seed = 0x5ca1ab1e;
};

class leakage_characterizer {
public:
  using options = characterizer_options;

  leakage_characterizer(sim::micro_arch_config arch,
                        power::synthesis_config power);

  /// Characterizes a live trial stream: the benchmark's campaign,
  /// wrapped in an acquisition_source (runs end at the window's end
  /// mark), feeds the total-power correlation pass.  The
  /// cycle-attribution pass and the dual-issue observation need pipeline
  /// activity and whole-run marks, which no source carries, so the
  /// (small) trial prefix is re-simulated to halt — per-index seeding
  /// makes those trials bit-identical to the ones behind the streamed
  /// records.  A benchmark whose window length depends on the data
  /// throws util::analysis_error.
  benchmark_report characterize(const characterization_benchmark& bench,
                                const options& opts = {}) const;

private:
  /// The acquisition configuration both characterizer passes run on
  /// (the stream and the attribution prefix share it so their records
  /// agree); it keeps no window activity.
  acquisition_config acquisition_plan(const options& opts) const;

  sim::micro_arch_config arch_;
  power::synthesis_config power_;
};

} // namespace usca::core

#endif // USCA_CORE_LEAKAGE_CHARACTERIZER_H
