#include "core/leakage_characterizer.h"

#include <algorithm>
#include <cmath>

#include "core/analysis_sinks.h"
#include "stats/pearson.h"
#include "util/error.h"

namespace usca::core {

std::string_view table2_column_name(table2_column col) noexcept {
  switch (col) {
  case table2_column::register_file:
    return "Register File";
  case table2_column::is_ex_buffer:
    return "Is/Ex Buffer";
  case table2_column::shift_buffer:
    return "Shift Buffer";
  case table2_column::alu_buffer:
    return "ALU buffer";
  case table2_column::ex_wb_buffer:
    return "Ex/Wb Buffer";
  case table2_column::mdr:
    return "MDR";
  case table2_column::align_buffer:
    return "Align Buffer";
  }
  return "?";
}

table2_column column_of(sim::component comp) noexcept {
  using sim::component;
  switch (comp) {
  case component::rf_read_port:
    return table2_column::register_file;
  case component::is_ex_bus:
  case component::alu_in_latch:
    return table2_column::is_ex_buffer;
  case component::shift_buffer:
    return table2_column::shift_buffer;
  case component::alu_out:
    return table2_column::alu_buffer;
  case component::ex_wb_latch:
  case component::wb_bus:
    return table2_column::ex_wb_buffer;
  case component::mdr:
    return table2_column::mdr;
  case component::align_buffer:
    return table2_column::align_buffer;
  // OoO components are reported under the closest Table-2 column when an
  // OoO trace is pushed through the (in-order-calibrated) characterizer:
  // rename/PRF structures with the register file, wakeup/operand movement
  // with the IS/EX buffers, completion/commit with the EX/WB buffers.
  case component::rat_port:
  case component::prf_read_port:
    return table2_column::register_file;
  case component::rs_tag_bus:
    return table2_column::is_ex_buffer;
  case component::cdb:
  case component::rob_retire_port:
    return table2_column::ex_wb_buffer;
  // Speculation front end: the predictor table is tag-like (register-file
  // class); the BTB/RSB ports carry addresses (align-buffer class).
  case component::bp_table:
    return table2_column::register_file;
  case component::btb_port:
    return table2_column::align_buffer;
  }
  return table2_column::register_file;
}

std::uint32_t trial_context::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    throw util::analysis_error("trial value '" + name + "' not set");
  }
  return it->second;
}

bool benchmark_report::matches_expectations() const noexcept {
  if (expect_dual_issue != observed_dual_issue) {
    return false;
  }
  return std::all_of(verdicts.begin(), verdicts.end(),
                     [](const model_verdict& v) {
                       return v.expected == v.detected;
                     });
}

leakage_characterizer::leakage_characterizer(sim::micro_arch_config arch,
                                             power::synthesis_config power)
    : arch_(arch), power_(power) {}

namespace {

/// [model][sample] total-power correlation accumulators.
using model_grid = label_correlation_sink::grid;
/// [model][column][sample] attribution accumulators.
using column_grid = std::vector<model_grid>;

/// Per-trial randomization shared by every characterizer pass: run the
/// benchmark's setup and evaluate its models into the record labels.
/// `bench` and `bp` must outlive the returned callback.
acquisition_campaign::setup_fn
make_bench_setup(const characterization_benchmark& bench,
                 const bench_program& bp) {
  const std::size_t n_models = bench.models.size();
  return [&bench, &bp, n_models](std::size_t, util::xoshiro256& rng,
                                 sim::backend& pipe,
                                 std::vector<double>& labels) {
    trial_context ctx;
    bench.setup(pipe, rng, bp, ctx);
    labels.resize(n_models);
    for (std::size_t m = 0; m < n_models; ++m) {
      labels[m] = bench.models[m].eval(ctx);
    }
  };
}

bool dual_issue_of(const std::vector<sim::mark_stamp>& marks) noexcept {
  std::uint64_t dual_begin = 0;
  std::uint64_t dual_end = 0;
  for (const auto& m : marks) {
    if (m.id == 1) {
      dual_begin = m.dual_pairs;
    } else if (m.id == 2) {
      dual_end = m.dual_pairs;
    }
  }
  return dual_end > dual_begin;
}

/// Attribution pass for one trial: correlate the model values against
/// each column's own (noise-free) power contribution, rebuilt from the
/// trial's window activity.
void accumulate_attribution(const acquisition_record& rec,
                            const power::synthesis_config& power,
                            std::size_t samples,
                            std::vector<double>& column_contrib,
                            column_grid& column_acc) {
  const std::size_t n_models = column_acc.size();
  const auto first = static_cast<std::uint32_t>(rec.window_begin);
  for (std::size_t col = 0; col < num_table2_columns; ++col) {
    column_contrib.assign(samples, 0.0);
    for (const sim::activity_event& ev : rec.window_activity) {
      if (static_cast<std::size_t>(column_of(ev.comp)) != col) {
        continue;
      }
      column_contrib[ev.cycle - first] +=
          power.weights[ev.comp] * static_cast<double>(ev.toggles);
    }
    for (std::size_t m = 0; m < n_models; ++m) {
      for (std::size_t s = 0; s < samples; ++s) {
        column_acc[m][col][s].add(rec.labels[m], column_contrib[s]);
      }
    }
  }
}

/// Verdicts: significant total-power correlation at a cycle attributed to
/// the model's own column.
void build_verdicts(const characterization_benchmark& bench,
                    const model_grid& power_acc, const column_grid& column_acc,
                    std::size_t samples, std::size_t traces,
                    const characterizer_options& opts,
                    benchmark_report& report) {
  const double alpha =
      (1.0 - opts.confidence) / static_cast<double>(samples);
  const double per_sample_confidence = 1.0 - alpha;

  for (std::size_t m = 0; m < bench.models.size(); ++m) {
    const model_spec& spec = bench.models[m];
    model_verdict verdict;
    verdict.label = spec.label;
    verdict.column = spec.column;
    verdict.expected = spec.expected_leak;
    verdict.border_effect = spec.border_effect;
    verdict.threshold =
        stats::significance_threshold(traces, per_sample_confidence);
    const auto col = static_cast<std::size_t>(spec.column);
    for (std::size_t s = 0; s < samples; ++s) {
      const double r = power_acc[m][s].correlation();
      if (!stats::correlation_significant(r, traces,
                                          per_sample_confidence)) {
        continue;
      }
      const double attribution = column_acc[m][col][s].correlation();
      if (std::fabs(attribution) < opts.attribution_threshold) {
        continue;
      }
      if (std::fabs(r) > verdict.max_abs_corr) {
        verdict.max_abs_corr = std::fabs(r);
        verdict.peak_sample = s;
        verdict.detected = true;
      }
    }
    report.verdicts.push_back(std::move(verdict));
  }
}

} // namespace

acquisition_config
leakage_characterizer::acquisition_plan(const options& opts) const {
  acquisition_config acq;
  acq.traces = opts.traces;
  acq.threads = opts.threads;
  acq.seed = opts.seed;
  acq.averaging = opts.averaging;
  acq.window = campaign_window{1, 2};
  acq.power = power_;
  acq.uarch = arch_;
  return acq;
}

benchmark_report
leakage_characterizer::characterize(const characterization_benchmark& bench,
                                    const options& opts) const {
  const bench_program bp = bench.build();

  benchmark_report report;
  report.name = bench.name;
  report.sequence_text = bench.sequence_text;
  report.expect_dual_issue = bench.expect_dual_issue;

  // Total-power pass from the live trial stream, whose runs end at the
  // window's end mark, in window-bounded tiles.
  label_correlation_sink power_pass;
  {
    acquisition_campaign stream(sim::program_image(bp.prog),
                                acquisition_plan(opts));
    stream.set_setup(make_bench_setup(bench, bp));
    acquisition_source source(stream);
    pump(source, power_pass);
  }
  const std::size_t streamed = power_pass.traces();
  if (streamed == 0) {
    throw util::analysis_error("characterization needs at least one trace");
  }
  const std::size_t n_models = bench.models.size();
  const std::size_t samples = power_pass.samples();
  report.samples = samples;
  report.traces = streamed;
  column_grid column_acc(
      n_models,
      model_grid(num_table2_columns,
                 std::vector<stats::pearson_accumulator>(samples)));

  // Attribution + dual-issue need pipeline activity and whole-run marks,
  // which no source carries: re-simulate the trial prefix to halt.
  // Per-index seeding makes these trials bit-identical to the ones behind
  // the streamed records.
  const std::size_t n_attr = std::min(opts.attribution_trials, streamed);
  acquisition_config acq = acquisition_plan(opts);
  acq.traces = n_attr;
  acq.keep_activity_first = n_attr;
  acquisition_campaign campaign(sim::program_image(bp.prog), acq);
  campaign.set_setup(make_bench_setup(bench, bp));
  if (n_attr > 0) {
    std::vector<double> column_contrib;
    campaign.run([&](acquisition_record&& rec) {
      if (rec.index == 0) {
        report.observed_dual_issue = dual_issue_of(rec.marks);
      }
      if (rec.window_end - rec.window_begin != samples) {
        throw util::analysis_error(
            "attribution trials do not match the streamed window");
      }
      accumulate_attribution(rec, power_, samples, column_contrib,
                             column_acc);
    });
  } else {
    report.observed_dual_issue = dual_issue_of(campaign.produce(0).marks);
  }

  build_verdicts(bench, power_pass.correlations(), column_acc, samples,
                 streamed, opts, report);
  return report;
}

} // namespace usca::core
