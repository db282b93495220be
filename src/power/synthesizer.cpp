#include "power/synthesizer.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "sim/batch_sim.h"
#include "util/polar_log.h"
#include "util/telemetry.h"

// The per-trace noise (add_gaussian, the averaged executions) must round
// like the batch-wide kernels, whatever flags build this file.
USCA_FP_CONTRACT_OFF

namespace usca::power {

namespace {

/// Adds Gaussian work to the noise layer's counters: deviates, and
/// candidate pairs the rejection loop consumed (one per deviate pair,
/// plus the rejected ones).
void note_gaussian_work(const noise_work& work) {
  static const telem::counter deviates{"synth.gaussian_deviates",
                                       "deviates", "synth"};
  static const telem::counter candidates{"synth.gaussian_candidates",
                                         "pairs", "synth"};
  deviates.add(work.deviates);
  candidates.add(work.candidates);
}

/// Notes the Gaussian work drawn from `rng` during its lifetime.
class gaussian_work {
public:
  explicit gaussian_work(const util::xoshiro256& rng) noexcept
      : rng_(rng), deviates_(rng.gaussian_deviates()),
        candidates_(rng.gaussian_candidates()) {}
  gaussian_work(const gaussian_work&) = delete;
  gaussian_work& operator=(const gaussian_work&) = delete;
  ~gaussian_work() {
    note_gaussian_work({rng_.gaussian_deviates() - deviates_,
                        rng_.gaussian_candidates() - candidates_});
  }

private:
  const util::xoshiro256& rng_;
  std::uint64_t deviates_;
  std::uint64_t candidates_;
};

} // namespace

leakage_weights leakage_weights::cortex_a7_like() noexcept {
  leakage_weights w;
  using sim::component;
  w[component::rf_read_port] = 0.0; // short load on the read ports: no leak
  w[component::is_ex_bus] = 1.0;
  w[component::alu_in_latch] = 1.0;
  w[component::alu_out] = 1.0;
  // Calibrated so the shift-buffer *correlation* lands at ~1/10 of the
  // other sources' (paper: "its absolute value in correlation is about
  // 1/10 of the average value for the other leakages", i.e. rho ~ 0.05
  // against the ~0.5 of the main buffers, given the co-scheduled
  // activity at the shifter's clock cycle).
  w[component::shift_buffer] = 0.12;
  w[component::ex_wb_latch] = 1.0;
  w[component::wb_bus] = 1.0;
  w[component::mdr] = 1.5; // store/load path leaks strongest
  w[component::align_buffer] = 0.8;
  // Out-of-order backend structures (sim::ooo_core).  Tag-carrying wires
  // (RAT write ports, RS wakeup bus) toggle few, data-independent bits and
  // leak weakly; the value-carrying wires — PRF read ports feeding the
  // long issue/bypass network, the CDB, and the ROB retirement ports —
  // leak like the in-order operand/write-back buses.
  w[component::rat_port] = 0.3;
  w[component::prf_read_port] = 0.9;
  w[component::rs_tag_bus] = 0.4;
  w[component::cdb] = 1.2;
  w[component::rob_retire_port] = 1.0;
  // Speculation front end: the direction-predictor table toggles few,
  // mostly data-independent bits (tag-like, cf. rat_port); the BTB/RSB
  // ports carry target and return addresses — address-class leakage like
  // the align buffer.
  w[component::bp_table] = 0.3;
  w[component::btb_port] = 0.8;
  return w;
}

trace_synthesizer::trace_synthesizer(synthesis_config config,
                                     std::uint64_t seed)
    : config_(config), rng_(seed) {}

void trace_synthesizer::synthesize_clean_into(
    trace& out, const sim::activity_trace& activity, std::uint32_t first_cycle,
    std::uint32_t last_cycle) const {
  const std::size_t samples = last_cycle - first_cycle;
  out.assign(samples, config_.baseline);
  for (const sim::activity_event& ev : activity) {
    if (ev.cycle < first_cycle || ev.cycle >= last_cycle) {
      continue;
    }
    out[ev.cycle - first_cycle] +=
        config_.weights[ev.comp] * static_cast<double>(ev.toggles);
  }
}

trace trace_synthesizer::synthesize_clean(const sim::activity_trace& activity,
                                          std::uint32_t first_cycle,
                                          std::uint32_t last_cycle) const {
  trace out;
  synthesize_clean_into(out, activity, first_cycle, last_cycle);
  return out;
}

void trace_synthesizer::apply_noise(trace& out) {
  os_noise_process os(config_.os_noise, rng_);
  for (double& sample : out) {
    sample += config_.gaussian_sigma * rng_.next_gaussian() + os.step();
  }
  if (second_core_) {
    second_core_->add_window(out, rng_);
  }
}

trace trace_synthesizer::synthesize(const sim::activity_trace& activity,
                                    std::uint32_t first_cycle,
                                    std::uint32_t last_cycle) {
  const gaussian_work work(rng_);
  trace out = synthesize_clean(activity, first_cycle, last_cycle);
  apply_noise(out);
  return out;
}

trace trace_synthesizer::synthesize_averaged(
    const sim::activity_trace& activity, std::uint32_t first_cycle,
    std::uint32_t last_cycle, int executions) {
  const gaussian_work work(rng_);
  synthesize_clean_into(scratch_, activity, first_cycle, last_cycle);
  trace out;
  average_executions(scratch_.data(), 1, scratch_.size(), executions, out);
  return out;
}

trace trace_synthesizer::synthesize_column(const double* clean,
                                           std::size_t stride,
                                           std::size_t samples,
                                           int executions) {
  const gaussian_work work(rng_);
  trace out;
  render_column(clean, stride, samples, executions, out);
  return out;
}

void trace_synthesizer::synthesize_columns(const double* clean,
                                           std::size_t stride,
                                           std::size_t samples,
                                           int executions,
                                           std::uint64_t lanes,
                                           const std::uint64_t* seeds,
                                           trace* const* out) {
  static const telem::counter scalar_traces{"synth.scalar_noise_traces",
                                            "traces", "synth"};
  if (executions > 1 && bare_metal()) {
    std::array<double*, sim::max_batch_lanes> rows{};
    for (const std::size_t lane : sim::lanes_in(lanes)) {
      out[lane]->resize(samples);
      rows[lane] = out[lane]->data();
    }
    const noise_kernels& kernels = active_noise_kernels();
    note_gaussian_work(kernels.add_columns(
        {clean, stride, samples, averaged_sigma(executions), lanes, seeds,
         rows.data()},
        workspace_));
    if (&kernels == &scalar_noise_kernels()) {
      scalar_traces.add(static_cast<std::uint64_t>(std::popcount(lanes)));
    }
    return;
  }
  for (const std::size_t lane : sim::lanes_in(lanes)) {
    reseed(seeds[lane]);
    const gaussian_work work(rng_);
    render_column(clean + lane, stride, samples, executions, *out[lane]);
    scalar_traces.add();
  }
}

void trace_synthesizer::render_column(const double* clean, std::size_t stride,
                                      std::size_t samples, int executions,
                                      trace& out) {
  if (executions > 1) {
    average_executions(clean, stride, samples, executions, out);
    return;
  }
  out.resize(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    out[i] = clean[i * stride];
  }
  apply_noise(out);
}

void trace_synthesizer::average_executions(const double* clean,
                                           std::size_t stride,
                                           std::size_t samples,
                                           int executions, trace& out) {
  out.resize(samples);
  if (executions > 1 && bare_metal()) {
    // Hot path for the bare-metal environment: the noiseless leakage is
    // identical across the averaged executions, so the mean of
    // `executions` iid Gaussian acquisitions IS the clean trace plus
    // N(0, sigma^2/executions) — draw that noise directly instead of
    // simulating each execution.  Statistically exact, and it turns the
    // dominant 16x per-sample noise loop of a default campaign into 1x.
    add_gaussian(clean, stride, samples, averaged_sigma(executions), rng_,
                 out.data());
    return;
  }
  std::fill(out.begin(), out.end(), 0.0);
  for (int e = 0; e < executions; ++e) {
    os_noise_process os(config_.os_noise, rng_);
    for (std::size_t i = 0; i < samples; ++i) {
      out[i] += clean[i * stride] +
                config_.gaussian_sigma * rng_.next_gaussian() + os.step();
    }
    if (second_core_) {
      second_core_->add_window(out, rng_);
    }
  }
  const double scale = 1.0 / static_cast<double>(executions);
  for (double& v : out) {
    v *= scale;
  }
}

double trace_synthesizer::averaged_sigma(int executions) const noexcept {
  return config_.gaussian_sigma / std::sqrt(static_cast<double>(executions));
}

} // namespace usca::power
