#include "power/synthesizer.h"

#include <cmath>

namespace usca::power {

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
  trace out = synthesize_clean(activity, first_cycle, last_cycle);
  apply_noise(out);
  return out;
}

trace trace_synthesizer::synthesize_averaged(
    const sim::activity_trace& activity, std::uint32_t first_cycle,
    std::uint32_t last_cycle, int executions) {
  synthesize_clean_into(scratch_, activity, first_cycle, last_cycle);
  return average_executions(executions);
}

trace trace_synthesizer::synthesize_column(const double* clean,
                                           std::size_t stride,
                                           std::size_t samples,
                                           int executions) {
  scratch_.resize(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    scratch_[i] = clean[i * stride];
  }
  if (executions > 1) {
    return average_executions(executions);
  }
  trace out = scratch_;
  apply_noise(out);
  return out;
}

trace trace_synthesizer::average_executions(int executions) {
  if (!config_.os_noise.enabled && !second_core_ && executions > 1) {
    // Hot path for the bare-metal environment: the noiseless leakage is
    // identical across the averaged executions, so the mean of
    // `executions` iid Gaussian acquisitions IS the clean trace plus
    // N(0, sigma^2/executions) — draw that noise directly instead of
    // simulating each execution.  Statistically exact, and it turns the
    // dominant 16x per-sample noise loop of a default campaign into 1x.
    trace out = scratch_;
    const double sigma =
        config_.gaussian_sigma / std::sqrt(static_cast<double>(executions));
    for (double& sample : out) {
      sample += sigma * rng_.next_gaussian();
    }
    return out;
  }
  trace accum(scratch_.size(), 0.0);
  for (int e = 0; e < executions; ++e) {
    os_noise_process os(config_.os_noise, rng_);
    for (std::size_t i = 0; i < scratch_.size(); ++i) {
      accum[i] += scratch_[i] +
                  config_.gaussian_sigma * rng_.next_gaussian() + os.step();
    }
    if (second_core_) {
      second_core_->add_window(accum, rng_);
    }
  }
  const double scale = 1.0 / static_cast<double>(executions);
  for (double& v : accum) {
    v *= scale;
  }
  return accum;
}

} // namespace usca::power
