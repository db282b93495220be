#include "core/campaign.h"

#include <utility>

namespace usca::core {

namespace {

acquisition_config engine_config(const campaign_config& config) {
  acquisition_config acq;
  acq.traces = config.traces;
  acq.first_index = config.first_index;
  acq.threads = config.threads;
  acq.seed = config.seed;
  acq.averaging = config.averaging;
  acq.window = config.window;
  acq.power = config.power;
  acq.uarch = config.uarch;
  acq.backend = config.backend;
  acq.sim_batch_lanes = config.sim_batch_lanes;
  return acq;
}

std::shared_ptr<const power::second_core_noise>
second_core_of(const campaign_config& config) {
  if (!config.simulated_second_core) {
    return nullptr;
  }
  // One read-only instance shared by every worker; only the window phase
  // is drawn per acquisition, from the trace's private stream.
  return std::make_shared<power::second_core_noise>(
      config.uarch, config.power.weights, config.seed ^ 0xc0de,
      config.second_core_cycles);
}

} // namespace

trace_campaign::trace_campaign(campaign_config config, crypto::aes_key key)
    : config_(config), key_(key),
      layout_(std::make_shared<const crypto::aes_program_layout>(
          crypto::generate_aes128_program())),
      engine_(sim::program_image(layout_->prog), engine_config(config_),
              second_core_of(config_)) {
  set_plaintext_policy([](std::size_t, util::xoshiro256& rng) {
    crypto::aes_block pt;
    for (auto& b : pt) {
      b = rng.next_u8();
    }
    return pt;
  });
}

void trace_campaign::set_plaintext_policy(plaintext_fn policy) {
  engine_.set_setup([layout = layout_, round_keys = crypto::expand_key(key_),
                     policy = std::move(policy)](
                        std::size_t index, util::xoshiro256& rng,
                        sim::backend& core, std::vector<double>& labels) {
    const crypto::aes_block pt = policy(index, rng);
    crypto::install_aes_inputs(core.memory(), *layout, round_keys, pt);
    labels.assign(pt.begin(), pt.end());
  });
}

unsigned trace_campaign::resolved_threads() const noexcept {
  return engine_.resolved_threads();
}

trace_record trace_campaign::produce(std::size_t index) const {
  acquisition_record rec = engine_.produce(index);
  trace_record out;
  out.index = rec.index;
  for (std::size_t b = 0; b < out.plaintext.size(); ++b) {
    out.plaintext[b] = static_cast<std::uint8_t>(rec.labels[b]);
  }
  out.samples = std::move(rec.samples);
  out.window_begin = rec.window_begin;
  out.window_end = rec.window_end;
  out.cycles = rec.cycles;
  out.marks = std::move(rec.marks);
  return out;
}

void trace_campaign::run(analysis_pass& pass) { engine_.run(pass); }

} // namespace usca::core
