#include "sim/ooo/speculation.h"

#include <algorithm>
#include <bit>
#include <string>

#include "sim/micro_arch_config.h"
#include "util/error.h"

namespace usca::sim {

std::string_view predictor_kind_name(predictor_kind kind) noexcept {
  switch (kind) {
  case predictor_kind::perfect:
    return "perfect";
  case predictor_kind::static_btfn:
    return "static";
  case predictor_kind::bimodal:
    return "bimodal";
  case predictor_kind::gshare:
    return "gshare";
  }
  return "?";
}

std::optional<predictor_kind>
parse_predictor_kind(std::string_view text) noexcept {
  if (text == "perfect") {
    return predictor_kind::perfect;
  }
  if (text == "static" || text == "static_btfn") {
    return predictor_kind::static_btfn;
  }
  if (text == "bimodal") {
    return predictor_kind::bimodal;
  }
  if (text == "gshare") {
    return predictor_kind::gshare;
  }
  return std::nullopt;
}

void validate_speculation_config(const speculation_config& config) {
  if (config.bp_table_bits < 2 || config.bp_table_bits > 20) {
    throw util::simulation_error(
        "speculation_config: bp_table_bits must lie in [2, 20]");
  }
  if (config.history_bits < 0 || config.history_bits > 16 ||
      config.history_bits > config.bp_table_bits) {
    throw util::simulation_error(
        "speculation_config: history_bits must lie in [0, min(16, "
        "bp_table_bits)]");
  }
  if (config.btb_entries < 1 || config.btb_entries > 4096 ||
      !std::has_single_bit(static_cast<unsigned>(config.btb_entries))) {
    throw util::simulation_error(
        "speculation_config: btb_entries must be a power of two in "
        "[1, 4096]");
  }
  if (config.rsb_entries < 1 || config.rsb_entries > 64) {
    throw util::simulation_error(
        "speculation_config: rsb_entries must lie in [1, 64]");
  }
  if (config.resolve_latency < 1 || config.resolve_latency > 100) {
    throw util::simulation_error(
        "speculation_config: resolve_latency must lie in [1, 100]");
  }
}

bool speculation_active(const micro_arch_config& config) {
  return config.speculation.predictor != predictor_kind::perfect;
}

// ---------------------------------------------------------------------------
// branch_predictor
// ---------------------------------------------------------------------------

void branch_predictor::configure(const speculation_config& config) {
  config_ = config;
  table_mask_ = (std::uint32_t{1} << config.bp_table_bits) - 1;
  history_mask_ = config.history_bits > 0
                      ? (std::uint32_t{1} << config.history_bits) - 1
                      : 0;
  btb_mask_ = static_cast<std::uint32_t>(config.btb_entries) - 1;
  counters_.resize(std::size_t{1} << config.bp_table_bits);
  btb_target_.resize(static_cast<std::size_t>(config.btb_entries));
  rsb_.resize(static_cast<std::size_t>(config.rsb_entries));
  reset();
}

void branch_predictor::reset() {
  // Counters start weakly-not-taken: a cold predictor falls through, the
  // conservative default of real front ends.
  std::fill(counters_.begin(), counters_.end(), std::uint8_t{1});
  std::fill(btb_target_.begin(), btb_target_.end(), 0U);
  std::fill(rsb_.begin(), rsb_.end(), 0U);
  rsb_top_ = 0;
  history_ = 0;
}

std::uint32_t
branch_predictor::counter_index(std::uint32_t pc_index) const noexcept {
  std::uint32_t index = pc_index;
  if (config_.predictor == predictor_kind::gshare) {
    index ^= history_ & history_mask_;
  }
  return index & table_mask_;
}

branch_predictor::prediction
branch_predictor::predict_conditional(std::uint32_t pc_index,
                                      std::uint32_t target_index) const {
  prediction p;
  p.has_target = true;
  if (config_.predictor == predictor_kind::static_btfn) {
    p.taken = target_index <= pc_index;
    p.table_bus = (pc_index << 1) | (p.taken ? 1U : 0U);
  } else {
    const std::uint32_t index = counter_index(pc_index);
    const std::uint8_t counter = counters_[index];
    p.taken = counter >= 2;
    p.table_bus = (index << 2) | counter;
  }
  p.target = p.taken ? target_index : pc_index + 1;
  return p;
}

std::uint32_t branch_predictor::update_conditional(std::uint32_t pc_index,
                                                   bool taken) {
  std::uint32_t bus = (pc_index << 1) | (taken ? 1U : 0U);
  if (config_.predictor != predictor_kind::static_btfn) {
    const std::uint32_t index = counter_index(pc_index);
    std::uint8_t& counter = counters_[index];
    if (taken) {
      counter = static_cast<std::uint8_t>(std::min<int>(counter + 1, 3));
    } else {
      counter = static_cast<std::uint8_t>(std::max<int>(counter - 1, 0));
    }
    bus = (index << 2) | counter;
  }
  if (config_.predictor == predictor_kind::gshare) {
    history_ = ((history_ << 1) | (taken ? 1U : 0U)) & history_mask_;
  }
  return bus;
}

branch_predictor::prediction
branch_predictor::predict_indirect(std::uint32_t pc_index) const {
  prediction p;
  p.taken = true;
  const std::uint32_t entry = btb_target_[pc_index & btb_mask_];
  if ((entry & 1U) != 0) {
    p.has_target = true;
    p.target = entry >> 1;
    p.target_bus = entry;
  } else {
    // BTB miss: the front end has no target and falls through.
    p.taken = false;
    p.has_target = false;
    p.target_bus = pc_index & btb_mask_;
  }
  return p;
}

std::uint32_t branch_predictor::update_indirect(std::uint32_t pc_index,
                                                std::uint32_t target_index) {
  const std::uint32_t entry = (target_index << 1) | 1U;
  btb_target_[pc_index & btb_mask_] = entry;
  return entry;
}

branch_predictor::prediction branch_predictor::peek_return() const {
  prediction p;
  p.taken = true;
  p.has_target = true;
  const std::size_t top = (rsb_top_ + rsb_.size() - 1) % rsb_.size();
  p.target = rsb_[top];
  p.target_bus = p.target;
  return p;
}

branch_predictor::prediction branch_predictor::pop_return() {
  const prediction p = peek_return();
  // Circular pop: underflow walks back into stale (or zeroed) slots —
  // deterministic garbage, exactly what an RSB-underflow attack sees.
  rsb_top_ = (rsb_top_ + rsb_.size() - 1) % rsb_.size();
  return p;
}

std::uint32_t branch_predictor::push_return(std::uint32_t return_index) {
  // Circular push: overflow overwrites the oldest entry.
  rsb_[rsb_top_] = return_index;
  rsb_top_ = (rsb_top_ + 1) % rsb_.size();
  return return_index;
}

} // namespace usca::sim
