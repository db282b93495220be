#include "sim/inorder_control.h"

namespace usca::sim {

namespace {

using isa::instruction;
using isa::reads_flags;
using isa::reg;
using isa::writes_flags;

} // namespace

inorder_control::inorder_control(program_image image,
                                 const micro_arch_config& config)
    : config_(config) {
  bind(std::move(image));
}

void inorder_control::bind(program_image image) {
  image_ = std::move(image);
  const std::vector<instruction>& code = image_.prog().code;
  pairable_next_.resize(code.size());
  for (std::size_t i = 0; i < code.size(); ++i) {
    pairable_next_[i] = i + 1 < code.size() &&
                        statically_pairable(config_, code[i], code[i + 1]);
  }
}

void inorder_control::reset() noexcept {
  pc = 0;
  halted = false;
  cycle = 0;
  issued = 0;
  dual_pairs = 0;
  rf_ports_used = 0;
  reg_ready_.fill(0);
  flags_ready_ = 0;
  lsu_free_ = 0;
  mul_free_ = 0;
  fetch_ready_ = 0;
}

bool statically_pairable(const micro_arch_config& config,
                         const instruction& older,
                         const instruction& younger) noexcept {
  if (config.issue_width < 2) {
    return false;
  }
  if (isa::is_nop(older) || isa::is_nop(younger)) {
    if (!config.nop_dual_issues) {
      return false;
    }
  }
  const isa::issue_class older_cls = isa::classify(older);
  const isa::issue_class younger_cls = isa::classify(younger);
  if (older_cls == isa::issue_class::other ||
      younger_cls == isa::issue_class::other) {
    return false;
  }

  if (config.policy == issue_policy::table) {
    const std::size_t row = pair_class_index(older_cls);
    const std::size_t col = pair_class_index(younger_cls);
    if (row >= num_pair_classes || col >= num_pair_classes) {
      if (!config.nop_dual_issues) {
        return false;
      }
    } else if (!config.pair_table[row][col]) {
      return false;
    }
  } else {
    // Structural-only policy: an idealized issue stage limited solely by
    // physical resources.
    if (isa::is_memory(older) && isa::is_memory(younger)) {
      return false; // single LSU pipe
    }
    if (isa::needs_alu0(older) && isa::needs_alu0(younger) &&
        config.alu0_has_shifter) {
      return false; // one shifter/multiplier
    }
    if (isa::is_branch(older) && isa::is_branch(younger)) {
      return false; // one branch unit
    }
  }

  // Structural limits that hold under every policy.
  if (isa::read_ports_needed(older) + isa::read_ports_needed(younger) >
      config.rf_read_ports) {
    return false;
  }
  if (isa::write_ports_needed(older) + isa::write_ports_needed(younger) >
      config.rf_write_ports) {
    return false;
  }

  // Inter-instruction dependencies.
  const isa::reg_list older_dests = isa::destination_registers(older);
  for (const reg r : isa::source_registers(younger)) {
    if (older_dests.contains(r)) {
      return false; // RAW
    }
  }
  for (const reg r : isa::destination_registers(younger)) {
    if (older_dests.contains(r)) {
      return false; // WAW
    }
  }
  if (writes_flags(older) && (reads_flags(younger) || writes_flags(younger))) {
    return false;
  }
  return true;
}

} // namespace usca::sim
