#include "sim/pipeline.h"

#include <algorithm>
#include <bit>

#include "sim/alu.h"
#include "util/bitops.h"
#include "util/error.h"
#include "util/telemetry.h"

namespace usca::sim {

namespace {

using isa::instruction;
using isa::opcode;
using isa::reads_flags;
using isa::reg;
using isa::writes_flags;

} // namespace

pipeline::pipeline(asmx::program prog, micro_arch_config config)
    : pipeline(program_image(std::move(prog)), config) {}

pipeline::pipeline(program_image image, micro_arch_config config)
    : image_(std::move(image)),
      prog_(&image_.prog()),
      config_(config),
      icache_(config.icache),
      dcache_(config.dcache) {
  memory_.load(prog_->data_base, prog_->data);
  activity_.reserve(4096);
  derive_pairability();
}

void pipeline::derive_pairability() {
  const std::vector<instruction>& code = prog_->code;
  pairable_next_.resize(code.size());
  for (std::size_t i = 0; i < code.size(); ++i) {
    pairable_next_[i] = i + 1 < code.size() &&
                        statically_pairable(code[i], code[i + 1]);
  }
}

void pipeline::reset() {
  const std::size_t bytes = memory_.reset();
  memory_.load(prog_->data_base, prog_->data);
  note_lane_restore(bytes, icache_.reset() + dcache_.reset());
  state_ = cpu_state{};
  reg_ready_.fill(0);
  flags_ready_ = 0;
  lsu_free_ = 0;
  mul_free_ = 0;
  fetch_ready_ = 0;
  rf_port_state_.fill(0);
  is_ex_bus_state_.fill(0);
  alu_latch_state_.fill(0);
  ex_wb_latch_state_.fill(0);
  wb_bus_state_.fill(0);
  mdr_state_ = 0;
  align_buffer_state_ = 0;
  cycle_ = 0;
  issued_ = 0;
  dual_pairs_ = 0;
  rf_ports_used_this_cycle_ = 0;
  record_activity_ = record_default_;
  marks_.clear();
  activity_.clear();
}

void pipeline::rebind(program_image image) {
  image_ = std::move(image);
  prog_ = &image_.prog();
  derive_pairability();
  reset();
}

void pipeline::warm_caches() {
  icache_.warm(prog_->code_base,
               prog_->code.size() * 4 + 4);
  if (!prog_->data.empty()) {
    dcache_.warm(prog_->data_base, prog_->data.size());
  }
}

void pipeline::run(std::uint64_t max_cycles) {
  const std::uint64_t start_cycle = cycle_;
  const std::uint64_t limit = cycle_ + max_cycles;
  while (!state_.halted) {
    if (cycle_ >= limit) {
      throw util::simulation_error("pipeline exceeded the cycle budget");
    }
    step_cycle();
  }
  static const telem::counter cycles{"sim.inorder.cycles", "cycles", "sim"};
  cycles.add(cycle_ - start_cycle);
}

// ---------------------------------------------------------------------------
// Event plumbing
// ---------------------------------------------------------------------------

void pipeline::drive_rf_port(std::uint32_t value) {
  const int port = rf_ports_used_this_cycle_++;
  if (port >= static_cast<int>(rf_port_state_.size())) {
    return; // defensive: pairing rules keep this within 3 ports
  }
  const auto lane = static_cast<std::uint8_t>(port);
  emit(component::rf_read_port, lane, rf_port_state_[static_cast<std::size_t>(port)],
       value, cycle_);
  rf_port_state_[static_cast<std::size_t>(port)] = value;
}

void pipeline::drive_is_ex_bus(std::uint8_t lane, std::uint32_t value) {
  // Operands flop into the EX stage one cycle after the RF read.
  emit(component::is_ex_bus, lane, is_ex_bus_state_[lane], value, cycle_ + 1);
  is_ex_bus_state_[lane] = value;
}

void pipeline::write_back(int slot, std::uint32_t value,
                          std::uint64_t at_cycle) {
  const auto lane = static_cast<std::uint8_t>(slot);
  emit(component::wb_bus, lane, wb_bus_state_[lane], value, at_cycle);
  wb_bus_state_[lane] = value;
  emit(component::ex_wb_latch, lane, ex_wb_latch_state_[lane], value,
       at_cycle);
  ex_wb_latch_state_[lane] = value;
}

void pipeline::retire_write(reg r, std::uint32_t value,
                            std::uint64_t ready_at) noexcept {
  state_.set_reg(r, value);
  reg_ready_[isa::index_of(r)] = ready_at;
}

// ---------------------------------------------------------------------------
// Issue legality
// ---------------------------------------------------------------------------

bool pipeline::operands_ready(std::size_t index) const noexcept {
  const instruction_static& st = image_.statics(index);
  std::uint32_t sources = st.src_mask;
  while (sources != 0) {
    const unsigned r = static_cast<unsigned>(std::countr_zero(sources));
    if (reg_ready_[r] > cycle_) {
      return false;
    }
    sources &= sources - 1;
  }
  if (st.reads_flags && flags_ready_ > cycle_) {
    return false;
  }
  return true;
}

bool pipeline::unit_available(std::size_t index) const noexcept {
  const instruction_static& st = image_.statics(index);
  if (st.is_memory && lsu_free_ > cycle_) {
    return false;
  }
  if (st.uses_multiplier && mul_free_ > cycle_) {
    return false;
  }
  return true;
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

bool pipeline::statically_pairable(const instruction& older,
                                   const instruction& younger) const noexcept {
  return sim::statically_pairable(config_, older, younger);
}

// ---------------------------------------------------------------------------
// Issue + execute
// ---------------------------------------------------------------------------

pipeline::issue_outcome pipeline::issue(const instruction& ins, int slot) {
  issue_outcome outcome;
  outcome.issued = true;
  ++issued_;

  const bool exec = isa::condition_passes(ins.cond, state_.f);
  std::size_t next_pc = state_.pc + 1;

  // Simulator pseudo-ops: transparent to the leakage model.
  if (ins.op == opcode::mark) {
    // Safe cut: every event of a window ending at this mark's cycle was
    // emitted by an instruction issued strictly before it (marks
    // serialize, and emission cycles never precede issue cycles), so it
    // is already recorded — and the run may end here.
    if (commit_mark(mark_stamp{ins.imm16, cycle_, dual_pairs_})) {
      state_.halted = true;
    }
    outcome.serialize = true;
    state_.pc = next_pc;
    return outcome;
  }
  if (ins.op == opcode::halt) {
    state_.halted = true;
    outcome.serialize = true;
    return outcome;
  }

  // The canonical nop: condition-never, zero-valued operands.  It does not
  // execute, but it *does* traverse the issue stage, where (on the modelled
  // core) it asserts zeroes on the operand buses and later resets the
  // write-back buses — the paper's "semantically neutral, not security
  // neutral" behaviour.
  if (isa::is_nop(ins)) {
    if (config_.nop_drives_zero_operands) {
      drive_is_ex_bus(0, 0);
      drive_is_ex_bus(1, 0);
    }
    if (config_.nop_zeroes_wb_bus) {
      const std::uint64_t wb_at = cycle_ + 3;
      emit(component::wb_bus, 0, wb_bus_state_[0], 0, wb_at);
      wb_bus_state_[0] = 0;
      emit(component::wb_bus, 1, wb_bus_state_[1], 0, wb_at);
      wb_bus_state_[1] = 0;
    }
    if (!config_.alu_latch_holds_on_idle) {
      for (std::size_t lane = 0; lane < alu_latch_state_.size(); ++lane) {
        emit(component::alu_in_latch, static_cast<std::uint8_t>(lane),
             alu_latch_state_[lane], 0, cycle_ + 1);
        alu_latch_state_[lane] = 0;
      }
    }
    state_.pc = next_pc;
    return outcome;
  }

  // --- branches ---------------------------------------------------------
  if (isa::is_branch(ins)) {
    if (ins.op == opcode::bx) {
      const std::uint32_t target = read_reg(ins.op2.rm);
      drive_rf_port(target);
      if (exec) {
        const auto index = prog_->index_of_address(target);
        if (!index) {
          state_.halted = true; // return past the outermost frame
          outcome.serialize = true;
          return outcome;
        }
        next_pc = *index;
      }
    } else if (exec) {
      const auto target = static_cast<std::size_t>(
          static_cast<std::int64_t>(state_.pc) + 1 + ins.branch_offset);
      if (ins.op == opcode::bl) {
        retire_write(reg::lr, prog_->address_of(state_.pc + 1), cycle_ + 1);
      }
      next_pc = target;
    }
    if (next_pc != state_.pc + 1) {
      outcome.redirect = true;
      if (!config_.perfect_branch_prediction) {
        fetch_ready_ =
            cycle_ + 1 +
            static_cast<std::uint64_t>(config_.branch_mispredict_penalty);
      }
    }
    state_.pc = next_pc;
    if (state_.pc >= prog_->code.size()) {
      state_.halted = true;
    }
    return outcome;
  }

  // --- memory -------------------------------------------------------------
  if (isa::is_memory(ins)) {
    const std::uint32_t base = read_reg(ins.mem.base);
    drive_rf_port(base);
    std::uint32_t offset = ins.mem.offset_imm;
    if (ins.mem.reg_offset) {
      const std::uint32_t offset_reg = read_reg(ins.mem.offset_reg);
      drive_rf_port(offset_reg);
      offset = offset_reg << ins.mem.offset_shift;
    }
    const std::uint32_t address =
        ins.mem.subtract ? base - offset : base + offset;

    if (!exec) {
      state_.pc = next_pc;
      return outcome;
    }

    const int penalty = dcache_.access(address);
    const std::uint64_t mem_cycle = cycle_ + 2;
    const std::uint64_t result_ready =
        cycle_ + static_cast<std::uint64_t>(config_.lsu_latency + penalty);
    if (!config_.lsu_pipelined) {
      lsu_free_ = result_ready;
    } else if (penalty > 0) {
      lsu_free_ = cycle_ + static_cast<std::uint64_t>(penalty);
    }

    if (isa::is_load(ins)) {
      const auto [value, word] =
          memory_.load_with_word(address, isa::access_width(ins));
      retire_write(ins.rd, value, result_ready);
      emit(component::mdr, 0, mdr_state_, word, mem_cycle);
      mdr_state_ = word;
      if (isa::is_subword(ins) && config_.has_align_buffer) {
        emit(component::align_buffer, 0, align_buffer_state_, value,
             mem_cycle + 1);
        align_buffer_state_ = value;
      }
      write_back(slot, value, result_ready);
    } else {
      const std::uint32_t data = read_reg(ins.rd);
      drive_rf_port(data);
      drive_is_ex_bus(slot == 0 ? std::uint8_t{1} : std::uint8_t{2}, data);
      switch (ins.op) {
      case opcode::str:
        memory_.write32(address, data);
        break;
      case opcode::strb:
        memory_.write8(address, static_cast<std::uint8_t>(data));
        break;
      case opcode::strh:
        memory_.write16(address, static_cast<std::uint16_t>(data));
        break;
      default:
        break;
      }
      const std::uint32_t word = memory_.containing_word(address);
      emit(component::mdr, 0, mdr_state_, word, mem_cycle);
      mdr_state_ = word;
      if (isa::is_subword(ins) && config_.has_align_buffer) {
        const std::uint32_t sub =
            ins.op == opcode::strb ? (data & 0xffU) : (data & 0xffffU);
        emit(component::align_buffer, 0, align_buffer_state_, sub,
             mem_cycle + 1);
        align_buffer_state_ = sub;
      }
      // Store data traverses the EX->WB path on its way to the store
      // buffer even though no register is written.
      write_back(slot, data, cycle_ + 3);
    }
    state_.pc = next_pc;
    return outcome;
  }

  // --- multiply -------------------------------------------------------
  if (ins.op == opcode::mul || ins.op == opcode::mla) {
    const std::uint32_t a = read_reg(ins.rn);
    const std::uint32_t b = read_reg(ins.op2.rm);
    drive_rf_port(a);
    drive_rf_port(b);
    std::uint32_t acc = 0;
    if (ins.op == opcode::mla) {
      acc = read_reg(ins.ra);
      drive_rf_port(acc);
    }
    drive_is_ex_bus(0, a);
    drive_is_ex_bus(1, b);
    if (exec) {
      const std::uint32_t result = a * b + acc;
      const std::uint64_t ready =
          cycle_ + static_cast<std::uint64_t>(config_.mul_latency);
      if (!config_.mul_pipelined) {
        mul_free_ = ready;
      }
      // The multiplier lives on ALU0.
      emit(component::alu_in_latch, 0, alu_latch_state_[0], a, cycle_ + 1);
      alu_latch_state_[0] = a;
      emit(component::alu_in_latch, 1, alu_latch_state_[1], b, cycle_ + 1);
      alu_latch_state_[1] = b;
      emit_weight(component::alu_out, 0, result, ready - 1);
      retire_write(ins.rd, result, ready);
      write_back(slot, result, ready);
      if (ins.set_flags) {
        state_.f.n = (result >> 31) != 0;
        state_.f.z = result == 0;
        flags_ready_ = ready;
      }
    }
    state_.pc = next_pc;
    return outcome;
  }

  // --- data processing --------------------------------------------------
  const bool has_rn = !(ins.op == opcode::mov || ins.op == opcode::mvn ||
                        ins.op == opcode::movw || ins.op == opcode::movt);
  std::uint32_t rn_value = 0;
  // Bus lane allocation: slot 0 uses lanes 0/1 for its first/second
  // operand; slot 1 uses lane 2 for its first register operand and falls
  // back to lane 1 for a second one (the port budget guarantees lane 1 is
  // then unused by slot 0).
  std::uint8_t first_lane = slot == 0 ? std::uint8_t{0} : std::uint8_t{2};
  std::uint8_t second_lane = slot == 0 ? std::uint8_t{1} : std::uint8_t{2};
  int reg_operands = 0;

  if (has_rn && !(ins.op == opcode::movw || ins.op == opcode::movt)) {
    rn_value = read_reg(ins.rn);
    drive_rf_port(rn_value);
    drive_is_ex_bus(first_lane, rn_value);
    ++reg_operands;
  }

  operand2_value op2;
  if (ins.op == opcode::movw) {
    op2.value = ins.imm16;
  } else if (ins.op == opcode::movt) {
    const std::uint32_t old = read_reg(ins.rd);
    drive_rf_port(old);
    op2.value = (old & 0xffffU) |
                (static_cast<std::uint32_t>(ins.imm16) << 16);
  } else {
    op2 = eval_operand2(
        ins,
        [this](reg r) {
          const std::uint32_t value = read_reg(r);
          return value;
        },
        state_.f.c);
    if (ins.op2.k == isa::operand2::kind::reg_shifted) {
      drive_rf_port(op2.pre_shift);
      const std::uint8_t lane =
          (reg_operands == 0) ? first_lane : second_lane;
      drive_is_ex_bus(lane, op2.pre_shift);
      ++reg_operands;
      if (ins.op2.shift.by_register) {
        drive_rf_port(read_reg(ins.op2.shift.amount_reg));
      }
    }
  }

  if (!exec) {
    state_.pc = next_pc;
    return outcome;
  }

  // Unit binding: instructions that need the shifter or multiplier run on
  // ALU0; otherwise slot 0 runs on ALU0 and slot 1 on ALU1.  When the
  // younger of a dual-issued pair needs ALU0, the pairing rules guarantee
  // the older does not, and the younger's events target ALU0 correctly
  // because binding only depends on the instruction itself and its slot.
  int alu_index;
  if (isa::needs_alu0(ins)) {
    alu_index = 0;
  } else {
    alu_index = slot == 0 ? 0 : 1;
  }
  std::uint64_t result_latency = 1;
  if (op2.used_shifter) {
    result_latency += static_cast<std::uint64_t>(config_.shift_extra_latency);
    // The shifter computes in EX1; its output buffer drives the ALU input
    // during EX2 — the cycle at which the paper observes the (small)
    // Hamming-weight leakage of the shifted value.
    emit_weight(component::shift_buffer, 0, op2.value, cycle_ + 2);
  }

  std::uint32_t effective_result;
  if (ins.op == opcode::movw || ins.op == opcode::movt) {
    effective_result = op2.value;
    const auto lane0 = static_cast<std::uint8_t>(alu_index * 2);
    emit(component::alu_in_latch, static_cast<std::uint8_t>(lane0 + 1),
         alu_latch_state_[static_cast<std::size_t>(lane0 + 1)], op2.value,
         cycle_ + 1);
    alu_latch_state_[static_cast<std::size_t>(lane0 + 1)] = op2.value;
    retire_write(ins.rd, effective_result, cycle_ + result_latency);
    emit_weight(component::alu_out, static_cast<std::uint8_t>(alu_index),
                effective_result, cycle_ + 2);
    write_back(slot, effective_result, cycle_ + 3);
    state_.pc = next_pc;
    return outcome;
  }

  const alu_result result =
      execute_dp(ins.op, rn_value, op2.value, op2.carry, state_.f);
  effective_result = result.value;

  // ALU input latches: operand position 0 = rn, position 1 = (shifted) op2.
  const auto base_lane = static_cast<std::uint8_t>(alu_index * 2);
  if (has_rn) {
    emit(component::alu_in_latch, base_lane,
         alu_latch_state_[base_lane], rn_value, cycle_ + 1);
    alu_latch_state_[base_lane] = rn_value;
  }
  emit(component::alu_in_latch, static_cast<std::uint8_t>(base_lane + 1),
       alu_latch_state_[static_cast<std::size_t>(base_lane + 1)], op2.value,
       cycle_ + 1);
  alu_latch_state_[static_cast<std::size_t>(base_lane + 1)] = op2.value;

  emit_weight(component::alu_out, static_cast<std::uint8_t>(alu_index),
              effective_result, cycle_ + 2);

  if (result.writes_result) {
    retire_write(ins.rd, effective_result, cycle_ + result_latency);
    write_back(slot, effective_result, cycle_ + 3);
  }
  if (writes_flags(ins)) {
    state_.f = result.f;
    flags_ready_ = cycle_ + result_latency;
  }
  state_.pc = next_pc;
  return outcome;
}

// ---------------------------------------------------------------------------
// Cycle loop
// ---------------------------------------------------------------------------

bool pipeline::step_cycle() {
  if (state_.halted) {
    return false;
  }
  rf_ports_used_this_cycle_ = 0;

  const auto try_select = [&](std::size_t index) -> const instruction* {
    if (index >= prog_->code.size()) {
      return nullptr;
    }
    if (cycle_ < fetch_ready_) {
      return nullptr;
    }
    if (!operands_ready(index) || !unit_available(index)) {
      return nullptr;
    }
    const int penalty = icache_.access(prog_->address_of(index));
    if (penalty > 0) {
      fetch_ready_ = cycle_ + static_cast<std::uint64_t>(penalty);
      return nullptr;
    }
    return &prog_->code[index];
  };

  if (state_.pc >= prog_->code.size()) {
    state_.halted = true;
    return false;
  }

  const instruction* first = try_select(state_.pc);
  if (first == nullptr) {
    ++cycle_;
    return !state_.halted;
  }

  // issue() advances state_.pc, but the code vector is immutable, so the
  // reference stays valid across the call.
  const instruction& older = *first;
  const std::size_t older_index = state_.pc;
  const issue_outcome first_outcome = issue(older, 0);

  if (first_outcome.issued && !first_outcome.serialize && !state_.halted &&
      config_.issue_width >= 2) {
    // With perfect prediction a taken branch presents its *target* as the
    // dual-issue partner; otherwise the redirect consumed the slot.
    bool partner_visible =
        !first_outcome.redirect || config_.perfect_branch_prediction;
    if (config_.pair_aligned_fetch_only &&
        (older_index % 2 != 0 || first_outcome.redirect)) {
      // The fetch unit delivers aligned pairs; an odd-addressed older
      // instruction (or a redirected stream) has no same-group partner.
      partner_visible = false;
    }
    const std::size_t younger_index = state_.pc;
    if (partner_visible && younger_index < prog_->code.size()) {
      // The fall-through partner's pairability is precomputed; only a
      // perfectly predicted taken branch presents a non-adjacent partner.
      const bool pairable =
          younger_index == older_index + 1
              ? pairable_next_[older_index] != 0
              : statically_pairable(older, prog_->code[younger_index]);
      if (pairable) {
        const instruction* second = try_select(younger_index);
        if (second != nullptr) {
          issue(*second, 1);
          ++dual_pairs_;
        }
      }
    }
  }
  ++cycle_;
  return !state_.halted;
}

} // namespace usca::sim
