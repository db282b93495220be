#include "sim/pipeline.h"

#include "sim/alu.h"
#include "util/telemetry.h"

namespace usca::sim {

namespace {

using isa::instruction;
using isa::opcode;
using isa::reg;
using isa::writes_flags;

} // namespace

pipeline::pipeline(asmx::program prog, micro_arch_config config)
    : pipeline(program_image(std::move(prog)), config) {}

pipeline::pipeline(program_image image, micro_arch_config config)
    : ctl_(std::move(image), config),
      icache_(config.icache),
      dcache_(config.dcache) {
  memory_.load(program().data_base, program().data);
  activity_.reserve(4096);
}

void pipeline::reset() {
  restore_data_images(program(), {&memory_, 1},
                      icache_.reset() + dcache_.reset());
  state_ = cpu_state{};
  ctl_.reset();
  rf_port_state_.fill(0);
  is_ex_bus_state_.fill(0);
  alu_latch_state_.fill(0);
  ex_wb_latch_state_.fill(0);
  wb_bus_state_.fill(0);
  mdr_state_ = 0;
  align_buffer_state_ = 0;
  restart_recording();
  activity_.clear();
}

void pipeline::rebind(program_image image) {
  ctl_.bind(std::move(image));
  reset();
}

void pipeline::run(std::uint64_t max_cycles) {
  const std::uint64_t start_cycle = ctl_.cycle;
  ctl_.halted = state_.halted;
  ctl_.run(max_cycles, "pipeline exceeded the cycle budget",
           [this] { step_cycle(); });
  static const telem::counter cycles{"sim.inorder.cycles", "cycles", "sim"};
  cycles.add(ctl_.cycle - start_cycle);
}

bool pipeline::step_cycle() {
  // The control's pc and halted flag are state_'s, exchanged around every
  // cycle so that state() is current between cycles (power::second_core
  // steps the core one cycle at a time).
  ctl_.pc = state_.pc;
  ctl_.halted = state_.halted;
  ctl_.step(
      icache_, [this](const mark_stamp& stamp) { return commit_mark(stamp); },
      [this](const instruction& ins, int slot) { return issue(ins, slot); });
  state_.pc = ctl_.pc;
  state_.halted = ctl_.halted;
  return !state_.halted;
}

// ---------------------------------------------------------------------------
// Event plumbing
// ---------------------------------------------------------------------------

void pipeline::drive_rf_port(std::uint32_t value) {
  const int port = ctl_.rf_ports_used++;
  if (port >= static_cast<int>(rf_port_state_.size())) {
    return; // defensive: pairing rules keep this within 3 ports
  }
  std::uint32_t& state = rf_port_state_[static_cast<std::size_t>(port)];
  emit(component::rf_read_port, static_cast<std::uint8_t>(port), state, value,
       ctl_.cycle);
  state = value;
}

void pipeline::drive_is_ex_bus(std::uint8_t lane, std::uint32_t value) {
  // Operands flop into the EX stage one cycle after the RF read.
  emit(component::is_ex_bus, lane, is_ex_bus_state_[lane], value,
       ctl_.cycle + 1);
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
  ctl_.reg_ready_at(r, ready_at);
}

bool pipeline::statically_pairable(const instruction& older,
                                   const instruction& younger) const noexcept {
  return sim::statically_pairable(config(), older, younger);
}

// ---------------------------------------------------------------------------
// Issue + execute
// ---------------------------------------------------------------------------

std::size_t pipeline::issue(const instruction& ins, int slot) {
  const bool exec = isa::condition_passes(ins.cond, state_.f);
  const std::size_t next_pc = ctl_.pc + 1;

  // The canonical nop: condition-never, zero-valued operands.  It does not
  // execute, but it *does* traverse the issue stage, where (on the modelled
  // core) it asserts zeroes on the operand buses and later resets the
  // write-back buses — the paper's "semantically neutral, not security
  // neutral" behaviour.
  if (isa::is_nop(ins)) {
    if (config().nop_drives_zero_operands) {
      drive_is_ex_bus(0, 0);
      drive_is_ex_bus(1, 0);
    }
    if (config().nop_zeroes_wb_bus) {
      const std::uint64_t wb_at = ctl_.cycle + 3;
      emit(component::wb_bus, 0, wb_bus_state_[0], 0, wb_at);
      wb_bus_state_[0] = 0;
      emit(component::wb_bus, 1, wb_bus_state_[1], 0, wb_at);
      wb_bus_state_[1] = 0;
    }
    if (!config().alu_latch_holds_on_idle) {
      for (std::size_t lane = 0; lane < alu_latch_state_.size(); ++lane) {
        emit(component::alu_in_latch, static_cast<std::uint8_t>(lane),
             alu_latch_state_[lane], 0, ctl_.cycle + 1);
        alu_latch_state_[lane] = 0;
      }
    }
    return next_pc;
  }

  // --- branches ---------------------------------------------------------
  if (isa::is_branch(ins)) {
    if (ins.op == opcode::bx) {
      const std::uint32_t target = read_reg(ins.op2.rm);
      drive_rf_port(target);
      if (!exec) {
        return next_pc;
      }
      // A return past the outermost frame halts.
      return program().index_of_address(target).value_or(
          inorder_control::stop);
    }
    if (!exec) {
      return next_pc;
    }
    if (ins.op == opcode::bl) {
      retire_write(reg::lr, program().address_of(next_pc), ctl_.cycle + 1);
    }
    return static_cast<std::size_t>(static_cast<std::int64_t>(next_pc) +
                                    ins.branch_offset);
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
      return next_pc;
    }

    const std::uint64_t mem_cycle = ctl_.cycle + 2;
    const std::uint64_t result_ready =
        ctl_.issue_memory(dcache_.access(address));

    if (isa::is_load(ins)) {
      const auto [value, word] =
          memory_.load_with_word(address, isa::access_width(ins));
      retire_write(ins.rd, value, result_ready);
      emit(component::mdr, 0, mdr_state_, word, mem_cycle);
      mdr_state_ = word;
      if (isa::is_subword(ins) && config().has_align_buffer) {
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
      if (isa::is_subword(ins) && config().has_align_buffer) {
        const std::uint32_t sub =
            ins.op == opcode::strb ? (data & 0xffU) : (data & 0xffffU);
        emit(component::align_buffer, 0, align_buffer_state_, sub,
             mem_cycle + 1);
        align_buffer_state_ = sub;
      }
      // Store data traverses the EX->WB path on its way to the store
      // buffer even though no register is written.
      write_back(slot, data, ctl_.cycle + 3);
    }
    return next_pc;
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
      const std::uint64_t ready = ctl_.issue_multiply();
      // The multiplier lives on ALU0.
      emit(component::alu_in_latch, 0, alu_latch_state_[0], a, ctl_.cycle + 1);
      alu_latch_state_[0] = a;
      emit(component::alu_in_latch, 1, alu_latch_state_[1], b, ctl_.cycle + 1);
      alu_latch_state_[1] = b;
      emit_weight(component::alu_out, 0, result, ready - 1);
      retire_write(ins.rd, result, ready);
      write_back(slot, result, ready);
      if (ins.set_flags) {
        state_.f.n = (result >> 31) != 0;
        state_.f.z = result == 0;
        ctl_.flags_ready_at(ready);
      }
    }
    return next_pc;
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
    return next_pc;
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
    result_latency += static_cast<std::uint64_t>(config().shift_extra_latency);
    // The shifter computes in EX1; its output buffer drives the ALU input
    // during EX2 — the cycle at which the paper observes the (small)
    // Hamming-weight leakage of the shifted value.
    emit_weight(component::shift_buffer, 0, op2.value, ctl_.cycle + 2);
  }

  std::uint32_t effective_result;
  if (ins.op == opcode::movw || ins.op == opcode::movt) {
    effective_result = op2.value;
    const auto lane0 = static_cast<std::uint8_t>(alu_index * 2);
    emit(component::alu_in_latch, static_cast<std::uint8_t>(lane0 + 1),
         alu_latch_state_[static_cast<std::size_t>(lane0 + 1)], op2.value,
         ctl_.cycle + 1);
    alu_latch_state_[static_cast<std::size_t>(lane0 + 1)] = op2.value;
    retire_write(ins.rd, effective_result, ctl_.cycle + result_latency);
    emit_weight(component::alu_out, static_cast<std::uint8_t>(alu_index),
                effective_result, ctl_.cycle + 2);
    write_back(slot, effective_result, ctl_.cycle + 3);
    return next_pc;
  }

  const alu_result result =
      execute_dp(ins.op, rn_value, op2.value, op2.carry, state_.f);
  effective_result = result.value;

  // ALU input latches: operand position 0 = rn, position 1 = (shifted) op2.
  const auto base_lane = static_cast<std::uint8_t>(alu_index * 2);
  if (has_rn) {
    emit(component::alu_in_latch, base_lane,
         alu_latch_state_[base_lane], rn_value, ctl_.cycle + 1);
    alu_latch_state_[base_lane] = rn_value;
  }
  emit(component::alu_in_latch, static_cast<std::uint8_t>(base_lane + 1),
       alu_latch_state_[static_cast<std::size_t>(base_lane + 1)], op2.value,
       ctl_.cycle + 1);
  alu_latch_state_[static_cast<std::size_t>(base_lane + 1)] = op2.value;

  emit_weight(component::alu_out, static_cast<std::uint8_t>(alu_index),
              effective_result, ctl_.cycle + 2);

  if (result.writes_result) {
    retire_write(ins.rd, effective_result, ctl_.cycle + result_latency);
    write_back(slot, effective_result, ctl_.cycle + 3);
  }
  if (writes_flags(ins)) {
    state_.f = result.f;
    ctl_.flags_ready_at(ctl_.cycle + result_latency);
  }
  return next_pc;
}

} // namespace usca::sim
