// Lane-batched datapath of the in-order core, the twin of pipeline.cpp's.
// The control both cores run is sim::inorder_control, written once; this
// file holds what differs.  Every emission point below corresponds 1:1
// to one in pipeline::issue — same order, same cycle stamps — with
// per-trace scalar data replaced by lane rows (register rows of the
// file, and scratch rows the lane kernels of lane_alu.h fill), plus the
// agreement checkpoints that hand the control one value for all lanes.
// When editing an emission point, keep the two issue() bodies side by
// side: the per-lane activity stream of a surviving lane must stay
// bit-identical to a per-trace run (ctest -L sim_batch).
#include "sim/batch_pipeline.h"

#include <algorithm>
#include <bit>

#include "util/telemetry.h"

namespace usca::sim {

namespace {

using isa::instruction;
using isa::opcode;
using isa::reg;
using isa::writes_flags;

} // namespace

batch_pipeline::batch_pipeline(program_image image, micro_arch_config config,
                               std::size_t lanes)
    : batch_backend(std::move(image), config.icache, config.dcache, lanes),
      ctl_(image_, config),
      rf_port_state_(3 * lanes_, 0),
      is_ex_bus_state_(3 * lanes_, 0),
      alu_latch_state_(4 * lanes_, 0),
      ex_wb_latch_state_(2 * lanes_, 0),
      wb_bus_state_(2 * lanes_, 0),
      mdr_state_(lanes_, 0),
      align_buffer_state_(lanes_, 0) {}

void batch_pipeline::reset() {
  reset_lanes();
  ctl_.reset();
  std::fill(rf_port_state_.begin(), rf_port_state_.end(), 0U);
  std::fill(is_ex_bus_state_.begin(), is_ex_bus_state_.end(), 0U);
  std::fill(alu_latch_state_.begin(), alu_latch_state_.end(), 0U);
  std::fill(ex_wb_latch_state_.begin(), ex_wb_latch_state_.end(), 0U);
  std::fill(wb_bus_state_.begin(), wb_bus_state_.end(), 0U);
  std::fill(mdr_state_.begin(), mdr_state_.end(), 0U);
  std::fill(align_buffer_state_.begin(), align_buffer_state_.end(), 0U);
}

void batch_pipeline::run(std::uint64_t max_cycles) {
  const std::uint64_t start_cycle = ctl_.cycle;
  run_lanes(ctl_.pc, ctl_.halted, [this, max_cycles] {
    ctl_.run(max_cycles, "batch pipeline exceeded the cycle budget", [this] {
      active_lane_cycles_ +=
          static_cast<std::uint64_t>(std::popcount(active_mask_));
      ctl_.step(
          icache_,
          [this](const mark_stamp& stamp) { return commit_mark(stamp); },
          [this](const instruction& ins, int slot) {
            return issue(ins, slot);
          });
    });
  });
  static const telem::counter cycles{"sim.inorder.cycles", "cycles", "sim"};
  cycles.add(ctl_.cycle - start_cycle);
}

// ---------------------------------------------------------------------------
// Event plumbing (pipeline.cpp helpers, looped over active lanes)
// ---------------------------------------------------------------------------

void batch_pipeline::drive_rf_port(const std::uint32_t* values) {
  const int port = ctl_.rf_ports_used++;
  if (port >= 3) {
    return; // defensive: pairing rules keep this within 3 ports
  }
  drive_lanes(component::rf_read_port, static_cast<std::uint8_t>(port),
              &rf_port_state_[static_cast<std::size_t>(port) * lanes_],
              values, ctl_.cycle, active_mask_);
}

void batch_pipeline::drive_is_ex_bus(std::uint8_t bus,
                                     const std::uint32_t* values) {
  drive_lanes(component::is_ex_bus, bus,
              &is_ex_bus_state_[static_cast<std::size_t>(bus) * lanes_],
              values, ctl_.cycle + 1, active_mask_);
}

void batch_pipeline::write_back(int slot, const std::uint32_t* values,
                                std::uint64_t at_cycle, std::uint64_t mask) {
  const auto bus = static_cast<std::uint8_t>(slot);
  const std::size_t base = static_cast<std::size_t>(slot) * lanes_;
  drive_lanes(component::wb_bus, bus, &wb_bus_state_[base], values,
              at_cycle, mask);
  drive_lanes(component::ex_wb_latch, bus, &ex_wb_latch_state_[base],
              values, at_cycle, mask);
}

void batch_pipeline::retire_write(reg r, const std::uint32_t* values,
                                  std::uint64_t ready_at) noexcept {
  write_reg(r, values, active_mask_);
  ctl_.reg_ready_at(r, ready_at);
}

// ---------------------------------------------------------------------------
// Issue + execute (pipeline::issue, lane-batched)
// ---------------------------------------------------------------------------

std::size_t batch_pipeline::issue(const instruction& ins, int slot) {
  const std::size_t next_pc = ctl_.pc + 1;

  if (isa::is_nop(ins)) {
    static constexpr lane_row zeros{};
    if (config().nop_drives_zero_operands) {
      drive_is_ex_bus(0, zeros.data());
      drive_is_ex_bus(1, zeros.data());
    }
    if (config().nop_zeroes_wb_bus) {
      for (std::uint8_t bus = 0; bus < 2; ++bus) {
        drive_lanes(component::wb_bus, bus,
                    &wb_bus_state_[static_cast<std::size_t>(bus) * lanes_],
                    zeros.data(), ctl_.cycle + 3, active_mask_);
      }
    }
    if (!config().alu_latch_holds_on_idle) {
      for (std::uint8_t latch = 0; latch < 4; ++latch) {
        drive_lanes(component::alu_in_latch, latch,
                    &alu_latch_state_[static_cast<std::size_t>(latch) * lanes_],
                    zeros.data(), ctl_.cycle + 1, active_mask_);
      }
    }
    return next_pc;
  }

  // Condition handling: branches, memory ops and multiplies consult the
  // outcome as SHARED control (redirects, D-cache/LSU/multiplier
  // occupancy, multi-cycle scoreboard writes), so it is a divergence
  // checkpoint for them — agreed_exec below.  Plain DP ops are predicated
  // per lane instead (see the data-processing section).

  // --- branches ---------------------------------------------------------
  if (isa::is_branch(ins)) {
    const bool exec = agreed_exec(ins);
    if (ins.op == opcode::bx) {
      const std::uint32_t* target = reg_row(ins.op2.rm);
      drive_rf_port(target);
      if (!exec) {
        return next_pc;
      }
      // Second checkpoint: the indirect target IS the control stream.
      agree(target);
      // A return past the outermost frame halts.
      return prog_->index_of_address(target[leader()])
          .value_or(inorder_control::stop);
    }
    if (!exec) {
      return next_pc;
    }
    if (ins.op == opcode::bl) {
      lane_row link;
      link.fill(prog_->address_of(next_pc));
      retire_write(reg::lr, link.data(), ctl_.cycle + 1);
    }
    return static_cast<std::size_t>(static_cast<std::int64_t>(next_pc) +
                                    ins.branch_offset);
  }

  // --- memory -------------------------------------------------------------
  if (isa::is_memory(ins)) {
    const bool exec = agreed_exec(ins);
    drive_rf_port(reg_row(ins.mem.base));
    if (ins.mem.reg_offset) {
      drive_rf_port(reg_row(ins.mem.offset_reg));
    }
    if (!exec) {
      return next_pc;
    }

    // Third checkpoint: each lane probes its own D-cache at its own
    // address; the penalty — a shared scoreboard input — must agree.
    lane_row address;
    address_lanes(ins.mem, regs_, active_mask_, address.data());
    const std::uint64_t missed = data_.probe(address.data(), active_mask_);
    const std::uint64_t mem_cycle = ctl_.cycle + 2;
    const std::uint64_t result_ready = ctl_.issue_memory(
        data_.miss_penalty() != 0 && agree_bit(missed) ? data_.miss_penalty()
                                                       : 0);

    lane_row word;
    const int width = isa::access_width(ins);
    if (isa::is_load(ins)) {
      lane_row value;
      data_.load(address.data(), width, active_mask_, value.data(),
                 word.data());
      retire_write(ins.rd, value.data(), result_ready);
      drive_lanes(component::mdr, 0, mdr_state_.data(), word.data(),
                  mem_cycle, active_mask_);
      if (isa::is_subword(ins) && config().has_align_buffer) {
        drive_lanes(component::align_buffer, 0, align_buffer_state_.data(),
                    value.data(), mem_cycle + 1, active_mask_);
      }
      write_back(slot, value.data(), result_ready, active_mask_);
    } else {
      const std::uint32_t* data = reg_row(ins.rd);
      drive_rf_port(data);
      drive_is_ex_bus(slot == 0 ? std::uint8_t{1} : std::uint8_t{2}, data);
      data_.store(address.data(), data, width, active_mask_, word.data());
      drive_lanes(component::mdr, 0, mdr_state_.data(), word.data(),
                  mem_cycle, active_mask_);
      if (isa::is_subword(ins) && config().has_align_buffer) {
        lane_row sub;
        const std::uint32_t keep = ins.op == opcode::strb ? 0xffU : 0xffffU;
        for (const std::size_t l : lanes_in(active_mask_)) {
          sub[l] = data[l] & keep;
        }
        drive_lanes(component::align_buffer, 0, align_buffer_state_.data(),
                    sub.data(), mem_cycle + 1, active_mask_);
      }
      // Store data traverses the EX->WB path on its way to the store
      // buffer even though no register is written.
      write_back(slot, data, ctl_.cycle + 3, active_mask_);
    }
    return next_pc;
  }

  // --- multiply -------------------------------------------------------
  if (ins.op == opcode::mul || ins.op == opcode::mla) {
    const bool exec = agreed_exec(ins);
    const std::uint32_t* a = reg_row(ins.rn);
    const std::uint32_t* b = reg_row(ins.op2.rm);
    drive_rf_port(a);
    drive_rf_port(b);
    if (ins.op == opcode::mla) {
      drive_rf_port(reg_row(ins.ra));
    }
    drive_is_ex_bus(0, a);
    drive_is_ex_bus(1, b);
    if (exec) {
      lane_row result;
      dp_lanes(ins, regs_, nullptr, 0, active_mask_, result.data(), flags_);
      const std::uint64_t ready = ctl_.issue_multiply();
      // The multiplier lives on ALU0.
      drive_lanes(component::alu_in_latch, 0, alu_latch_state_.data(), a,
                  ctl_.cycle + 1, active_mask_);
      drive_lanes(component::alu_in_latch, 1, &alu_latch_state_[lanes_], b,
                  ctl_.cycle + 1, active_mask_);
      weigh_lanes(component::alu_out, 0, result.data(), ready - 1,
                  active_mask_);
      retire_write(ins.rd, result.data(), ready);
      write_back(slot, result.data(), ready, active_mask_);
      if (ins.set_flags) {
        ctl_.flags_ready_at(ready);
      }
    }
    return next_pc;
  }

  // --- data processing --------------------------------------------------
  const bool wide_move = ins.op == opcode::movw || ins.op == opcode::movt;
  const bool has_rn = !(ins.op == opcode::mov || ins.op == opcode::mvn ||
                        wide_move);
  const std::uint32_t* rn_value = reg_row(ins.rn);
  const std::uint8_t first_lane = slot == 0 ? std::uint8_t{0} : std::uint8_t{2};
  const std::uint8_t second_lane =
      slot == 0 ? std::uint8_t{1} : std::uint8_t{2};
  int reg_operands = 0;

  if (has_rn) {
    drive_rf_port(rn_value);
    drive_is_ex_bus(first_lane, rn_value);
    ++reg_operands;
  }

  // Operand 2 over the active lanes; its *structure* (the shifter and
  // the port/bus traffic it implies) is static per instruction, only the
  // values differ per lane.
  lane_row op2_value;
  std::uint64_t op2_carry = 0;
  const bool used_shifter = !wide_move &&
                            ins.op2.k == isa::operand2::kind::reg_shifted &&
                            ins.op2.shift.active();
  if (wide_move) {
    if (ins.op == opcode::movt) {
      drive_rf_port(reg_row(ins.rd));
    }
    dp_lanes(ins, regs_, nullptr, 0, active_mask_, op2_value.data(), flags_);
  } else {
    op2_carry =
        operand2_lanes(ins, regs_, flags_.c, active_mask_, op2_value.data());
    if (ins.op2.k == isa::operand2::kind::reg_shifted) {
      const std::uint32_t* op2_pre = reg_row(ins.op2.rm);
      drive_rf_port(op2_pre);
      const std::uint8_t bus = (reg_operands == 0) ? first_lane : second_lane;
      drive_is_ex_bus(bus, op2_pre);
      ++reg_operands;
      if (ins.op2.shift.by_register) {
        drive_rf_port(reg_row(ins.op2.shift.amount_reg));
      }
    }
  }

  // Per-lane predication for plain DP ops, agreement for the rest.  A
  // latency-1 DP op that writes a register and no flags has exactly one
  // schedule effect on the per-trace pipeline: the scoreboard marks rd
  // ready at cycle + 1, observable only by a same-cycle dual-issue partner
  // reading or writing rd — which statically_pairable forbids (RAW/WAW).
  // Its condition outcome is therefore lane-local data (the AES xtime
  // `eorne`!), not control: the batch gates the lane's emissions and
  // register write and never ejects.  Shifted ops (latency > 1: the
  // scoreboard write IS observable next cycle), flag writers (the flags'
  // scoreboard), and conditional movw/movt stay on the agreement path.
  std::uint64_t exec_mask = active_mask_;
  if (ins.cond != isa::condition::al) {
    const bool relaxed = !used_shifter && !writes_flags(ins) && !wide_move;
    if (relaxed) {
      exec_mask = passing_lanes(ins.cond);
    } else if (!agreed_exec(ins)) {
      return next_pc;
    } else {
      exec_mask = active_mask_; // agreement may have shrunk the batch
    }
  }
  if (exec_mask == 0) {
    // No lane executes: every per-trace twin takes the early return.
    return next_pc;
  }

  int alu_index;
  if (isa::needs_alu0(ins)) {
    alu_index = 0;
  } else {
    alu_index = slot == 0 ? 0 : 1;
  }
  std::uint64_t result_latency = 1;
  if (used_shifter) {
    result_latency += static_cast<std::uint64_t>(config().shift_extra_latency);
    weigh_lanes(component::shift_buffer, 0, op2_value.data(), ctl_.cycle + 2,
                active_mask_);
  }

  const auto latch = static_cast<std::uint8_t>(alu_index * 2);
  std::uint32_t* latch_state =
      &alu_latch_state_[static_cast<std::size_t>(latch) * lanes_];
  if (wide_move) {
    drive_lanes(component::alu_in_latch,
                static_cast<std::uint8_t>(latch + 1), latch_state + lanes_,
                op2_value.data(), ctl_.cycle + 1, active_mask_);
    retire_write(ins.rd, op2_value.data(), ctl_.cycle + result_latency);
    weigh_lanes(component::alu_out, static_cast<std::uint8_t>(alu_index),
                op2_value.data(), ctl_.cycle + 2, active_mask_);
    write_back(slot, op2_value.data(), ctl_.cycle + 3, active_mask_);
    return next_pc;
  }

  // Every datapath effect below is gated per lane by exec_mask — a
  // predicated-false lane's per-trace twin returned before this point.
  // A flag writer always executes on every active lane (agreed above),
  // so dp_lanes writes the flags of exactly the executing lanes.
  const std::uint64_t emit_mask = active_mask_ & exec_mask;
  lane_row result;
  dp_lanes(ins, regs_, op2_value.data(), op2_carry, emit_mask, result.data(),
           flags_);

  // ALU input latches: operand position 0 = rn, position 1 = (shifted) op2.
  if (has_rn) {
    drive_lanes(component::alu_in_latch, latch, latch_state, rn_value,
                ctl_.cycle + 1, emit_mask);
  }
  drive_lanes(component::alu_in_latch, static_cast<std::uint8_t>(latch + 1),
              latch_state + lanes_, op2_value.data(), ctl_.cycle + 1,
              emit_mask);
  weigh_lanes(component::alu_out, static_cast<std::uint8_t>(alu_index),
              result.data(), ctl_.cycle + 2, emit_mask);

  if (!isa::is_compare(ins)) {
    // The scoreboard write is shared (unobservable when lanes disagree —
    // see above); the register value and WB-path events are per lane.
    ctl_.reg_ready_at(ins.rd, ctl_.cycle + result_latency);
    write_reg(ins.rd, result.data(), emit_mask);
    write_back(slot, result.data(), ctl_.cycle + 3, emit_mask);
  }
  if (writes_flags(ins)) {
    ctl_.flags_ready_at(ctl_.cycle + result_latency);
  }
  return next_pc;
}

} // namespace usca::sim
