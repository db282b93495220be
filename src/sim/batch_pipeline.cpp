// Lane-batched twin of pipeline.cpp.  Every emission point and every
// shared-control update below corresponds 1:1 to a statement in
// sim::pipeline — same order, same cycle stamps — with per-trace scalar
// data replaced by a loop over the active lanes.  When editing, keep the
// two files side by side: the per-lane activity stream of a surviving
// lane must stay bit-identical to a per-trace run (ctest -L sim_batch).
#include "sim/batch_pipeline.h"

#include <algorithm>
#include <bit>

#include "sim/alu.h"
#include "sim/pipeline.h"
#include "util/bitops.h"
#include "util/error.h"
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
    : batch_backend(lanes),
      image_(std::move(image)),
      prog_(&image_.prog()),
      config_(config),
      memory_(lanes_),
      dcache_(lanes_, mem::cache(config.dcache)),
      state_(lanes_),
      rf_port_state_(3 * lanes_, 0),
      is_ex_bus_state_(3 * lanes_, 0),
      alu_latch_state_(4 * lanes_, 0),
      ex_wb_latch_state_(2 * lanes_, 0),
      wb_bus_state_(2 * lanes_, 0),
      mdr_state_(lanes_, 0),
      align_buffer_state_(lanes_, 0),
      icache_(config.icache) {
  for (mem::memory& m : memory_) {
    m.load(prog_->data_base, prog_->data);
  }
  derive_pairability();
}

void batch_pipeline::derive_pairability() {
  const std::vector<instruction>& code = prog_->code;
  pairable_next_.resize(code.size());
  for (std::size_t i = 0; i < code.size(); ++i) {
    pairable_next_[i] =
        i + 1 < code.size() &&
        statically_pairable(config_, code[i], code[i + 1]);
  }
}

void batch_pipeline::reset() {
  for (std::size_t l = 0; l < lanes_; ++l) {
    memory_[l].reset();
    memory_[l].load(prog_->data_base, prog_->data);
    dcache_[l].reset();
    state_[l] = cpu_state{};
    activity_[l].clear();
  }
  icache_.reset();
  std::fill(rf_port_state_.begin(), rf_port_state_.end(), 0U);
  std::fill(is_ex_bus_state_.begin(), is_ex_bus_state_.end(), 0U);
  std::fill(alu_latch_state_.begin(), alu_latch_state_.end(), 0U);
  std::fill(ex_wb_latch_state_.begin(), ex_wb_latch_state_.end(), 0U);
  std::fill(wb_bus_state_.begin(), wb_bus_state_.end(), 0U);
  std::fill(mdr_state_.begin(), mdr_state_.end(), 0U);
  std::fill(align_buffer_state_.begin(), align_buffer_state_.end(), 0U);
  pc_ = 0;
  halted_ = false;
  reg_ready_.fill(0);
  flags_ready_ = 0;
  lsu_free_ = 0;
  mul_free_ = 0;
  fetch_ready_ = 0;
  cycle_ = 0;
  issued_ = 0;
  dual_pairs_ = 0;
  active_lane_cycles_ = 0;
  rf_ports_used_this_cycle_ = 0;
  record_activity_ = record_default_;
  marks_.clear();
  active_mask_ = mask_for_limit();
  diverged_mask_ = 0;
}

void batch_pipeline::warm_caches() {
  icache_.warm(prog_->code_base, prog_->code.size() * 4 + 4);
  if (!prog_->data.empty()) {
    for (mem::cache& d : dcache_) {
      d.warm(prog_->data_base, prog_->data.size());
    }
  }
}

void batch_pipeline::run(std::uint64_t max_cycles) {
  // Entry agreement: per-lane setup code may have steered a lane's pc or
  // halted flag away from the batch; such lanes cannot share the control
  // stream and are ejected before the first cycle.
  {
    std::array<std::uint64_t, max_batch_lanes> entry;
    for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      entry[l] = (static_cast<std::uint64_t>(state_[l].pc) << 1) |
                 (state_[l].halted ? 1U : 0U);
    }
    agree(entry.data());
  }
  const std::size_t lead = leader();
  pc_ = state_[lead].pc;
  halted_ = state_[lead].halted;

  const std::uint64_t start_cycle = cycle_;
  const std::uint64_t limit = cycle_ + max_cycles;
  while (!halted_) {
    if (cycle_ >= limit) {
      throw util::simulation_error(
          "batch pipeline exceeded the cycle budget");
    }
    step_cycle();
  }
  for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(m));
    state_[l].pc = pc_;
    state_[l].halted = halted_;
  }
  static const telem::counter cycles{"sim.inorder.cycles", "cycles", "sim"};
  cycles.add(cycle_ - start_cycle);
  note_batch_run(active_limit_, active_lane_cycles_);
  active_lane_cycles_ = 0;
}

// ---------------------------------------------------------------------------
// Event plumbing (pipeline.cpp helpers, looped over active lanes)
// ---------------------------------------------------------------------------

void batch_pipeline::drive_rf_port(const lane_values& values) {
  const int port = rf_ports_used_this_cycle_++;
  if (port >= 3) {
    return; // defensive: pairing rules keep this within 3 ports
  }
  const std::size_t base = static_cast<std::size_t>(port) * lanes_;
  const auto port_lane = static_cast<std::uint8_t>(port);
  for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(m));
    emit_lane(l, component::rf_read_port, port_lane, rf_port_state_[base + l],
              values[l], cycle_);
    rf_port_state_[base + l] = values[l];
  }
}

void batch_pipeline::drive_is_ex_bus(std::uint8_t bus,
                                     const lane_values& values) {
  const std::size_t base = static_cast<std::size_t>(bus) * lanes_;
  for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(m));
    emit_lane(l, component::is_ex_bus, bus, is_ex_bus_state_[base + l],
              values[l], cycle_ + 1);
    is_ex_bus_state_[base + l] = values[l];
  }
}

void batch_pipeline::drive_is_ex_bus_uniform(std::uint8_t bus,
                                             std::uint32_t value) {
  const std::size_t base = static_cast<std::size_t>(bus) * lanes_;
  for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(m));
    emit_lane(l, component::is_ex_bus, bus, is_ex_bus_state_[base + l],
              value, cycle_ + 1);
    is_ex_bus_state_[base + l] = value;
  }
}

void batch_pipeline::write_back(int slot, const lane_values& values,
                                std::uint64_t at_cycle) {
  const auto bus = static_cast<std::uint8_t>(slot);
  const std::size_t base = static_cast<std::size_t>(slot) * lanes_;
  for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(m));
    emit_lane(l, component::wb_bus, bus, wb_bus_state_[base + l], values[l],
              at_cycle);
    wb_bus_state_[base + l] = values[l];
    emit_lane(l, component::ex_wb_latch, bus, ex_wb_latch_state_[base + l],
              values[l], at_cycle);
    ex_wb_latch_state_[base + l] = values[l];
  }
}

void batch_pipeline::retire_write(reg r, const lane_values& values,
                                  std::uint64_t ready_at) noexcept {
  for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(m));
    state_[l].set_reg(r, values[l]);
  }
  reg_ready_[isa::index_of(r)] = ready_at;
}

// ---------------------------------------------------------------------------
// Issue legality (shared control, identical to pipeline.cpp)
// ---------------------------------------------------------------------------

bool batch_pipeline::operands_ready(std::size_t index) const noexcept {
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

bool batch_pipeline::unit_available(std::size_t index) const noexcept {
  const instruction_static& st = image_.statics(index);
  if (st.is_memory && lsu_free_ > cycle_) {
    return false;
  }
  if (st.uses_multiplier && mul_free_ > cycle_) {
    return false;
  }
  return true;
}

bool batch_pipeline::agreed_exec(const instruction& ins) noexcept {
  if (ins.cond == isa::condition::al) {
    return true;
  }
  std::array<std::uint8_t, max_batch_lanes> outcome;
  for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(m));
    outcome[l] = isa::condition_passes(ins.cond, state_[l].f) ? 1 : 0;
  }
  agree(outcome.data());
  return outcome[leader()] != 0;
}

// ---------------------------------------------------------------------------
// Issue + execute (pipeline::issue, lane-batched)
// ---------------------------------------------------------------------------

batch_pipeline::issue_outcome batch_pipeline::issue(const instruction& ins,
                                                    int slot) {
  issue_outcome outcome;
  outcome.issued = true;
  ++issued_;

  std::size_t next_pc = pc_ + 1;

  // Simulator pseudo-ops: control never consults the condition here.
  if (ins.op == opcode::mark) {
    // Same safe cut as pipeline::issue, for every lane at once.
    if (commit_mark(mark_stamp{ins.imm16, cycle_, dual_pairs_})) {
      halted_ = true;
    }
    outcome.serialize = true;
    pc_ = next_pc;
    return outcome;
  }
  if (ins.op == opcode::halt) {
    halted_ = true;
    outcome.serialize = true;
    return outcome;
  }

  if (isa::is_nop(ins)) {
    if (config_.nop_drives_zero_operands) {
      drive_is_ex_bus_uniform(0, 0);
      drive_is_ex_bus_uniform(1, 0);
    }
    if (config_.nop_zeroes_wb_bus) {
      const std::uint64_t wb_at = cycle_ + 3;
      for (std::uint8_t bus = 0; bus < 2; ++bus) {
        const std::size_t base = static_cast<std::size_t>(bus) * lanes_;
        for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
          const auto l = static_cast<std::size_t>(std::countr_zero(m));
          emit_lane(l, component::wb_bus, bus, wb_bus_state_[base + l], 0,
                    wb_at);
          wb_bus_state_[base + l] = 0;
        }
      }
    }
    if (!config_.alu_latch_holds_on_idle) {
      for (std::uint8_t latch = 0; latch < 4; ++latch) {
        const std::size_t base = static_cast<std::size_t>(latch) * lanes_;
        for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
          const auto l = static_cast<std::size_t>(std::countr_zero(m));
          emit_lane(l, component::alu_in_latch, latch,
                    alu_latch_state_[base + l], 0, cycle_ + 1);
          alu_latch_state_[base + l] = 0;
        }
      }
    }
    pc_ = next_pc;
    return outcome;
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
      lane_values target;
      read_reg(ins.op2.rm, target);
      drive_rf_port(target);
      if (exec) {
        // Second checkpoint: the indirect target IS the control stream.
        agree(target.data());
        const auto index = prog_->index_of_address(target[leader()]);
        if (!index) {
          halted_ = true; // return past the outermost frame
          outcome.serialize = true;
          return outcome;
        }
        next_pc = *index;
      }
    } else if (exec) {
      const auto target = static_cast<std::size_t>(
          static_cast<std::int64_t>(pc_) + 1 + ins.branch_offset);
      if (ins.op == opcode::bl) {
        lane_values link;
        link.fill(prog_->address_of(pc_ + 1));
        retire_write(reg::lr, link, cycle_ + 1);
      }
      next_pc = target;
    }
    if (next_pc != pc_ + 1) {
      outcome.redirect = true;
      if (!config_.perfect_branch_prediction) {
        fetch_ready_ =
            cycle_ + 1 +
            static_cast<std::uint64_t>(config_.branch_mispredict_penalty);
      }
    }
    pc_ = next_pc;
    if (pc_ >= prog_->code.size()) {
      halted_ = true;
    }
    return outcome;
  }

  // --- memory -------------------------------------------------------------
  if (isa::is_memory(ins)) {
    const bool exec = agreed_exec(ins);
    lane_values base_v;
    read_reg(ins.mem.base, base_v);
    drive_rf_port(base_v);
    lane_values address;
    if (ins.mem.reg_offset) {
      lane_values offset_reg;
      read_reg(ins.mem.offset_reg, offset_reg);
      drive_rf_port(offset_reg);
      for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        const std::uint32_t offset = offset_reg[l] << ins.mem.offset_shift;
        address[l] = ins.mem.subtract ? base_v[l] - offset
                                      : base_v[l] + offset;
      }
    } else {
      for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        address[l] = ins.mem.subtract ? base_v[l] - ins.mem.offset_imm
                                      : base_v[l] + ins.mem.offset_imm;
      }
    }

    if (!exec) {
      pc_ = next_pc;
      return outcome;
    }

    // Third checkpoint: each lane probes its own D-cache at its own
    // address; the penalty — a shared scoreboard input — must agree.
    std::array<int, max_batch_lanes> pen;
    for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      pen[l] = dcache_[l].access(address[l]);
    }
    agree(pen.data());
    const int penalty = pen[leader()];
    const std::uint64_t mem_cycle = cycle_ + 2;
    const std::uint64_t result_ready =
        cycle_ + static_cast<std::uint64_t>(config_.lsu_latency + penalty);
    if (!config_.lsu_pipelined) {
      lsu_free_ = result_ready;
    } else if (penalty > 0) {
      lsu_free_ = cycle_ + static_cast<std::uint64_t>(penalty);
    }

    if (isa::is_load(ins)) {
      lane_values word;
      lane_values value;
      for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        word[l] = memory_[l].containing_word(address[l]);
        switch (ins.op) {
        case opcode::ldr:
          value[l] = memory_[l].read32(address[l]);
          break;
        case opcode::ldrb:
          value[l] = memory_[l].read8(address[l]);
          break;
        case opcode::ldrh:
          value[l] = memory_[l].read16(address[l]);
          break;
        default:
          value[l] = 0;
          break;
        }
      }
      retire_write(ins.rd, value, result_ready);
      for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        emit_lane(l, component::mdr, 0, mdr_state_[l], word[l], mem_cycle);
        mdr_state_[l] = word[l];
      }
      if (isa::is_subword(ins) && config_.has_align_buffer) {
        for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
          const auto l = static_cast<std::size_t>(std::countr_zero(m));
          emit_lane(l, component::align_buffer, 0, align_buffer_state_[l],
                    value[l], mem_cycle + 1);
          align_buffer_state_[l] = value[l];
        }
      }
      write_back(slot, value, result_ready);
    } else {
      lane_values data;
      read_reg(ins.rd, data);
      drive_rf_port(data);
      drive_is_ex_bus(slot == 0 ? std::uint8_t{1} : std::uint8_t{2}, data);
      lane_values word;
      for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        switch (ins.op) {
        case opcode::str:
          memory_[l].write32(address[l], data[l]);
          break;
        case opcode::strb:
          memory_[l].write8(address[l], static_cast<std::uint8_t>(data[l]));
          break;
        case opcode::strh:
          memory_[l].write16(address[l],
                             static_cast<std::uint16_t>(data[l]));
          break;
        default:
          break;
        }
        word[l] = memory_[l].containing_word(address[l]);
        emit_lane(l, component::mdr, 0, mdr_state_[l], word[l], mem_cycle);
        mdr_state_[l] = word[l];
      }
      if (isa::is_subword(ins) && config_.has_align_buffer) {
        for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
          const auto l = static_cast<std::size_t>(std::countr_zero(m));
          const std::uint32_t sub = ins.op == opcode::strb
                                        ? (data[l] & 0xffU)
                                        : (data[l] & 0xffffU);
          emit_lane(l, component::align_buffer, 0, align_buffer_state_[l],
                    sub, mem_cycle + 1);
          align_buffer_state_[l] = sub;
        }
      }
      // Store data traverses the EX->WB path on its way to the store
      // buffer even though no register is written.
      write_back(slot, data, cycle_ + 3);
    }
    pc_ = next_pc;
    return outcome;
  }

  // --- multiply -------------------------------------------------------
  if (ins.op == opcode::mul || ins.op == opcode::mla) {
    const bool exec = agreed_exec(ins);
    lane_values a;
    lane_values b;
    read_reg(ins.rn, a);
    read_reg(ins.op2.rm, b);
    drive_rf_port(a);
    drive_rf_port(b);
    lane_values acc{};
    if (ins.op == opcode::mla) {
      read_reg(ins.ra, acc);
      drive_rf_port(acc);
    }
    drive_is_ex_bus(0, a);
    drive_is_ex_bus(1, b);
    if (exec) {
      lane_values result;
      for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        result[l] = a[l] * b[l] + (ins.op == opcode::mla ? acc[l] : 0);
      }
      const std::uint64_t ready =
          cycle_ + static_cast<std::uint64_t>(config_.mul_latency);
      if (!config_.mul_pipelined) {
        mul_free_ = ready;
      }
      // The multiplier lives on ALU0.
      for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        emit_lane(l, component::alu_in_latch, 0, alu_latch_state_[l], a[l],
                  cycle_ + 1);
        alu_latch_state_[l] = a[l];
      }
      for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        emit_lane(l, component::alu_in_latch, 1, alu_latch_state_[lanes_ + l],
                  b[l], cycle_ + 1);
        alu_latch_state_[lanes_ + l] = b[l];
      }
      for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        emit_weight_lane(l, component::alu_out, 0, result[l], ready - 1);
      }
      retire_write(ins.rd, result, ready);
      write_back(slot, result, ready);
      if (ins.set_flags) {
        for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
          const auto l = static_cast<std::size_t>(std::countr_zero(m));
          state_[l].f.n = (result[l] >> 31) != 0;
          state_[l].f.z = result[l] == 0;
        }
        flags_ready_ = ready;
      }
    }
    pc_ = next_pc;
    return outcome;
  }

  // --- data processing --------------------------------------------------
  const bool has_rn = !(ins.op == opcode::mov || ins.op == opcode::mvn ||
                        ins.op == opcode::movw || ins.op == opcode::movt);
  lane_values rn_value{};
  const std::uint8_t first_lane = slot == 0 ? std::uint8_t{0} : std::uint8_t{2};
  const std::uint8_t second_lane =
      slot == 0 ? std::uint8_t{1} : std::uint8_t{2};
  int reg_operands = 0;

  if (has_rn && !(ins.op == opcode::movw || ins.op == opcode::movt)) {
    read_reg(ins.rn, rn_value);
    drive_rf_port(rn_value);
    drive_is_ex_bus(first_lane, rn_value);
    ++reg_operands;
  }

  // Per-lane operand-2 evaluation; the *structure* (used_shifter and the
  // port/bus traffic it implies) is static per instruction, only the
  // values differ per lane.
  lane_values op2_value{};
  lane_values op2_pre{};
  std::array<std::uint8_t, max_batch_lanes> op2_carry{};
  bool used_shifter = false;
  if (ins.op == opcode::movw) {
    for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      op2_value[l] = ins.imm16;
    }
  } else if (ins.op == opcode::movt) {
    lane_values old;
    read_reg(ins.rd, old);
    drive_rf_port(old);
    for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      op2_value[l] = (old[l] & 0xffffU) |
                     (static_cast<std::uint32_t>(ins.imm16) << 16);
    }
  } else {
    for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      const operand2_value op2 = eval_operand2(
          ins, [this, l](reg r) { return state_[l].reg(r); },
          state_[l].f.c);
      op2_value[l] = op2.value;
      op2_pre[l] = op2.pre_shift;
      op2_carry[l] = op2.carry ? 1 : 0;
      used_shifter = op2.used_shifter; // static: ins.op2.shift.active()
    }
    if (ins.op2.k == isa::operand2::kind::reg_shifted) {
      drive_rf_port(op2_pre);
      const std::uint8_t bus = (reg_operands == 0) ? first_lane : second_lane;
      drive_is_ex_bus(bus, op2_pre);
      ++reg_operands;
      if (ins.op2.shift.by_register) {
        lane_values amount;
        read_reg(ins.op2.shift.amount_reg, amount);
        drive_rf_port(amount);
      }
    }
  }

  // Per-lane predication for plain DP ops, agreement for the rest.  A
  // latency-1 DP op that writes a register and no flags has exactly one
  // schedule effect on the per-trace pipeline: reg_ready_[rd] = cycle_+1,
  // observable only by a same-cycle dual-issue partner reading or writing
  // rd — which statically_pairable forbids (RAW/WAW).  Its condition
  // outcome is therefore lane-local data (the AES xtime `eorne`!), not
  // control: the batch gates the lane's emissions and register write and
  // never ejects.  Shifted ops (latency > 1: the scoreboard write IS
  // observable next cycle), flag writers (flags_ready_), and conditional
  // movw/movt stay on the agreement path.
  std::uint64_t exec_mask = active_mask_;
  if (ins.cond != isa::condition::al) {
    const bool relaxed = !used_shifter && !writes_flags(ins) &&
                         ins.op != opcode::movw && ins.op != opcode::movt;
    if (relaxed) {
      exec_mask = 0;
      for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        if (isa::condition_passes(ins.cond, state_[l].f)) {
          exec_mask |= std::uint64_t{1} << l;
        }
      }
    } else if (!agreed_exec(ins)) {
      pc_ = next_pc;
      return outcome;
    } else {
      exec_mask = active_mask_; // agreement may have shrunk the batch
    }
  }
  if (exec_mask == 0) {
    // No lane executes: every per-trace twin takes the early return.
    pc_ = next_pc;
    return outcome;
  }

  int alu_index;
  if (isa::needs_alu0(ins)) {
    alu_index = 0;
  } else {
    alu_index = slot == 0 ? 0 : 1;
  }
  std::uint64_t result_latency = 1;
  if (used_shifter) {
    result_latency += static_cast<std::uint64_t>(config_.shift_extra_latency);
    for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      emit_weight_lane(l, component::shift_buffer, 0, op2_value[l],
                       cycle_ + 2);
    }
  }

  if (ins.op == opcode::movw || ins.op == opcode::movt) {
    const std::size_t latch1 =
        static_cast<std::size_t>(alu_index * 2 + 1) * lanes_;
    for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      emit_lane(l, component::alu_in_latch,
                static_cast<std::uint8_t>(alu_index * 2 + 1),
                alu_latch_state_[latch1 + l], op2_value[l], cycle_ + 1);
      alu_latch_state_[latch1 + l] = op2_value[l];
    }
    retire_write(ins.rd, op2_value, cycle_ + result_latency);
    for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      emit_weight_lane(l, component::alu_out,
                       static_cast<std::uint8_t>(alu_index), op2_value[l],
                       cycle_ + 2);
    }
    write_back(slot, op2_value, cycle_ + 3);
    pc_ = next_pc;
    return outcome;
  }

  lane_values result;
  std::array<isa::flags, max_batch_lanes> result_flags;
  bool writes_result = true; // static per opcode: take any active lane's
  for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(m));
    const alu_result r = execute_dp(ins.op, rn_value[l], op2_value[l],
                                    op2_carry[l] != 0, state_[l].f);
    result[l] = r.value;
    result_flags[l] = r.f;
    writes_result = r.writes_result;
  }

  // ALU input latches: operand position 0 = rn, position 1 = (shifted) op2.
  // Every datapath effect below is gated per lane by exec_mask — a
  // predicated-false lane's per-trace twin returned before this point.
  const std::uint64_t emit_mask = active_mask_ & exec_mask;
  const std::size_t latch_base = static_cast<std::size_t>(alu_index * 2) * lanes_;
  if (has_rn) {
    for (std::uint64_t m = emit_mask; m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      emit_lane(l, component::alu_in_latch,
                static_cast<std::uint8_t>(alu_index * 2),
                alu_latch_state_[latch_base + l], rn_value[l], cycle_ + 1);
      alu_latch_state_[latch_base + l] = rn_value[l];
    }
  }
  for (std::uint64_t m = emit_mask; m != 0; m &= m - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(m));
    emit_lane(l, component::alu_in_latch,
              static_cast<std::uint8_t>(alu_index * 2 + 1),
              alu_latch_state_[latch_base + lanes_ + l], op2_value[l],
              cycle_ + 1);
    alu_latch_state_[latch_base + lanes_ + l] = op2_value[l];
  }

  for (std::uint64_t m = emit_mask; m != 0; m &= m - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(m));
    emit_weight_lane(l, component::alu_out,
                     static_cast<std::uint8_t>(alu_index), result[l],
                     cycle_ + 2);
  }

  if (writes_result) {
    // The scoreboard write is shared (unobservable when lanes disagree —
    // see above); the register value and WB-path events are per lane.
    reg_ready_[isa::index_of(ins.rd)] = cycle_ + result_latency;
    const auto wb_bus = static_cast<std::uint8_t>(slot);
    const std::size_t wb_base = static_cast<std::size_t>(slot) * lanes_;
    for (std::uint64_t m = emit_mask; m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      state_[l].set_reg(ins.rd, result[l]);
      emit_lane(l, component::wb_bus, wb_bus, wb_bus_state_[wb_base + l],
                result[l], cycle_ + 3);
      wb_bus_state_[wb_base + l] = result[l];
      emit_lane(l, component::ex_wb_latch, wb_bus,
                ex_wb_latch_state_[wb_base + l], result[l], cycle_ + 3);
      ex_wb_latch_state_[wb_base + l] = result[l];
    }
  }
  if (writes_flags(ins)) {
    for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      state_[l].f = result_flags[l];
    }
    flags_ready_ = cycle_ + result_latency;
  }
  pc_ = next_pc;
  return outcome;
}

// ---------------------------------------------------------------------------
// Cycle loop (pipeline::step_cycle, shared control)
// ---------------------------------------------------------------------------

bool batch_pipeline::step_cycle() {
  if (halted_) {
    return false;
  }
  active_lane_cycles_ +=
      static_cast<std::uint64_t>(std::popcount(active_mask_));
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

  if (pc_ >= prog_->code.size()) {
    halted_ = true;
    return false;
  }

  const instruction* first = try_select(pc_);
  if (first == nullptr) {
    ++cycle_;
    return !halted_;
  }

  const instruction& older = *first;
  const std::size_t older_index = pc_;
  const issue_outcome first_outcome = issue(older, 0);

  if (first_outcome.issued && !first_outcome.serialize && !halted_ &&
      config_.issue_width >= 2) {
    bool partner_visible =
        !first_outcome.redirect || config_.perfect_branch_prediction;
    if (config_.pair_aligned_fetch_only &&
        (older_index % 2 != 0 || first_outcome.redirect)) {
      partner_visible = false;
    }
    const std::size_t younger_index = pc_;
    if (partner_visible && younger_index < prog_->code.size()) {
      const bool pairable =
          younger_index == older_index + 1
              ? pairable_next_[older_index] != 0
              : statically_pairable(config_, older,
                                    prog_->code[younger_index]);
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
  return !halted_;
}

} // namespace usca::sim
