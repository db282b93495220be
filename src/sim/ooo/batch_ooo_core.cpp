// Lane datapath of the batched OoO core; the shared control is
// sim::ooo_control.  Every emission point corresponds 1:1 to one of
// sim::ooo_core's — same order, same cycle stamps — with per-trace scalar
// values replaced by lane-major rows: the per-lane activity stream of a
// surviving lane stays bit-identical to a per-trace run (ctest -L
// sim_batch).
#include "sim/ooo/batch_ooo_core.h"

#include <algorithm>
#include <bit>

#include "sim/ooo/ooo_core.h"
#include "util/error.h"
#include "util/telemetry.h"

namespace usca::sim {

namespace {

using isa::instruction;
using isa::opcode;
using isa::reg;

} // namespace

batch_ooo_core::batch_ooo_core(program_image image, micro_arch_config config,
                               std::size_t lanes)
    : batch_backend(std::move(image), config.icache, config.dcache, lanes),
      ctl_(config) {
  // The reference scheduler is the differential oracle; its whole point
  // is being an independent implementation, so it runs per-trace only.
  if (config.ooo.scheduler != ooo_scheduler::fast) {
    throw util::simulation_error(
        "batch ooo backend supports only the fast scheduler (use "
        "sim_batch_lanes = 0 / per-trace cores for reference-scheduler "
        "runs)");
  }
  // Speculative lanes diverge down per-lane wrong paths, which the shared
  // front end of the SoA design cannot represent; the campaign layer
  // detects this and falls back to per-trace cores transparently.
  if (speculation_active(config)) {
    throw util::simulation_error(
        "batch ooo backend does not model speculation (predictor != "
        "perfect); use per-trace cores — campaigns fall back automatically");
  }

  const std::size_t rob_rows = ctl_.rob.size() * lanes_;
  const std::size_t rs_rows = ctl_.rs.size() * lanes_;
  rob_value_.resize(rob_rows);
  rob_store_addr_.resize(rob_rows);
  rs_src_value_.resize(rs_rows * max_sources);
  rs_address_.resize(rs_rows);
  rs_mem_word_.resize(rs_rows);
  rs_sub_value_.resize(rs_rows);
  rs_shift_value_.resize(rs_rows);
  rs_squash_.resize(ctl_.rs.size());
  sb_addr_.resize(static_cast<std::size_t>(config.ooo.store_buffer_entries) *
                  lanes_);

  prf_port_state_.resize(ooo_control::prf_ports * lanes_);
  alu_latch_state_.resize(4 * lanes_);
  cdb_state_.resize(ooo_control::ports * lanes_);
  retire_port_state_.resize(ooo_control::ports * lanes_);
  mdr_state_.resize(lanes_);
  align_buffer_state_.resize(lanes_);
  reset_structures();
}

void batch_ooo_core::reset_structures() {
  ctl_.reset();
  std::fill(rs_squash_.begin(), rs_squash_.end(), 0U);
  std::fill(prf_port_state_.begin(), prf_port_state_.end(), 0U);
  std::fill(alu_latch_state_.begin(), alu_latch_state_.end(), 0U);
  std::fill(cdb_state_.begin(), cdb_state_.end(), 0U);
  std::fill(retire_port_state_.begin(), retire_port_state_.end(), 0U);
  std::fill(mdr_state_.begin(), mdr_state_.end(), 0U);
  std::fill(align_buffer_state_.begin(), align_buffer_state_.end(), 0U);
  rat_port_state_.fill(0);
  tag_bus_state_.fill(0);

  pc_ = 0;
  halted_ = false;
  renamed_ = 0;
  active_lane_cycles_ = 0;
}

void batch_ooo_core::reset() {
  reset_lanes();
  reset_structures();
}

void batch_ooo_core::run(std::uint64_t max_cycles) {
  const cpu_state& lead = enter_run();
  pc_ = lead.pc;
  halted_ = lead.halted;

  const std::uint64_t start_cycle = ctl_.cycle;
  const std::uint64_t start_skipped = ctl_.idle_skipped;
  const std::uint64_t limit = ctl_.cycle + max_cycles;
  try {
    while (!halted_) {
      if (ctl_.cycle >= limit) {
        throw util::simulation_error(
            "batch ooo core exceeded the cycle budget");
      }
      step_cycle();
    }
  } catch (...) {
    store_lanes();
    throw;
  }
  leave_run(pc_, halted_);
  static const telem::counter cycles{"sim.ooo.cycles", "cycles", "sim"};
  static const telem::counter skipped{"sim.ooo.idle_skipped", "cycles",
                                      "sim"};
  cycles.add(ctl_.cycle - start_cycle);
  skipped.add(ctl_.idle_skipped - start_skipped);
  note_batch_run(active_limit_, active_lane_cycles_);
  active_lane_cycles_ = 0;
}

// ---------------------------------------------------------------------------
// Event plumbing
// ---------------------------------------------------------------------------

void batch_ooo_core::drive_prf_port(const std::uint32_t* values) {
  const int port = ctl_.prf_ports_used++;
  if (port >= ooo_control::prf_ports) {
    return; // the select stage bounds issue by the port budget
  }
  drive_lanes(component::prf_read_port, static_cast<std::uint8_t>(port),
              &prf_port_state_[static_cast<std::size_t>(port) * lanes_],
              values, ctl_.cycle, active_mask_);
}

void batch_ooo_core::drive_tag(component comp, std::uint8_t port,
                               std::uint32_t& state, std::uint8_t tag) {
  lane_row flips;
  flips.fill(state ^ tag);
  weigh_lanes(comp, port, flips.data(), ctl_.cycle, active_mask_);
  state = tag;
}

void batch_ooo_core::drive_alu_latches(std::size_t slot, std::size_t n_src,
                                       int alu_index,
                                       std::uint64_t executing) {
  // Operand position p of ALU a drives latch a * 2 + p.
  for (std::size_t p = 0; p < n_src && p < 2; ++p) {
    const std::size_t latch = static_cast<std::size_t>(alu_index) * 2 + p;
    drive_lanes(component::alu_in_latch, static_cast<std::uint8_t>(latch),
                &alu_latch_state_[latch * lanes_],
                &rs_src_value_[(slot * max_sources + p) * lanes_],
                ctl_.cycle + 1, executing);
  }
}

// ---------------------------------------------------------------------------
// Issue datapath
// ---------------------------------------------------------------------------

std::uint64_t batch_ooo_core::issue_entry(std::size_t slot, int alu_index) {
  const rs_entry& rs = ctl_.rs[slot];
  const std::uint64_t cycle = ctl_.cycle;
  for (std::size_t s = 0; s < rs.n_src; ++s) {
    drive_prf_port(&rs_src_value_[(slot * max_sources + s) * lanes_]);
  }

  int penalty = 0;
  const std::size_t row = slot * lanes_;
  if (rs.is_load) {
    // Divergence checkpoint: each lane probes its own D-cache at its own
    // address, but the penalty is a shared scheduling input.
    const std::uint64_t missed = data_.probe(&rs_address_[row], active_mask_);
    if (data_.miss_penalty() != 0 && agree_bit(missed)) {
      penalty = data_.miss_penalty();
    }
  }
  const std::uint64_t complete_at = ctl_.occupy_units(rs, penalty);

  // Per-lane squash mask: a lane whose condition failed takes the same
  // trip (unit occupancy, latency, D-cache probe, CDB slot) but touches
  // no datapath structure beyond the PRF reads above.
  const std::uint64_t executing = active_mask_ & ~rs_squash_[slot];
  if (rs.uses_lsu) {
    drive_lanes(component::mdr, 0, mdr_state_.data(), &rs_mem_word_[row],
                cycle + 2, executing);
    if (rs.is_subword && ctl_.config().has_align_buffer) {
      drive_lanes(component::align_buffer, 0, align_buffer_state_.data(),
                  &rs_sub_value_[row], cycle + 3, executing);
    }
    return complete_at;
  }
  if (rs.used_shifter) {
    weigh_lanes(component::shift_buffer, 0, &rs_shift_value_[row],
                cycle + 1, executing);
  }
  drive_alu_latches(slot, rs.n_src, alu_index, executing);
  weigh_lanes(component::alu_out, static_cast<std::uint8_t>(alu_index),
              &rob_value_[static_cast<std::size_t>(rs.rob_slot) * lanes_],
              rs.is_mul ? complete_at - 1 : complete_at, executing);
  return complete_at;
}

// ---------------------------------------------------------------------------
// Rename: in-order front end, architectural execution per lane
// ---------------------------------------------------------------------------

batch_ooo_core::rename_result batch_ooo_core::rename_one(int slot) {
  const std::size_t index = pc_;
  const instruction& ins = prog_->code[index];
  const bool serializing = ins.op == opcode::mark || ins.op == opcode::halt;

  // All structural stalls are checked before any architectural effect —
  // shared decisions over shared occupancy state, exactly the per-trace
  // conditions.
  if (ctl_.rename_stalls(serializing, slot)) {
    return rename_result::stall;
  }
  const int penalty = icache_.access(prog_->address_of(index));
  if (penalty > 0) {
    ctl_.fetch_ready = ctl_.cycle + static_cast<std::uint64_t>(penalty);
    return rename_result::stall;
  }

  const std::uint32_t rob_slot = ctl_.rob_tail();
  rob_entry entry;
  entry.seq = ctl_.next_seq;
  const std::size_t vrow = static_cast<std::size_t>(rob_slot) * lanes_;
  // The value row must be zero for entries that never write it: alu_out's
  // Hamming-weight emission for a dest-less µop (cmp/tst) reads this row.
  std::fill_n(&rob_value_[vrow], lanes_, 0U);

  // Prospective RS slot: the one dispatch takes (the busy mask cannot
  // change between here and there).  Lane-major RS rows are written in
  // place at this slot during rename.
  const std::size_t rs_slot = ctl_.free_rs_slot();
  const std::size_t rs_row = rs_slot * lanes_;

  // Per-lane condition outcome.  Only branches promote it to a shared
  // control input (agreement below); everywhere else it stays lane-local
  // data, gating lane-local effects via the squash mask.
  const std::uint64_t exec_mask = ins.cond == isa::condition::al
                                     ? ~std::uint64_t{0}
                                     : passing_lanes(ins.cond);
  const std::uint64_t executing = active_mask_ & exec_mask;

  std::size_t next_pc = pc_ + 1;

  rs_entry rs;
  rs.seq = entry.seq;
  bool to_rs = false;
  bool redirected = false;
  const auto add_src = [&](reg r) {
    rs.src_preg[rs.n_src] = ctl_.source_tag(isa::index_of(r));
    std::copy_n(reg_row(r), lanes_,
                &rs_src_value_[(rs_slot * max_sources + rs.n_src) * lanes_]);
    ++rs.n_src;
  };
  // Renames `rd` to this µop with values[lane] as its result, which the
  // lane's register also takes now (execution is architectural at rename).
  const auto rename_dest = [&](reg rd, const std::uint32_t* values) {
    const std::uint8_t tag = ctl_.rename_dest(entry, isa::index_of(rd));
    copy_lanes(values, active_mask_, &rob_value_[vrow]);
    // RAT write port: the tag is lane-invariant.
    const auto port = static_cast<std::uint8_t>(slot % ooo_control::ports);
    drive_tag(component::rat_port, port, rat_port_state_[port], tag);
    write_reg(rd, values, active_mask_);
  };
  // A select µop's result row starts as the old destination; the
  // executing lanes then overwrite it.
  const auto old_value = [&](reg rd) { return regs_[isa::index_of(rd)]; };
  const auto wait_flags = [&] { rs.flags_wait_slot = ctl_.flags_wait(); };

  // --- simulator pseudo-ops ------------------------------------------------
  if (ins.op == opcode::mark) {
    entry.is_mark = true;
    entry.mark_id = ins.imm16;
    entry.completed = true;
    pc_ = next_pc;
  } else if (ins.op == opcode::halt) {
    entry.is_halt = true;
    entry.completed = true;
    // pc intentionally left on the halt: the machine stops at commit.
  } else if (isa::is_nop(ins)) {
    entry.completed = true;
    pc_ = next_pc;
  } else if (isa::is_branch(ins)) {
    // Divergence checkpoint: the condition outcome steers the front end.
    const bool exec = agree_bit(exec_mask);
    if (ins.op == opcode::bx) {
      if (exec) {
        // Second checkpoint: the indirect target IS the fetch stream.
        const std::uint32_t* target = reg_row(ins.op2.rm);
        agree(target);
        const auto target_index =
            prog_->index_of_address(target[leader()]);
        if (!target_index) {
          ctl_.frontend_done = true;
          entry.completed = true;
          entry.is_halt = true;
          ctl_.accept(entry, rob_slot);
          ++renamed_;
          return rename_result::accepted_stop;
        }
        next_pc = *target_index;
      }
    } else if (exec) {
      const auto target = static_cast<std::size_t>(
          static_cast<std::int64_t>(pc_) + 1 + ins.branch_offset);
      if (ins.op == opcode::bl) {
        lane_row link;
        link.fill(prog_->address_of(pc_ + 1));
        rename_dest(reg::lr, link.data());
        ctl_.preg_ready[entry.dest_preg] = 1; // value known at rename
      }
      next_pc = target;
    }
    redirected = next_pc != pc_ + 1;
    if (redirected && !config().perfect_branch_prediction) {
      ctl_.fetch_ready =
          ctl_.cycle + 1 +
          static_cast<std::uint64_t>(config().branch_mispredict_penalty);
    }
    entry.completed = true;
    pc_ = next_pc;
  } else if (isa::is_memory(ins)) {
    add_src(ins.mem.base);
    if (ins.mem.reg_offset) {
      add_src(ins.mem.offset_reg);
    }
    std::uint32_t* addr = &rs_address_[rs_row];
    address_lanes(ins.mem, regs_, active_mask_, addr);
    rs.uses_lsu = true;
    rs.is_subword = isa::is_subword(ins);
    if (isa::reads_flags(ins)) {
      wait_flags();
    }

    rs_squash_[rs_slot] = active_mask_ & ~exec_mask;
    if (isa::is_load(ins)) {
      if (ins.cond != isa::condition::al) {
        add_src(ins.rd); // select µop reads the old destination
      }
      lane_row value = old_value(ins.rd); // kept on a failed condition
      data_.load(addr, isa::access_width(ins), executing, value.data(),
                 &rs_mem_word_[rs_row]);
      rename_dest(ins.rd, value.data());
      copy_lanes(value.data(), active_mask_, &rs_sub_value_[rs_row]);
      rs.is_load = true;
    } else {
      const std::uint32_t* data = reg_row(ins.rd);
      add_src(ins.rd); // store data is a register source
      data_.store(addr, data, isa::access_width(ins), executing,
                  &rs_mem_word_[rs_row]);
      const std::uint32_t keep = ins.op == opcode::strb ? 0xffU : 0xffffU;
      for (const std::size_t l : lanes_in(executing)) {
        rs_sub_value_[rs_row + l] = data[l] & keep;
      }
      rs.is_store = true;
      // A squashed store still occupies its store-buffer slot at commit
      // (the drain probes the computed address; memory is untouched).
      entry.is_store = true;
      entry.has_value = true;
      copy_lanes(addr, active_mask_, &rob_store_addr_[vrow]);
      copy_lanes(data, active_mask_, &rob_value_[vrow]);
    }
    to_rs = true;
    pc_ = next_pc;
  } else if (ins.op == opcode::mul || ins.op == opcode::mla) {
    add_src(ins.rn);
    add_src(ins.op2.rm);
    if (ins.op == opcode::mla) {
      add_src(ins.ra);
    }
    if (isa::reads_flags(ins)) {
      wait_flags();
    }
    if (ins.cond != isa::condition::al) {
      add_src(ins.rd); // select µop reads the old destination
    }
    rs.is_mul = true;
    rs.needs_alu0 = true;
    rs_squash_[rs_slot] = active_mask_ & ~exec_mask;
    lane_row result = old_value(ins.rd);
    dp_lanes(ins, regs_, nullptr, 0, executing, result.data(), flags_);
    rename_dest(ins.rd, result.data());
    if (ins.set_flags) {
      // The flag rename happens either way: younger flag readers wait on
      // this µop independent of the condition's outcome.
      ctl_.flags_producer_slot = rob_slot;
    }
    to_rs = true;
    pc_ = next_pc;
  } else {
    // Data processing (incl. movw/movt and standalone shifts).
    const bool wide_move = ins.op == opcode::movw || ins.op == opcode::movt;
    const bool has_rn = !(ins.op == opcode::mov || ins.op == opcode::mvn ||
                          wide_move);
    if (has_rn) {
      add_src(ins.rn);
    }

    // The operand-2 *structure* (the shifter, the source registers it
    // adds) is static per instruction; only the values are per lane.
    const std::uint32_t* op2 = nullptr;
    std::uint64_t carry = 0;
    if (ins.op == opcode::movt) {
      add_src(ins.rd);
    } else if (!wide_move) {
      op2 = &rs_shift_value_[rs_row];
      carry = operand2_lanes(ins, regs_, flags_.c, active_mask_,
                             &rs_shift_value_[rs_row]);
      if (ins.op2.k == isa::operand2::kind::reg_shifted) {
        add_src(ins.op2.rm);
        if (ins.op2.shift.by_register) {
          add_src(ins.op2.shift.amount_reg);
        }
      }
      rs.used_shifter = ins.op2.k == isa::operand2::kind::reg_shifted &&
                        ins.op2.shift.active();
      rs.needs_alu0 = rs.used_shifter;
    }

    if (isa::reads_flags(ins)) {
      wait_flags();
    }
    rs_squash_[rs_slot] = active_mask_ & ~exec_mask;
    if (!isa::is_compare(ins)) {
      if (ins.cond != isa::condition::al && ins.op != opcode::movt) {
        add_src(ins.rd);
      }
      lane_row committed = old_value(ins.rd);
      dp_lanes(ins, regs_, op2, carry, executing, committed.data(), flags_);
      rename_dest(ins.rd, committed.data());
    } else {
      lane_row ignored;
      dp_lanes(ins, regs_, op2, carry, executing, ignored.data(), flags_);
    }
    if (isa::writes_flags(ins) && !wide_move) {
      ctl_.flags_producer_slot = rob_slot;
    }
    to_rs = true;
    pc_ = next_pc;
  }

  ctl_.accept(entry, rob_slot);
  if (to_rs) {
    ctl_.dispatch(rs, rob_slot, rs_slot);
  }
  ++renamed_;

  if (pc_ >= prog_->code.size() && !entry.is_halt) {
    ctl_.frontend_done = true;
    return rename_result::accepted_stop;
  }
  if (redirected && !config().perfect_branch_prediction) {
    return rename_result::accepted_stop;
  }
  if (serializing) {
    return rename_result::accepted_stop;
  }
  return rename_result::accepted;
}

bool batch_ooo_core::step_cycle() {
  if (halted_) {
    return false;
  }
  active_lane_cycles_ +=
      static_cast<std::uint64_t>(std::popcount(active_mask_));
  ctl_.cycle_dirty = false;
  ctl_.retire([this](std::size_t slot, std::uint8_t port) {
    const rob_entry& head = ctl_.rob[slot];
    const std::size_t row = slot * lanes_;
    if (head.is_store) {
      std::copy_n(&rob_store_addr_[row], lanes_,
                  &sb_addr_[ctl_.sb_push() * lanes_]);
    }
    // Same safe cut as ooo_core::retire_stage, for every lane at once.
    if ((head.is_mark &&
         commit_mark(mark_stamp{head.mark_id, ctl_.cycle,
                                ctl_.multi_rename_cycles})) ||
        head.is_halt) {
      halted_ = true;
    }
    if (head.has_value) {
      drive_lanes(component::rob_retire_port, port,
                  &retire_port_state_[static_cast<std::size_t>(port) * lanes_],
                  &rob_value_[row], ctl_.cycle, active_mask_);
    }
    return halted_;
  });
  if (halted_) {
    ++ctl_.cycle;
    return false;
  }
  // Each lane probes its own D-cache at its own address.  The per-trace
  // path ignores the access's return value, so no agreement is needed
  // here — a diverging cache state surfaces (and ejects) at the next
  // load-penalty checkpoint.
  ctl_.drain_store_buffer([this](std::size_t entry) {
    data_.probe(&sb_addr_[entry * lanes_], active_mask_);
  });
  ctl_.broadcast([this](std::uint8_t bus, const exec_entry& done) {
    // The ROB slot stays allocated until retirement, so its value row is
    // the µop's result, read per lane here.
    drive_lanes(component::cdb, bus,
                &cdb_state_[static_cast<std::size_t>(bus) * lanes_],
                &rob_value_[static_cast<std::size_t>(done.rob_slot) * lanes_],
                ctl_.cycle, active_mask_);
    drive_tag(component::rs_tag_bus, bus, tag_bus_state_[bus],
              done.dest_preg);
  });
  ctl_.select([this](std::size_t slot, int alu_index) {
    return issue_entry(slot, alu_index);
  });
  const std::size_t end = prog_->code.size();
  ctl_.rename(pc_ >= end, [this, end](int slot) {
    return pc_ < end ? rename_one(slot) : rename_result::stall;
  });
  halted_ = ctl_.end_cycle(true);
  return !halted_;
}

} // namespace usca::sim
