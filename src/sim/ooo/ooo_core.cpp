#include "sim/ooo/ooo_core.h"

#include <algorithm>

#include "sim/alu.h"
#include "util/error.h"
#include "util/telemetry.h"

namespace usca::sim {

namespace {

using isa::instruction;
using isa::opcode;
using isa::reg;

} // namespace

ooo_core::ooo_core(asmx::program prog, micro_arch_config config)
    : ooo_core(program_image(std::move(prog)), config) {}

ooo_core::ooo_core(program_image image, micro_arch_config config)
    : image_(std::move(image)),
      prog_(&image_.prog()),
      ctl_(config),
      icache_(config.icache),
      dcache_(config.dcache) {
  spec_ = config.speculation;
  spec_enabled_ = spec_.predictor != predictor_kind::perfect;
  if (spec_enabled_) {
    validate_speculation_config(spec_);
    if (!config.perfect_branch_prediction) {
      throw util::simulation_error(
          "speculation_config: a real predictor replaces the legacy "
          "branch_mispredict_penalty model; leave "
          "perfect_branch_prediction enabled");
    }
    predictor_.configure(spec_);
  }
  memory_.load(prog_->data_base, prog_->data);
  activity_.reserve(4096);

  fast_ = config.ooo.scheduler == ooo_scheduler::fast;
  static const telem::gauge reference_mode{"sim.ooo.reference_mode", "flag",
                                           "sim"};
  reference_mode.set(fast_ ? 0 : 1);
  rob_value_.resize(ctl_.rob.size());
  rob_store_addr_.resize(ctl_.rob.size());
  rs_values_.resize(ctl_.rs.size());
  sb_addr_.resize(static_cast<std::size_t>(config.ooo.store_buffer_entries));
  exec_.reserve(ctl_.rob.size());
  reset_structures();
}

void ooo_core::reset_structures() {
  ctl_.reset();
  exec_.clear();

  prf_port_state_.fill(0);
  alu_latch_state_.fill(0);
  rat_port_state_.fill(0);
  tag_bus_state_.fill(0);
  cdb_state_.fill(0);
  retire_port_state_.fill(0);
  mdr_state_ = 0;
  align_buffer_state_ = 0;

  wrong_path_ = false;
  spec_fetch_done_ = false;
  spec_pc_ = 0;
  spec_branch_slot_ = no_slot;
  spec_branch_seq_ = 0;
  spec_resolve_at_ = 0;
  ckpt_flags_slot_ = no_slot;
  ckpt_flags_seq_ = 0;
  spec_regs_.fill(0);
  spec_flags_ = isa::flags{};
  bp_table_state_.fill(0);
  btb_port_state_.fill(0);
  if (spec_enabled_) {
    predictor_.reset();
  }

  renamed_ = 0;
  mispredicts_ = 0;
  wrong_path_renamed_ = 0;
  restart_recording();
  activity_.clear();
}

void ooo_core::reset() {
  restore_data_images(*prog_, {&memory_, 1},
                      icache_.reset() + dcache_.reset());
  state_ = cpu_state{};
  reset_structures();
}

void ooo_core::rebind(program_image image) {
  image_ = std::move(image);
  prog_ = &image_.prog();
  reset();
}

void ooo_core::run(std::uint64_t max_cycles) {
  const std::uint64_t start_cycle = ctl_.cycle;
  const std::uint64_t start_skipped = ctl_.idle_skipped;
  const std::uint64_t start_mispredicts = mispredicts_;
  const std::uint64_t start_wrong_path = wrong_path_renamed_;
  const std::uint64_t limit = ctl_.cycle + max_cycles;
  while (!state_.halted) {
    if (ctl_.cycle >= limit) {
      throw util::simulation_error("ooo core exceeded the cycle budget");
    }
    step_cycle();
  }
  // Per-cycle quantities are accumulated in plain members above and
  // flushed to telemetry once per run, never from the cycle loop.
  static const telem::counter cycles{"sim.ooo.cycles", "cycles", "sim"};
  static const telem::counter skipped{"sim.ooo.idle_skipped", "cycles",
                                      "sim"};
  cycles.add(ctl_.cycle - start_cycle);
  skipped.add(ctl_.idle_skipped - start_skipped);
  if (spec_enabled_) {
    static const telem::counter mispredicted{"sim.ooo.mispredicts",
                                             "branches", "sim"};
    static const telem::counter wrong_uops{"sim.ooo.wrong_path_uops",
                                           "uops", "sim"};
    mispredicted.add(mispredicts_ - start_mispredicts);
    wrong_uops.add(wrong_path_renamed_ - start_wrong_path);
  }
}

// ---------------------------------------------------------------------------
// Event plumbing
// ---------------------------------------------------------------------------

void ooo_core::drive_prf_port(std::uint32_t value) {
  const int port = ctl_.prf_ports_used++;
  if (port >= ooo_control::prf_ports) {
    return; // the select stage bounds issue by the port budget
  }
  const auto lane = static_cast<std::uint8_t>(port);
  emit(component::prf_read_port, lane, prf_port_state_[lane], value,
       ctl_.cycle);
  prf_port_state_[lane] = value;
}

void ooo_core::drive_cdb(std::uint8_t bus, const exec_entry& done) {
  // The result value crosses the CDB to the PRF and every RS entry.  The
  // ROB slot stays allocated until retirement (which runs before the
  // broadcast each cycle), so its value is the µop's result.
  const std::uint32_t result = rob_value_[done.rob_slot];
  emit(component::cdb, bus, cdb_state_[bus], result, ctl_.cycle);
  cdb_state_[bus] = result;
  // The destination tag travels the wakeup network in parallel.
  emit(component::rs_tag_bus, bus, tag_bus_state_[bus], done.dest_preg,
       ctl_.cycle);
  tag_bus_state_[bus] = done.dest_preg;
}

// ---------------------------------------------------------------------------
// Retirement
// ---------------------------------------------------------------------------

void ooo_core::retire_stage() {
  ctl_.retire([this](std::size_t slot, std::uint8_t port) {
    const rob_entry& head = ctl_.rob[slot];
    if (head.is_store) {
      sb_addr_[ctl_.sb_push()] = rob_store_addr_[slot];
    }
    // Safe cut: marks rename only once the ROB is empty, so every event
    // of an older instruction is already recorded (with a cycle stamp
    // below this one) when the mark commits — and the run may end here.
    if ((head.is_mark &&
         commit_mark(mark_stamp{head.mark_id, ctl_.cycle,
                                ctl_.multi_rename_cycles})) ||
        head.is_halt) {
      state_.halted = true;
    }
    if (head.has_value) {
      // Committed values are driven onto the retirement ports — the
      // "retirement channel" of the covert/side-channel literature.
      emit(component::rob_retire_port, port, retire_port_state_[port],
           rob_value_[slot], ctl_.cycle);
      retire_port_state_[port] = rob_value_[slot];
    }
    return state_.halted;
  });
}

// ---------------------------------------------------------------------------
// Reference scheduler: completion broadcast (CDB) and select
// ---------------------------------------------------------------------------

void ooo_core::complete_rob(std::uint32_t slot) {
  ctl_.rob[slot].completed = true;
  for (rs_entry& rs : ctl_.rs) {
    if (rs.busy && rs.flags_wait_slot == slot) {
      rs.flags_wait_slot = no_slot;
    }
  }
}

void ooo_core::broadcast_stage() {
  const std::uint64_t cycle = ctl_.cycle;
  // Non-broadcasting completions (stores, compares without a destination)
  // finish without arbitrating for a CDB lane.
  for (std::size_t i = 0; i < exec_.size();) {
    if (!exec_[i].broadcasts && exec_[i].complete_at <= cycle) {
      complete_rob(exec_[i].rob_slot);
      exec_[i] = exec_.back();
      exec_.pop_back();
    } else {
      ++i;
    }
  }

  // Dest-writing completions: oldest-first, bounded by the CDB width.
  for (int lane = 0; lane < ctl_.config().ooo.cdb_width; ++lane) {
    std::size_t best = exec_.size();
    for (std::size_t i = 0; i < exec_.size(); ++i) {
      if (exec_[i].broadcasts && exec_[i].complete_at <= cycle &&
          (best == exec_.size() || exec_[i].seq < exec_[best].seq)) {
        best = i;
      }
    }
    if (best == exec_.size()) {
      break;
    }
    const exec_entry done = exec_[best];
    exec_[best] = exec_.back();
    exec_.pop_back();

    drive_cdb(static_cast<std::uint8_t>(lane % ooo_control::ports), done);
    ctl_.preg_ready[done.dest_preg] = 1;
    for (rs_entry& rs : ctl_.rs) {
      if (!rs.busy) {
        continue;
      }
      for (std::size_t s = 0; s < rs.n_src; ++s) {
        if (rs.src_preg[s] == done.dest_preg) {
          rs.src_preg[s] = no_reg;
        }
      }
    }
    complete_rob(done.rob_slot);
  }
}

bool ooo_core::rs_ready(const rs_entry& rs) const noexcept {
  for (std::size_t s = 0; s < rs.n_src; ++s) {
    if (rs.src_preg[s] != no_reg && !ctl_.preg_ready[rs.src_preg[s]]) {
      return false;
    }
  }
  return rs.flags_wait_slot == no_slot ||
         ctl_.rob[rs.flags_wait_slot].completed;
}

void ooo_core::schedule_stage() {
  ctl_.prf_ports_used = 0;
  const int prf_ports = ctl_.prf_port_budget();
  int issued = 0;
  int alus_used = 0;
  bool alu0_used = false;
  bool lsu_used = false;

  while (issued < ctl_.config().issue_width && ctl_.rs_used > 0) {
    // Oldest-first select among ready entries that fit the free units.
    std::size_t pick = ctl_.rs.size();
    for (std::size_t slot = 0; slot < ctl_.rs.size(); ++slot) {
      const rs_entry& rs = ctl_.rs[slot];
      if (!rs.busy || !rs_ready(rs)) {
        continue;
      }
      if (!ctl_.rs_fits_units(rs, prf_ports, alus_used, alu0_used,
                              lsu_used)) {
        continue;
      }
      if (pick == ctl_.rs.size() || rs.seq < ctl_.rs[pick].seq) {
        pick = slot;
      }
    }
    if (pick == ctl_.rs.size()) {
      break;
    }
    int alu_index = 0;
    if (ctl_.rs[pick].uses_lsu) {
      lsu_used = true;
    } else {
      ++alus_used;
      // ALU0 first (the only one with the shifter/multiplier), then ALU1.
      if (ctl_.rs[pick].needs_alu0 || !alu0_used) {
        alu_index = 0;
        alu0_used = true;
      } else {
        alu_index = 1;
      }
    }
    exec_.push_back(ctl_.issued(pick, issue_entry(pick, alu_index)));
    ++issued;
  }
}

// ---------------------------------------------------------------------------
// Issue datapath (both schedulers)
// ---------------------------------------------------------------------------

std::uint64_t ooo_core::issue_entry(std::size_t slot, int alu_index) {
  const rs_entry& rs = ctl_.rs[slot];
  const rs_values& v = rs_values_[slot];
  const std::uint64_t cycle = ctl_.cycle;
  // PRF read ports: every register operand value crosses a read port on
  // its way to the FU.  Unlike the A7's short-load RF ports these drive
  // the long issue/bypass wires, so they are a leakage source (weighted
  // nonzero by the synthesizer).
  for (std::size_t s = 0; s < rs.n_src; ++s) {
    drive_prf_port(v.src[s]);
  }
  const std::uint64_t complete_at =
      ctl_.occupy_units(rs, rs.is_load ? dcache_.access(v.address) : 0);
  // A squashed (condition-failed) op touches no datapath structure
  // beyond the PRF reads above.
  if (v.squashed) {
    return complete_at;
  }
  const std::uint32_t result = rob_value_[rs.rob_slot];
  if (rs.uses_lsu) {
    emit(component::mdr, 0, mdr_state_, v.mem_word, cycle + 2);
    mdr_state_ = v.mem_word;
    if (rs.is_subword && ctl_.config().has_align_buffer) {
      emit(component::align_buffer, 0, align_buffer_state_, v.sub_value,
           cycle + 3);
      align_buffer_state_ = v.sub_value;
    }
    return complete_at;
  }
  if (rs.used_shifter) {
    emit_weight(component::shift_buffer, 0, v.shift_value, cycle + 1);
  }
  // Operand position p of ALU a latches into flop a * 2 + p (the
  // multiplier lives on ALU0).
  for (std::size_t p = 0; p < rs.n_src && p < 2; ++p) {
    const std::size_t latch = static_cast<std::size_t>(alu_index) * 2 + p;
    emit(component::alu_in_latch, static_cast<std::uint8_t>(latch),
         alu_latch_state_[latch], v.src[p], cycle + 1);
    alu_latch_state_[latch] = v.src[p];
  }
  emit_weight(component::alu_out, static_cast<std::uint8_t>(alu_index),
              result, rs.is_mul ? complete_at - 1 : complete_at);
  return complete_at;
}

// ---------------------------------------------------------------------------
// Rename: in-order front end, architectural execution
// ---------------------------------------------------------------------------

void ooo_core::dispatch_to_rs(const rs_entry& rs, const rs_values& values,
                              std::uint32_t rob_slot) {
  std::size_t slot = 0;
  if (fast_) {
    slot = ctl_.free_rs_slot();
    ctl_.dispatch(rs, rob_slot, slot);
  } else {
    // Reference allocation: first free slot by index (rename_one checks
    // that one exists).
    while (ctl_.rs[slot].busy) {
      ++slot;
    }
    ctl_.rs[slot] = rs;
    ctl_.rs[slot].busy = true;
    ctl_.rs[slot].rob_slot = rob_slot;
    ++ctl_.rs_used;
  }
  rs_values_[slot] = values;
}

void ooo_core::write_rat(rob_entry& entry, std::uint32_t rob_slot, reg rd,
                         std::uint32_t value, int group_slot) {
  const std::uint8_t tag = ctl_.rename_dest(entry, isa::index_of(rd));
  rob_value_[rob_slot] = value;
  // RAT write port: the new tag replaces the old mapping.
  const auto lane = static_cast<std::uint8_t>(group_slot % ooo_control::ports);
  emit(component::rat_port, lane, rat_port_state_[lane], tag, ctl_.cycle);
  rat_port_state_[lane] = tag;
}

template <bool wrong_path>
ooo_core::rename_result ooo_core::rename_one(int slot) {
  // One body for both paths.  The wrong path runs the same stalls, the
  // same ROB/RAT/RS allocation and the same activity emission, but on the
  // shadow register view, and NEVER touches state_, memory_ or predictor
  // tables.  Each test of `wrong_path` is resolved at compile time, so
  // the correct-path instantiation — the per-trace hot loop — carries no
  // per-instruction mode test.
  auto& regs = wrong_path ? spec_regs_ : state_.regs;
  isa::flags& flags = wrong_path ? spec_flags_ : state_.f;
  std::size_t& pc = wrong_path ? spec_pc_ : state_.pc;

  const std::size_t index = pc;
  const instruction& ins = prog_->code[index];
  const bool serializing = ins.op == opcode::mark || ins.op == opcode::halt;
  if constexpr (wrong_path) {
    if (serializing) {
      // Serializing µops wait for an empty machine, which an unresolved
      // branch makes impossible: wrong-path fetch parks until the flush.
      spec_fetch_done_ = true;
      return rename_result::stall;
    }
  }

  // All structural stalls are checked before any architectural effect so
  // that a stalled instruction re-renames cleanly next cycle.
  if (ctl_.rename_stalls(serializing, slot)) {
    return rename_result::stall; // marks/halt drain the machine first
  }

  // Fetch: the I-cache sees one access per renamed instruction, on the
  // wrong path too — speculative fetch pollutes (and can be stalled by)
  // the same front-end state.
  const int penalty = icache_.access(prog_->address_of(index));
  if (penalty > 0) {
    ctl_.fetch_ready = ctl_.cycle + static_cast<std::uint64_t>(penalty);
    return rename_result::stall;
  }

  const std::uint32_t rob_slot = ctl_.rob_tail();
  rob_entry entry;
  entry.seq = ctl_.next_seq;
  rob_value_[rob_slot] = 0;

  const bool exec = isa::condition_passes(ins.cond, flags);
  std::size_t next_pc = index + 1;

  const auto read = [&regs](reg r) { return regs[isa::index_of(r)]; };
  const auto write = [&regs](reg r, std::uint32_t value) {
    regs[isa::index_of(r)] = value;
  };
  const auto rename_dest = [&](reg rd, std::uint32_t value) {
    write_rat(entry, rob_slot, rd, value, slot);
  };

  // RS-bound instruction under construction.
  rs_entry rs;
  rs_values vals;
  rs.seq = entry.seq;
  bool to_rs = false;
  bool redirected = false;
  const auto add_src = [&](reg r) {
    rs.src_preg[rs.n_src] = ctl_.source_tag(isa::index_of(r));
    vals.src[rs.n_src] = read(r);
    ++rs.n_src;
  };
  const auto wait_flags = [&] { rs.flags_wait_slot = ctl_.flags_wait(); };

  // --- simulator pseudo-ops (correct path only: the wrong path parked) ---
  if (ins.op == opcode::mark) {
    entry.is_mark = true;
    entry.mark_id = ins.imm16;
    entry.completed = true;
    pc = next_pc;
  } else if (ins.op == opcode::halt) {
    entry.is_halt = true;
    entry.completed = true;
    // pc intentionally left on the halt: the machine stops at commit.
  } else if (isa::is_nop(ins)) {
    // The canonical nop renames (it occupies a ROB slot) but touches no
    // rename/issue datapath: the OoO engine does not reuse the A7's
    // bus-zeroizing nop implementation.
    entry.completed = true;
    pc = next_pc;
  } else if (isa::is_branch(ins)) {
    if constexpr (wrong_path) {
      // Wrong-path branches steer wrong-path fetch by prediction alone:
      // read-only predictor queries (tables learn nothing from a path
      // that never resolves) and no nested checkpoints — the one
      // in-flight mispredict flushes everything younger than itself.
      const auto pc32 = static_cast<std::uint32_t>(index);
      bool taken_pred = true;
      if (ins.cond != isa::condition::al) {
        std::uint32_t target_hint = pc32 + 1;
        if (ins.op != opcode::bx) {
          target_hint = static_cast<std::uint32_t>(
              static_cast<std::int64_t>(index) + 1 + ins.branch_offset);
        }
        const auto dir = predictor_.predict_conditional(pc32, target_hint);
        emit_bp_table(0, dir.table_bus);
        taken_pred = dir.taken;
      }
      if (taken_pred) {
        if (ins.op == opcode::bx) {
          if (ins.op2.rm == reg::lr) {
            const auto p = predictor_.peek_return();
            emit_btb_port(1, p.target_bus);
            next_pc = p.target;
          } else {
            const auto p = predictor_.predict_indirect(pc32);
            emit_btb_port(0, p.target_bus);
            next_pc = p.has_target ? p.target : index + 1;
          }
        } else {
          next_pc = static_cast<std::size_t>(
              static_cast<std::int64_t>(index) + 1 + ins.branch_offset);
          if (ins.op == opcode::bl) {
            const std::uint32_t link =
                prog_->address_of(index) + 4; // link of the next slot
            rename_dest(reg::lr, link);
            ctl_.preg_ready[entry.dest_preg] = 1;
            write(reg::lr, link);
          }
        }
      }
      entry.completed = true;
    } else {
      // Branches resolve at rename (the perfect-prediction analogue of
      // the in-order model); bl's link value is known immediately.  Under
      // a real predictor the resolved outcome is compared against the
      // prediction below: a mispredict leaves this entry incomplete and
      // sends the front end down the predicted (wrong) path until
      // resolve_mispredict() flushes it.
      if (ins.op == opcode::bx) {
        const std::uint32_t target = read(ins.op2.rm);
        if (exec) {
          const auto target_index = prog_->index_of_address(target);
          if (!target_index) {
            // Return past the outermost frame: the front end stops and
            // the machine drains to a halt (no speculation on the drain —
            // wrong-path fetch past the program's end is not modelled).
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
            static_cast<std::int64_t>(index) + 1 + ins.branch_offset);
        if (ins.op == opcode::bl) {
          const std::uint32_t link = prog_->address_of(index + 1);
          rename_dest(reg::lr, link);
          ctl_.preg_ready[entry.dest_preg] = 1; // value known at rename
          write(reg::lr, link);
        }
        next_pc = target;
      }
      bool mispredicted = false;
      if (spec_enabled_) [[unlikely]] {
        predict_branch(ins, index, exec, next_pc, rob_slot, entry.seq);
        mispredicted = wrong_path_ && spec_branch_seq_ == entry.seq;
      }
      redirected = next_pc != index + 1;
      if (redirected && !config().perfect_branch_prediction) {
        ctl_.fetch_ready =
            ctl_.cycle + 1 +
            static_cast<std::uint64_t>(config().branch_mispredict_penalty);
      }
      // A mispredicted branch stays incomplete until the recovery flush:
      // retirement stalls at it, so no wrong-path µop can ever commit.
      entry.completed = !mispredicted;
    }
    pc = next_pc;
  } else if (isa::is_memory(ins)) {
    add_src(ins.mem.base);
    const std::uint32_t base = read(ins.mem.base);
    std::uint32_t offset = ins.mem.offset_imm;
    if (ins.mem.reg_offset) {
      add_src(ins.mem.offset_reg);
      offset = read(ins.mem.offset_reg) << ins.mem.offset_shift;
    }
    const std::uint32_t address =
        ins.mem.subtract ? base - offset : base + offset;
    vals.address = address;
    rs.uses_lsu = true;
    rs.is_subword = isa::is_subword(ins);
    if (isa::reads_flags(ins)) {
      wait_flags(); // predicated memory ops schedule behind the flags
    }

    // Predication on an OoO core is a select µop: the old destination is
    // a real source, a new physical register is written, and the LSU trip
    // happens either way — the schedule cannot depend on the condition's
    // outcome (only the datapath events can).
    vals.squashed = !exec;
    if (isa::is_load(ins)) {
      if (ins.cond != isa::condition::al) {
        add_src(ins.rd); // select µop reads the old destination
      }
      std::uint32_t value = read(ins.rd); // kept on a failed condition
      if (exec) {
        // Wrong-path loads read real memory too (every older store
        // already executed architecturally at rename — perfect
        // store-to-load forwarding), with forced alignment: a wrong-path
        // address is arbitrary and must not fault the simulator.
        switch (ins.op) {
        case opcode::ldr:
          value = memory_.read32(wrong_path ? address & ~3U : address);
          break;
        case opcode::ldrb:
          value = memory_.read8(address);
          break;
        case opcode::ldrh:
          value = memory_.read16(wrong_path ? address & ~1U : address);
          break;
        default:
          break;
        }
        vals.mem_word = memory_.containing_word(address);
      }
      rename_dest(ins.rd, value);
      write(ins.rd, value);
      rs.is_load = true;
      vals.sub_value = value;
    } else {
      const std::uint32_t data = read(ins.rd);
      add_src(ins.rd); // store data is a register source
      if (exec) {
        // Wrong-path stores write nothing — not memory, not a forwarding
        // buffer (younger wrong-path loads see stale memory; documented
        // simplification).  The MDR still observes the target word.
        if constexpr (!wrong_path) {
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
        }
        vals.mem_word = memory_.containing_word(address);
        vals.sub_value =
            ins.op == opcode::strb ? (data & 0xffU) : (data & 0xffffU);
      }
      rs.is_store = true;
      // A squashed store still occupies its store-buffer slot at commit
      // (the drain probes the computed address; memory is untouched).
      entry.is_store = true;
      rob_store_addr_[rob_slot] = address;
      rob_value_[rob_slot] = data;
      entry.has_value = true;
    }
    to_rs = true;
    pc = next_pc;
  } else if (ins.op == opcode::mul || ins.op == opcode::mla) {
    add_src(ins.rn);
    add_src(ins.op2.rm);
    std::uint32_t acc = 0;
    if (ins.op == opcode::mla) {
      add_src(ins.ra);
      acc = read(ins.ra);
    }
    if (isa::reads_flags(ins)) {
      wait_flags();
    }
    if (ins.cond != isa::condition::al) {
      add_src(ins.rd); // select µop reads the old destination
    }
    rs.is_mul = true;
    rs.needs_alu0 = true;
    vals.squashed = !exec;
    const std::uint32_t result =
        exec ? read(ins.rn) * read(ins.op2.rm) + acc : read(ins.rd);
    rename_dest(ins.rd, result);
    write(ins.rd, result);
    if (ins.set_flags) {
      if (exec) {
        flags.n = (result >> 31) != 0;
        flags.z = result == 0;
      }
      // The flag rename happens either way: younger flag readers wait on
      // this µop independent of the condition's outcome (on the wrong
      // path the flush restores it from the checkpoint).
      ctl_.flags_producer_slot = rob_slot;
    }
    to_rs = true;
    pc = next_pc;
  } else {
    // Data processing (incl. movw/movt and standalone shifts).
    const bool has_rn = !(ins.op == opcode::mov || ins.op == opcode::mvn ||
                          ins.op == opcode::movw || ins.op == opcode::movt);
    std::uint32_t rn_value = 0;
    if (has_rn) {
      add_src(ins.rn);
      rn_value = read(ins.rn);
    }

    std::uint32_t result = 0;
    alu_result dp{};
    bool writes_result = true;
    bool flags_op = false;
    if (ins.op == opcode::movw) {
      result = ins.imm16;
    } else if (ins.op == opcode::movt) {
      add_src(ins.rd);
      result = (read(ins.rd) & 0xffffU) |
               (static_cast<std::uint32_t>(ins.imm16) << 16);
    } else {
      const operand2_value op2 = eval_operand2(ins, read, flags.c);
      if (ins.op2.k == isa::operand2::kind::reg_shifted) {
        add_src(ins.op2.rm);
        if (ins.op2.shift.by_register) {
          add_src(ins.op2.shift.amount_reg);
        }
      }
      rs.used_shifter = op2.used_shifter;
      vals.shift_value = op2.value;
      rs.needs_alu0 = op2.used_shifter;
      dp = execute_dp(ins.op, rn_value, op2.value, op2.carry, flags);
      result = dp.value;
      writes_result = dp.writes_result;
      flags_op = isa::writes_flags(ins);
    }

    if (isa::reads_flags(ins)) {
      wait_flags();
    }
    // Select-µop predication (see the memory path): old destination as a
    // source, destination and flag renames independent of the outcome.
    vals.squashed = !exec;
    if (writes_result) {
      if (ins.cond != isa::condition::al && ins.op != opcode::movt) {
        add_src(ins.rd);
      }
      const std::uint32_t committed = exec ? result : read(ins.rd);
      rename_dest(ins.rd, committed);
      write(ins.rd, committed);
    }
    if (flags_op) {
      if (exec) {
        flags = dp.f;
      }
      ctl_.flags_producer_slot = rob_slot;
    }
    to_rs = true;
    pc = next_pc;
  }

  ctl_.accept(entry, rob_slot);
  if (to_rs) {
    dispatch_to_rs(rs, vals, rob_slot);
  }
  ++(wrong_path ? wrong_path_renamed_ : renamed_);

  if (pc >= prog_->code.size() && !entry.is_halt) {
    // The front end (or the wrong path) ran off the program's end.
    (wrong_path ? spec_fetch_done_ : ctl_.frontend_done) = true;
    return rename_result::accepted_stop;
  }
  if (redirected && !config().perfect_branch_prediction) {
    // The mispredict flush consumed the rest of the group (the in-order
    // model's "the redirect consumed the slot" rule); fetch_ready_
    // already carries the penalty.
    return rename_result::accepted_stop;
  }
  if (serializing) {
    return rename_result::accepted_stop;
  }
  return rename_result::accepted;
}

// ---------------------------------------------------------------------------
// Speculation: prediction and recovery flush
// ---------------------------------------------------------------------------

void ooo_core::emit_bp_table(std::uint8_t lane, std::uint32_t value) {
  emit(component::bp_table, lane, bp_table_state_[lane], value, ctl_.cycle);
  bp_table_state_[lane] = value;
}

void ooo_core::emit_btb_port(std::uint8_t lane, std::uint32_t value) {
  emit(component::btb_port, lane, btb_port_state_[lane], value, ctl_.cycle);
  btb_port_state_[lane] = value;
}

void ooo_core::predict_branch(const instruction& ins, std::size_t pc_index,
                              bool exec, std::size_t actual_next,
                              std::uint32_t rob_slot, std::uint32_t seq) {
  const auto pc32 = static_cast<std::uint32_t>(pc_index);
  const bool conditional = ins.cond != isa::condition::al;
  const bool is_return =
      ins.op == opcode::bx && ins.op2.rm == reg::lr;

  // Direction: unconditional branches are always "taken" to the decoder;
  // conditional ones consult the direction predictor.  For conditional
  // indirect branches the displacement hint is the fall-through index, so
  // static BTFN predicts not-taken — a front end cannot see an indirect
  // target's direction.
  bool taken_pred = true;
  if (conditional) {
    std::uint32_t target_hint = pc32 + 1;
    if (ins.op != opcode::bx) {
      target_hint = static_cast<std::uint32_t>(
          static_cast<std::int64_t>(pc_index) + 1 + ins.branch_offset);
    }
    const auto dir = predictor_.predict_conditional(pc32, target_hint);
    emit_bp_table(0, dir.table_bus);
    taken_pred = dir.taken;
  }

  // Target: returns pop the RSB, other indirects consult the BTB, direct
  // branches decode their displacement.
  std::size_t predicted = pc_index + 1;
  if (taken_pred) {
    if (is_return) {
      const auto p = predictor_.pop_return();
      emit_btb_port(1, p.target_bus);
      predicted = p.target;
    } else if (ins.op == opcode::bx) {
      const auto p = predictor_.predict_indirect(pc32);
      emit_btb_port(0, p.target_bus);
      predicted = p.has_target ? p.target : pc_index + 1;
    } else {
      predicted = static_cast<std::size_t>(
          static_cast<std::int64_t>(pc_index) + 1 + ins.branch_offset);
    }
  } else if (is_return && exec) {
    // Direction-mispredicted return: the RSB still balances its bl at
    // resolve (a silent repair pop; no prediction came off it).
    predictor_.pop_return();
  }

  // Learn the resolved outcome (correct-path branches only).
  if (conditional) {
    emit_bp_table(1, predictor_.update_conditional(pc32, exec));
  }
  if (ins.op == opcode::bl && exec) {
    emit_btb_port(
        1, predictor_.push_return(static_cast<std::uint32_t>(pc_index + 1)));
  }
  if (ins.op == opcode::bx && !is_return && exec) {
    emit_btb_port(0, predictor_.update_indirect(
                         pc32, static_cast<std::uint32_t>(actual_next)));
  }

  if (predicted == actual_next) {
    return;
  }

  // Mispredict: fetch follows the predicted (wrong) path until the branch
  // resolves resolve_latency cycles from now.  The wrong path executes
  // against a shadow copy of the architectural registers/flags seeded
  // here — wrong-path dataflow is exact (loads read real memory, which
  // already holds every older store) without touching state_.
  ++mispredicts_;
  wrong_path_ = true;
  spec_pc_ = predicted;
  spec_fetch_done_ = predicted >= prog_->code.size();
  spec_branch_slot_ = rob_slot;
  spec_branch_seq_ = seq;
  spec_resolve_at_ =
      ctl_.cycle + static_cast<std::uint64_t>(spec_.resolve_latency);
  ckpt_flags_slot_ = ctl_.flags_producer_slot;
  ckpt_flags_seq_ = ckpt_flags_slot_ != no_slot
                        ? ctl_.rob[ckpt_flags_slot_].seq
                        : 0;
  spec_regs_ = state_.regs;
  spec_flags_ = state_.f;
}

void ooo_core::resolve_mispredict() {
  ctl_.squash_younger(spec_branch_slot_, spec_branch_seq_, ckpt_flags_slot_,
                      ckpt_flags_seq_);
  std::erase_if(exec_, [this](const exec_entry& ex) {
    return ex.seq > spec_branch_seq_;
  });
  // The branch resolves: it may now retire, and fetch resumes from the
  // architectural pc, which always held the correct next index.
  ctl_.rob[spec_branch_slot_].completed = true;
  wrong_path_ = false;
  spec_fetch_done_ = false;
  spec_branch_slot_ = no_slot;
}

void ooo_core::rename_stage() {
  const std::size_t end = prog_->code.size();
  ctl_.rename(!wrong_path_ && state_.pc >= end, [this, end](int slot) {
    if (wrong_path_) [[unlikely]] {
      // The front end cannot tell it mispredicted: fetch continues down
      // the predicted path — possibly in the same rename group as the
      // branch — until the resolve-cycle flush.
      return spec_fetch_done_ ? rename_result::stall
                              : rename_one<true>(slot);
    }
    return state_.pc < end ? rename_one<false>(slot) : rename_result::stall;
  });
}

bool ooo_core::step_cycle() {
  if (state_.halted) {
    return false;
  }
  ctl_.cycle_dirty = false;
  if (wrong_path_ && ctl_.cycle >= spec_resolve_at_) [[unlikely]] {
    // The branch resolves at the top of the cycle: the flush happens
    // before retirement (the resolved branch may commit this cycle) and
    // before rename (correct-path fetch restarts this cycle).
    resolve_mispredict();
  }
  retire_stage();
  if (state_.halted) {
    ++ctl_.cycle;
    return false;
  }
  ctl_.drain_store_buffer(
      [this](std::size_t entry) { dcache_.access(sb_addr_[entry]); });
  if (fast_) {
    ctl_.broadcast([this](std::uint8_t bus, const exec_entry& done) {
      drive_cdb(bus, done);
    });
    ctl_.select([this](std::size_t slot, int alu_index) {
      return issue_entry(slot, alu_index);
    });
  } else {
    broadcast_stage();
    schedule_stage();
  }
  rename_stage();
  // The recovery flush is a scheduled event: a fully stalled wrong path
  // (parked fetch, empty pipeline) must still wake up to resolve.
  if (ctl_.end_cycle(fast_,
                     wrong_path_ ? spec_resolve_at_ : ooo_control::never)) {
    state_.halted = true;
  }
  return !state_.halted;
}

} // namespace usca::sim
