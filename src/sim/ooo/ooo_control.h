// Shared control of the fast out-of-order scheduler: register rename and
// free list, the circular ROB, reservation stations with tag-indexed
// wakeup and oldest-first select, the completion calendar with CDB
// arbitration, in-order commit, the store-buffer ring, the mispredict
// squash and the idle-cycle skip.
//
// Select-µop predication makes all of this independent of data (see
// ooo_core.h), so one implementation serves both fast OoO cores:
// sim::ooo_core (one trace, scalar values) and sim::batch_ooo_core (N
// lanes, lane-major values) each hold one instance and keep only their
// datapath — operand and result values, emission, architectural
// execution, cache probes and lane agreement.  The datapath plugs in
// through template member functions taking callables (retire, broadcast,
// select, rename), so the per-cycle loops still inline into each core;
// nothing here knows which core calls it.
//
// Fast-scheduler structures:
//
//   * a 64-bit ready bitmask over an age-ordered ring indexed by seq mod
//     64 (oldest-first select via masked rotate + countr_zero);
//   * per-physical-tag and per-ROB-slot waiter lists, so a CDB write or a
//     flag completion touches only its dependents;
//   * a 64-bucket completion calendar wheel (plus a far list beyond its
//     horizon) and a seq-sorted pending list, making CDB arbitration
//     O(cdb_width) per cycle;
//   * the idle-cycle skip, which jumps straight to the next scheduled
//     event when a cycle did no observable work.
//
// ooo_core's reference scan scheduler (the differential oracle) shares
// the rename, ROB, RS, commit and store-buffer state of its instance but
// keeps its own select, wakeup and CDB arbitration; the fast-only
// structures then stay empty.
#ifndef USCA_SIM_OOO_OOO_CONTROL_H
#define USCA_SIM_OOO_OOO_CONTROL_H

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "isa/instruction.h"
#include "sim/micro_arch_config.h"

namespace usca::sim {

class ooo_control {
public:
  static constexpr std::uint8_t no_reg = 0xff;
  static constexpr std::uint32_t no_slot = 0xffffffffU;
  static constexpr std::uint64_t never = ~std::uint64_t{0};
  static constexpr std::size_t max_sources = 4;
  static constexpr std::uint32_t age_ring_size = 64;
  /// Modelled PRF read ports, and modelled RAT/CDB/tag-bus/retire ports.
  static constexpr int prf_ports = 8;
  static constexpr int ports = 4;

  struct rob_entry {
    std::uint32_t seq = 0;          ///< rename order (age)
    std::uint8_t dest_arch = no_reg;
    std::uint8_t dest_preg = no_reg;
    std::uint8_t old_preg = no_reg; ///< freed when this entry retires
    bool completed = false;
    bool has_value = false; ///< drives a retire port when committing
    bool is_store = false;
    bool is_mark = false;
    bool is_halt = false;
    std::uint16_t mark_id = 0;
  };

  struct rs_entry {
    bool busy = false;
    std::uint32_t rob_slot = no_slot;
    std::uint32_t seq = 0;
    std::uint8_t n_src = 0;
    std::array<std::uint8_t, max_sources> src_preg{}; ///< no_reg = ready
    std::uint32_t flags_wait_slot = no_slot; ///< ROB slot of flag producer
    bool needs_alu0 = false;
    bool is_mul = false;
    bool uses_lsu = false; ///< competes for the LSU pipe (incl. squashed)
    bool is_load = false;
    bool is_store = false;
    bool is_subword = false;
    bool used_shifter = false;
    /// Outstanding operand count (not-ready sources + a pending flag
    /// producer); maintained by the fast scheduler only — the entry's
    /// ready bit is set when it reaches zero.
    std::uint8_t wait_count = 0;
  };

  struct exec_entry {
    std::uint64_t complete_at = 0;
    std::uint32_t rob_slot = no_slot;
    std::uint32_t seq = 0;
    std::uint8_t dest_preg = no_reg;
    bool broadcasts = false; ///< consumes a CDB lane (dest-writing ops)
  };

  enum class rename_result : std::uint8_t {
    stall,         ///< nothing accepted; the front end retries next cycle
    accepted,      ///< renamed; the group may continue this cycle
    accepted_stop, ///< renamed, but the group closes (serialize / redirect)
  };

  /// Sizes every structure for `config`; throws util::simulation_error
  /// when its ooo_config cannot be modelled (widths, port counts, the
  /// 64-entry sizing cap, the PRF size).
  explicit ooo_control(const micro_arch_config& config);

  const micro_arch_config& config() const noexcept { return config_; }

  /// The freshly-constructed control state (no reallocation).
  void reset();

  // --- rename -------------------------------------------------------------
  /// Structural stall of the next rename: a full ROB/RS/free list, or a
  /// serializing µop (mark, halt) that waits for an empty machine and the
  /// head of a rename group.
  bool rename_stalls(bool serializing, int group_slot) const noexcept {
    if (serializing && (rob_count > 0 || group_slot > 0 ||
                        !in_flight_empty() || rs_used > 0)) {
      return true;
    }
    return rob_count >= rob.size() || rs_used >= rs.size() ||
           free_pregs.empty();
  }
  /// ROB slot the next renamed µop occupies.
  std::uint32_t rob_tail() const noexcept {
    return static_cast<std::uint32_t>((rob_head + rob_count) % rob.size());
  }
  /// Wakeup tag of architectural source `arch`: its physical register, or
  /// no_reg when the value is already produced.
  std::uint8_t source_tag(std::uint8_t arch) const noexcept {
    const std::uint8_t preg = rat[arch];
    return preg_ready[preg] ? no_reg : preg;
  }
  /// ROB slot of the in-flight flag producer a flag reader waits on.
  std::uint32_t flags_wait() const noexcept {
    return flags_producer_slot != no_slot && !rob[flags_producer_slot].completed
               ? flags_producer_slot
               : no_slot;
  }
  /// Renames the destination of `e` to a fresh physical register (the
  /// old mapping is freed when `e` retires); returns the new tag.
  std::uint8_t rename_dest(rob_entry& e, std::uint8_t arch) {
    e.dest_arch = arch;
    e.old_preg = rat[arch];
    e.dest_preg = free_pregs.back();
    free_pregs.pop_back();
    preg_ready[e.dest_preg] = 0;
    rat[arch] = e.dest_preg;
    e.has_value = true;
    return e.dest_preg;
  }
  /// Places `e` at the ROB tail slot `slot` and consumes its seq.
  void accept(const rob_entry& e, std::uint32_t slot) {
    rob[slot] = e;
    ++rob_count;
    ++next_seq;
  }
  /// RS slot the next fast-scheduler dispatch takes: the lowest free one.
  std::size_t free_rs_slot() const noexcept {
    return static_cast<std::size_t>(std::countr_zero(~rs_busy_mask_));
  }
  /// Fast-scheduler dispatch of `entry` into RS slot `slot`: subscribes it
  /// to the producers it waits on, or marks it ready at once.
  void dispatch(const rs_entry& entry, std::uint32_t rob_slot,
                std::size_t slot);
  /// The rename stage: up to rename_width calls of `rename_one(group_slot)`
  /// per cycle, until one stalls or closes the group.  `at_end` — the
  /// front end fell off the program without a halt — ends fetching.
  template <typename RenameFn>
  void rename(bool at_end, RenameFn&& rename_one) {
    if (frontend_done || cycle < fetch_ready) {
      return;
    }
    if (at_end) {
      frontend_done = true;
      return;
    }
    int renamed_now = 0;
    while (renamed_now < config_.ooo.rename_width) {
      const rename_result r = rename_one(renamed_now);
      if (r == rename_result::stall) {
        break;
      }
      ++renamed_now;
      if (r == rename_result::accepted_stop) {
        break;
      }
    }
    cycle_dirty |= renamed_now > 0;
    if (renamed_now >= 2) {
      ++multi_rename_cycles;
    }
  }

  // --- select + issue -----------------------------------------------------
  /// PRF read-port budget: 2 per issue slot, but never below the 4 ports
  /// the widest µop consumes (a predicated mla reads rn, rm, ra and the
  /// old destination) — an issue_width-1 core must still be able to issue
  /// it.
  int prf_port_budget() const noexcept {
    return std::min(std::max(4, 2 * config_.issue_width), prf_ports);
  }
  /// Unit/port eligibility of `entry` this cycle (shared by both select
  /// implementations; the readiness check differs).
  bool rs_fits_units(const rs_entry& entry, int port_budget, int alus_used,
                     bool alu0_used, bool lsu_used) const noexcept {
    if (prf_ports_used + static_cast<int>(entry.n_src) > port_budget) {
      return false;
    }
    if (entry.uses_lsu) {
      return !(lsu_used || lsu_busy_until > cycle);
    }
    if (entry.is_mul && mul_busy_until > cycle) {
      return false;
    }
    if (alus_used >= config_.alu_count) {
      return false;
    }
    return !(entry.needs_alu0 && alu0_used);
  }
  /// Completion cycle of `entry` issuing now, occupying its unit.  A load
  /// adds its D-cache `load_penalty`.  Squashed (condition-failed) ops
  /// take the same trip as their executed variant, so the schedule is
  /// independent of condition outcomes.
  std::uint64_t occupy_units(const rs_entry& entry, int load_penalty) {
    if (entry.is_load) {
      const std::uint64_t done =
          cycle + static_cast<std::uint64_t>(config_.lsu_latency +
                                             load_penalty);
      if (!config_.lsu_pipelined) {
        lsu_busy_until = done;
      } else if (load_penalty > 0) {
        lsu_busy_until = cycle + static_cast<std::uint64_t>(load_penalty);
      }
      return done;
    }
    if (entry.is_store) {
      // Address/data move into the store queue; the D-cache access
      // happens at drain, after commit.
      return cycle + 1;
    }
    if (entry.is_mul) {
      const std::uint64_t done =
          cycle + static_cast<std::uint64_t>(config_.mul_latency);
      if (!config_.mul_pipelined) {
        mul_busy_until = done;
      }
      return done;
    }
    return cycle + 1 +
           (entry.used_shifter
                ? static_cast<std::uint64_t>(config_.shift_extra_latency)
                : 0);
  }
  /// Frees RS slot `slot` of a µop issued now, completing at
  /// `complete_at`, and returns its in-flight entry.
  exec_entry issued(std::size_t slot, std::uint64_t complete_at) {
    rs_entry& entry = rs[slot];
    exec_entry ex;
    ex.complete_at = complete_at;
    ex.rob_slot = entry.rob_slot;
    ex.seq = entry.seq;
    ex.dest_preg = rob[entry.rob_slot].dest_preg;
    ex.broadcasts = ex.dest_preg != no_reg;
    entry.busy = false;
    --rs_used;
    rs_busy_mask_ &= ~(std::uint64_t{1} << slot);
    ready_mask_ &= ~(std::uint64_t{1} << (entry.seq & (age_ring_size - 1)));
    return ex;
  }
  /// Fast select: oldest-first among ready entries that fit the free
  /// units, up to issue_width per cycle.  `issue(rs_slot, alu_index)`
  /// drives the datapath of the pick (alu_index: the ALU it is bound to,
  /// 0 or 1; meaningless for LSU ops) and returns its completion cycle.
  template <typename IssueFn>
  void select(IssueFn&& issue) {
    prf_ports_used = 0;
    if (ready_mask_ == 0) {
      return;
    }
    const int port_budget = prf_port_budget();
    int issued_now = 0;
    int alus_used = 0;
    bool alu0_used = false;
    bool lsu_used = false;

    // A resident RS entry implies a non-empty ROB, whose head carries the
    // oldest in-flight sequence number — the rotation anchor that turns
    // the seq-mod-64 ring into an age order.
    const std::uint32_t head_pos = rob[rob_head].seq & (age_ring_size - 1);
    while (issued_now < config_.issue_width && ready_mask_ != 0) {
      // Rotate the ready mask so bit 0 is the oldest possible µop, then
      // walk set bits in age order until one fits the free units — the
      // same pick as the reference's min-seq scan.
      std::uint64_t m = std::rotr(ready_mask_, static_cast<int>(head_pos));
      std::size_t pick = rs.size();
      while (m != 0) {
        const auto offset = static_cast<std::uint32_t>(std::countr_zero(m));
        const std::size_t slot =
            age_to_slot_[(head_pos + offset) & (age_ring_size - 1)];
        if (rs_fits_units(rs[slot], port_budget, alus_used, alu0_used,
                          lsu_used)) {
          pick = slot;
          break;
        }
        m &= m - 1;
      }
      if (pick == rs.size()) {
        break;
      }
      int alu_index = 0;
      if (rs[pick].uses_lsu) {
        lsu_used = true;
      } else {
        ++alus_used;
        // ALU binding mirrors the in-order slot rule: ALU0 first (it is
        // the only one with the shifter/multiplier), then ALU1.  Lanes
        // are modelled for two ALUs; further units alias ALU1's latches.
        if (rs[pick].needs_alu0 || !alu0_used) {
          alu0_used = true;
        } else {
          alu_index = 1;
        }
      }
      add_exec(issued(pick, issue(pick, alu_index)));
      ++issued_now;
    }
    cycle_dirty |= issued_now > 0;
  }

  // --- completion broadcast (CDB) ----------------------------------------
  /// Fast completion: everything scheduled to finish now leaves the
  /// calendar; results that need a CDB lane queue seq-sorted and the CDB
  /// lanes pop them oldest-first — the reference's per-lane scan outcome
  /// at O(cdb_width) per cycle.  `on_cdb(bus, done)` drives the datapath
  /// of each broadcast before its dependents wake up.
  template <typename OnCdb>
  void broadcast(OnCdb&& on_cdb) {
    drain_wheel();
    const auto lanes = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(config_.ooo.cdb_width),
        pending_bcast_.size()));
    for (int lane = 0; lane < lanes; ++lane) {
      const exec_entry done = pending_bcast_.back();
      pending_bcast_.pop_back();
      cycle_dirty = true;
      on_cdb(static_cast<std::uint8_t>(lane % ports), done);
      preg_ready[done.dest_preg] = 1;
      // Tag-indexed wakeup: only the registered dependents are touched.
      auto& waiters = preg_waiters_[done.dest_preg];
      for (const std::uint16_t w : waiters) {
        rs[w >> 2].src_preg[w & 3] = no_reg;
        deliver_operand(w >> 2);
      }
      waiters.clear();
      complete_rob(done.rob_slot);
    }
  }

  // --- commit -------------------------------------------------------------
  /// In-order commit of up to retire_width completed µops; a store also
  /// needs a free store-buffer entry.  `commit(rob_slot, port)` drives the
  /// datapath of each (port: the retire port, for a value-carrying
  /// entry) and returns true when the machine halts there.
  template <typename CommitFn>
  void retire(CommitFn&& commit) {
    const auto sb_capacity =
        static_cast<std::size_t>(config_.ooo.store_buffer_entries);
    int retired_now = 0;
    bool halted = false;
    while (rob_count > 0 && retired_now < config_.ooo.retire_width &&
           !halted) {
      rob_entry& head = rob[rob_head];
      if (!head.completed || (head.is_store && sb_count >= sb_capacity)) {
        break; // incomplete head, or store buffer full: commit stalls
      }
      halted = commit(rob_head, static_cast<std::uint8_t>(retired_now % ports));
      if (head.dest_arch != no_reg && head.old_preg != no_reg) {
        free_pregs.push_back(head.old_preg);
      }
      if (flags_producer_slot == static_cast<std::uint32_t>(rob_head)) {
        flags_producer_slot = no_slot; // completed by definition
      }
      head = rob_entry{};
      rob_head = (rob_head + 1) % rob.size();
      --rob_count;
      ++retired;
      ++retired_now;
    }
    cycle_dirty |= retired_now > 0;
  }
  /// Store-buffer entry a committing store fills.
  std::size_t sb_push() noexcept {
    const std::size_t tail =
        (sb_head + sb_count) %
        static_cast<std::size_t>(config_.ooo.store_buffer_entries);
    ++sb_count;
    return tail;
  }
  /// One store per cycle leaves the buffer for the D-cache:
  /// `probe(sb_entry)` makes the access (timing only — the architectural
  /// write happened at rename).
  template <typename ProbeFn>
  void drain_store_buffer(ProbeFn&& probe) {
    if (sb_count == 0) {
      return;
    }
    probe(sb_head);
    sb_head = (sb_head + 1) %
              static_cast<std::size_t>(config_.ooo.store_buffer_entries);
    --sb_count;
    cycle_dirty = true;
  }

  // --- speculation --------------------------------------------------------
  /// Recovery flush of a mispredicted branch in ROB slot `branch_slot`:
  /// walks the ROB tail back to it restoring the RAT and free list,
  /// purges every younger RS entry, waiter and calendar/pending entry,
  /// restores the flag producer checkpointed at the mispredict (slot and
  /// seq; the seq detects a slot that retired and was reused), and
  /// reuses the squashed sequence numbers.  The branch itself stays
  /// incomplete; the caller resolves it.
  void squash_younger(std::uint32_t branch_slot, std::uint32_t branch_seq,
                      std::uint32_t ckpt_flags_slot,
                      std::uint32_t ckpt_flags_seq);

  // --- cycle --------------------------------------------------------------
  /// Closes a cycle whose stages ran.  Returns true when the machine has
  /// drained — front end done, ROB, in-flight ops and store buffer empty
  /// — and halts.  Otherwise the clock advances by one, or, with
  /// `skip_idle` after a cycle that did no observable work, straight to
  /// the next scheduled event (`extra_event`: one the datapath owns).
  bool end_cycle(bool skip_idle, std::uint64_t extra_event = never) {
    const bool drained = frontend_done && rob_count == 0 &&
                         in_flight_empty() && sb_count == 0;
    if (skip_idle && !drained && !cycle_dirty) {
      const std::uint64_t next = next_event_cycle(extra_event);
      idle_skipped += next - cycle - 1;
      cycle = next;
    } else {
      ++cycle;
    }
    return drained;
  }

  // Control state the datapaths read and write directly.
  std::array<std::uint8_t, isa::num_registers> rat{};
  std::vector<std::uint8_t> free_pregs; ///< stack of free physical regs
  std::vector<std::uint8_t> preg_ready; ///< value produced (timing only)
  std::uint32_t next_seq = 0;
  std::uint32_t flags_producer_slot = no_slot;
  bool frontend_done = false;
  std::uint64_t fetch_ready = 0;

  std::vector<rob_entry> rob; ///< circular
  std::size_t rob_head = 0;
  std::size_t rob_count = 0;
  std::vector<rs_entry> rs;
  std::size_t rs_used = 0;
  std::size_t sb_head = 0; ///< post-commit store-buffer ring
  std::size_t sb_count = 0;

  std::uint64_t lsu_busy_until = 0;
  std::uint64_t mul_busy_until = 0;
  int prf_ports_used = 0; ///< PRF read ports driven this cycle

  std::uint64_t cycle = 0;
  bool cycle_dirty = false; ///< any stage did observable work this cycle
  std::uint64_t retired = 0;
  std::uint64_t multi_rename_cycles = 0;
  /// Cycles jumped over as idle; flushed to telemetry once per run.
  std::uint64_t idle_skipped = 0;

private:
  /// Whether no issued µop is still waiting to complete or broadcast.
  bool in_flight_empty() const noexcept {
    return exec_in_flight_ == 0 && pending_bcast_.empty();
  }
  /// Enters an issued µop into the completion calendar.
  void add_exec(const exec_entry& ex) {
    ++exec_in_flight_;
    if (ex.complete_at - cycle < age_ring_size) {
      exec_wheel_[ex.complete_at & (age_ring_size - 1)].push_back(ex);
    } else {
      exec_far_.push_back(ex);
    }
  }
  void deliver_operand(std::size_t slot) noexcept {
    rs_entry& entry = rs[slot];
    if (--entry.wait_count == 0) {
      ready_mask_ |= std::uint64_t{1} << (entry.seq & (age_ring_size - 1));
    }
  }
  void complete_rob(std::uint32_t slot) {
    rob[slot].completed = true;
    auto& waiters = rob_flag_waiters_[slot];
    for (const std::uint8_t rs_slot : waiters) {
      rs[rs_slot].flags_wait_slot = no_slot;
      deliver_operand(rs_slot);
    }
    waiters.clear();
  }
  /// Migrates far completions into range, then empties the current
  /// bucket: non-broadcasting µops complete, the rest join the pending
  /// list.
  void drain_wheel();
  /// Next cycle at which a frozen machine can change state.
  std::uint64_t next_event_cycle(std::uint64_t extra_event) const noexcept;

  micro_arch_config config_;

  std::uint64_t rs_busy_mask_ = 0; ///< bit per RS slot; allocation bitmap
  std::uint64_t ready_mask_ = 0;   ///< bit per age-ring position (seq % 64)
  std::array<std::uint8_t, age_ring_size> age_to_slot_{};
  /// Per-physical-tag wakeup subscriptions: (rs_slot << 2) | src_index.
  std::vector<std::vector<std::uint16_t>> preg_waiters_;
  /// Per-ROB-slot flag-wait subscriptions: rs_slot.
  std::vector<std::vector<std::uint8_t>> rob_flag_waiters_;
  /// Completion calendar: a 64-bucket wheel indexed by complete_at mod 64.
  /// FU latencies (1..lsu_latency + miss penalty) are far below 64
  /// cycles, so insert and drain are O(1); anything scheduled >= 64
  /// cycles out parks in exec_far_ and migrates into the wheel as cycles
  /// advance (normally empty — only reachable with pathological sweep
  /// latencies).
  std::array<std::vector<exec_entry>, age_ring_size> exec_wheel_;
  std::vector<exec_entry> exec_far_;
  std::size_t exec_in_flight_ = 0;        ///< wheel + far entry count
  std::vector<exec_entry> pending_bcast_; ///< completed; seq-descending
};

} // namespace usca::sim

#endif // USCA_SIM_OOO_OOO_CONTROL_H
