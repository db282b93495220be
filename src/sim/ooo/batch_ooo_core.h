// Batched SoA counterpart of sim::ooo_core (fast scheduler only): N
// independent traces advance through ONE rename/wakeup/select/retire
// engine per cycle.
//
// The split follows the select-µop predication design of the per-trace
// core (see ooo_core.h): because predication renames the destination and
// takes the full unit/latency/CDB trip whatever the condition's outcome,
// the *schedule* — rename decisions, RS wakeup and select, CDB
// arbitration, ROB retirement, store-buffer occupancy — is independent
// of lane data, so all of it is shared control run once per batch.  Only
// *values* differ per lane: architectural registers/flags/memory, PRF
// port traffic, ALU latches, CDB result values, retire-port values, MDR/
// align-buffer words — all laid out lane-major next to the shared
// structures that index them (rob_value_[slot * lanes + lane], ...).
//
// Divergence checkpoints (lanes ejected on disagreement, batch_sim.h):
// condition outcomes of branches (cond != al), indirect-branch (bx)
// targets, and D-cache penalties of loads at issue.  Non-branch
// condition outcomes need NO agreement — a lane-local outcome only gates
// lane-local data (memory writes, value selection, flags, the per-lane
// squash mask feeding datapath emissions), never the schedule.
//
// The reference scheduler has no batched counterpart: it exists as the
// differential oracle, and batching it would just be a second fast path.
// Constructing this class under ooo_scheduler::reference (or
// USCA_OOO_REFERENCE=1) throws; campaigns fall back to per-trace cores.
#ifndef USCA_SIM_OOO_BATCH_OOO_CORE_H
#define USCA_SIM_OOO_BATCH_OOO_CORE_H

#include <array>
#include <cstdint>
#include <vector>

#include "asmx/program.h"
#include "mem/cache.h"
#include "mem/memory.h"
#include "sim/batch_sim.h"
#include "sim/cpu_state.h"
#include "sim/micro_arch_config.h"
#include "sim/program_image.h"
#include "sim/uarch_activity.h"

namespace usca::sim {

class batch_ooo_core final : public batch_backend {
public:
  /// Throws util::simulation_error for a structurally invalid ooo_config
  /// or when the reference scheduler is selected/forced (see above).
  explicit batch_ooo_core(program_image image, micro_arch_config config,
                          std::size_t lanes = default_sim_batch_lanes);

  backend_kind kind() const noexcept override { return backend_kind::ooo; }

  void reset() override;
  void run(std::uint64_t max_cycles = 50'000'000) override;

  const micro_arch_config& config() const noexcept { return config_; }

  std::uint64_t cycles() const noexcept override { return cycle_; }
  std::uint64_t instructions_issued() const noexcept override {
    return renamed_;
  }
  std::uint64_t instructions_retired() const noexcept { return retired_; }
  std::uint64_t multi_rename_cycles() const noexcept {
    return multi_rename_cycles_;
  }

private:
  static constexpr std::uint8_t no_reg = 0xff;
  static constexpr std::uint32_t no_slot = 0xffffffffU;
  static constexpr std::size_t max_sources = 4;
  static constexpr std::uint32_t age_ring_size = 64;

  // Shared control twins of the per-trace structs: per-lane value fields
  // (value/store_addr, src_value/address/mem_word/sub_value/shift_value/
  // result, the squash flag) live in the lane-major arrays below instead.
  struct rob_entry {
    std::uint32_t seq = 0;
    std::uint8_t dest_arch = no_reg;
    std::uint8_t dest_preg = no_reg;
    std::uint8_t old_preg = no_reg;
    bool completed = false;
    bool has_value = false;
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
    std::array<std::uint8_t, max_sources> src_preg{};
    std::uint32_t flags_wait_slot = no_slot;
    bool needs_alu0 = false;
    bool is_mul = false;
    bool uses_lsu = false;
    bool is_load = false;
    bool is_store = false;
    bool is_subword = false;
    bool used_shifter = false;
    std::uint8_t wait_count = 0;
  };

  struct exec_entry {
    std::uint64_t complete_at = 0;
    std::uint32_t rob_slot = no_slot;
    std::uint32_t seq = 0;
    std::uint8_t dest_preg = no_reg;
    bool broadcasts = false;
  };

  void validate_config() const;
  void reset_structures();

  void retire_stage();
  void drain_store_buffer();
  void broadcast_stage();
  void schedule_stage();
  void rename_stage();
  void complete_rob(std::uint32_t slot);
  void deliver_operand(std::size_t slot);
  std::uint64_t next_event_cycle() const noexcept;
  bool step_cycle();

  enum class rename_result : std::uint8_t {
    stall,
    accepted,
    accepted_stop,
  };

  rename_result rename_one(int slot);
  bool rs_fits_units(const rs_entry& rs, int prf_ports, int alus_used,
                     bool alu0_used, bool lsu_used) const noexcept;
  void issue_entry(rs_entry& rs, int alu_index);
  void dispatch_to_rs(rs_entry& rs, std::uint32_t rob_slot,
                      std::size_t rs_slot);
  void add_exec(const exec_entry& ex);
  bool in_flight_empty() const noexcept {
    return exec_in_flight_ == 0 && pending_bcast_.empty();
  }
  std::uint8_t alloc_preg();

  /// One PRF read port driven with per-lane values (`values` points at a
  /// lane-major row).
  void drive_prf_port(const std::uint32_t* values);

  /// MDR (and, for sub-word accesses, align buffer) emissions of an
  /// issuing memory µop in RS row `row`, for the `executing` lanes.
  void drive_memory_path(const rs_entry& rs, std::size_t row,
                         std::uint64_t executing);
  /// ALU input latches of ALU `alu_index` driven with the first two of
  /// RS slot `slot`'s `n_src` operands, for the `executing` lanes.
  void drive_alu_latches(std::size_t slot, std::size_t n_src, int alu_index,
                         std::uint64_t executing);

  micro_arch_config config_;

  // Shared rename state.
  std::array<std::uint8_t, isa::num_registers> rat_{};
  std::vector<std::uint8_t> free_pregs_;
  std::vector<std::uint8_t> preg_ready_;
  std::uint32_t next_seq_ = 0;
  std::uint32_t flags_producer_slot_ = no_slot;
  bool frontend_done_ = false;
  std::uint64_t fetch_ready_ = 0;

  // Shared ROB/RS control + lane-major value planes.
  std::vector<rob_entry> rob_;
  std::size_t rob_head_ = 0;
  std::size_t rob_count_ = 0;
  std::vector<std::uint32_t> rob_value_;      // [slot * lanes + lane]
  std::vector<std::uint32_t> rob_store_addr_; // [slot * lanes + lane]
  std::vector<rs_entry> rs_;
  std::size_t rs_used_ = 0;
  /// [(slot * max_sources + src) * lanes + lane]
  std::vector<std::uint32_t> rs_src_value_;
  std::vector<std::uint32_t> rs_address_;     // [slot * lanes + lane]
  std::vector<std::uint32_t> rs_mem_word_;    // [slot * lanes + lane]
  std::vector<std::uint32_t> rs_sub_value_;   // [slot * lanes + lane]
  std::vector<std::uint32_t> rs_shift_value_; // [slot * lanes + lane]
  /// Per-RS-slot lane mask: lanes whose condition failed (select µop) —
  /// gates the datapath emissions of issue_entry, never the schedule.
  std::vector<std::uint64_t> rs_squash_;

  // Fast-scheduler state (the batch engine is fast-only).
  std::uint64_t rs_busy_mask_ = 0;
  std::uint64_t ready_mask_ = 0;
  std::array<std::uint8_t, age_ring_size> age_to_slot_{};
  std::vector<std::vector<std::uint16_t>> preg_waiters_;
  std::vector<std::vector<std::uint8_t>> rob_flag_waiters_;
  std::array<std::vector<exec_entry>, age_ring_size> exec_wheel_;
  std::vector<exec_entry> exec_far_;
  std::size_t exec_in_flight_ = 0;
  std::vector<exec_entry> pending_bcast_;
  bool cycle_dirty_ = false;

  // Post-commit store buffer: shared ring control, lane-major addresses.
  std::size_t sb_head_ = 0;
  std::size_t sb_count_ = 0;
  std::vector<std::uint32_t> sb_addr_; // [entry * lanes + lane]

  // Shared structural unit state.
  std::uint64_t lsu_busy_until_ = 0;
  std::uint64_t mul_busy_until_ = 0;
  int prf_ports_used_this_cycle_ = 0;

  // Bus/latch state: per-lane where values differ (lane-major,
  // [port * lanes + lane]), shared where they cannot (rename/wakeup tags).
  std::vector<std::uint32_t> prf_port_state_;    // 8 ports
  std::vector<std::uint32_t> alu_latch_state_;   // 4 latches
  std::vector<std::uint32_t> cdb_state_;         // 4 buses
  std::vector<std::uint32_t> retire_port_state_; // 4 ports
  std::vector<std::uint32_t> mdr_state_;         // 1 per lane
  std::vector<std::uint32_t> align_buffer_state_; // 1 per lane
  std::array<std::uint32_t, 4> rat_port_state_{};
  std::array<std::uint32_t, 4> tag_bus_state_{};

  // Shared front-end position (synced with the lanes at run boundaries).
  std::size_t pc_ = 0;
  bool halted_ = false;

  std::uint64_t cycle_ = 0;
  std::uint64_t renamed_ = 0;
  std::uint64_t retired_ = 0;
  std::uint64_t multi_rename_cycles_ = 0;
  std::uint64_t idle_skipped_ = 0;
  std::uint64_t active_lane_cycles_ = 0;
};

} // namespace usca::sim

#endif // USCA_SIM_OOO_BATCH_OOO_CORE_H
