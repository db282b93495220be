// Batched SoA counterpart of sim::ooo_core (fast scheduler only): N
// independent traces advance through ONE rename/wakeup/select/retire
// engine per cycle — the sim::ooo_control instance (ooo/ooo_control.h)
// the per-trace core's fast path runs too.  This file holds only the
// lane datapath: lane-major values, emission through the lane kernels,
// per-lane architectural execution, cache probes and lane agreement.
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
// Registers are the base's rows (regs_[r][lane]) and flags its lane
// masks, memory its data-window rows and lane-major D-cache
// (lane_memory.h), all exchanged with state(lane) and memory(lane) only at
// the run boundary (batch_sim.h); rename executes each µop
// architecturally over those rows with one lane kernel call (lane_alu.h)
// or one load or store call, a failed condition's lanes keeping the old
// destination.
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
// Constructing this class under ooo_scheduler::reference throws;
// campaigns fall back to per-trace cores.
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
#include "sim/ooo/ooo_control.h"
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

  const micro_arch_config& config() const noexcept { return ctl_.config(); }

  std::uint64_t cycles() const noexcept override { return ctl_.cycle; }
  std::uint64_t instructions_issued() const noexcept override {
    return renamed_;
  }
  std::uint64_t instructions_retired() const noexcept { return ctl_.retired; }
  std::uint64_t multi_rename_cycles() const noexcept {
    return ctl_.multi_rename_cycles;
  }

private:
  static constexpr std::uint8_t no_reg = ooo_control::no_reg;
  static constexpr std::size_t max_sources = ooo_control::max_sources;
  using rob_entry = ooo_control::rob_entry;
  using rs_entry = ooo_control::rs_entry;
  using exec_entry = ooo_control::exec_entry;
  using rename_result = ooo_control::rename_result;

  void reset_structures();
  bool step_cycle();
  rename_result rename_one(int slot);
  /// Datapath of the µop in RS slot `slot` issuing on ALU `alu_index`;
  /// returns its completion cycle.
  std::uint64_t issue_entry(std::size_t slot, int alu_index);

  /// One PRF read port driven with per-lane values (`values` points at a
  /// lane-major row).
  void drive_prf_port(const std::uint32_t* values);
  /// ALU input latches of ALU `alu_index` driven with the first two of
  /// RS slot `slot`'s `n_src` operands, for the `executing` lanes.
  void drive_alu_latches(std::size_t slot, std::size_t n_src, int alu_index,
                         std::uint64_t executing);
  /// Tag-bus style emission of a lane-invariant tag: every lane in the
  /// active mask toggles HD(state, tag) = HW(state ^ tag).
  void drive_tag(component comp, std::uint8_t port, std::uint32_t& state,
                 std::uint8_t tag);

  ooo_control ctl_;

  // Lane-major value planes next to ctl_'s ROB and RS.
  std::vector<std::uint32_t> rob_value_;      // [slot * lanes + lane]
  std::vector<std::uint32_t> rob_store_addr_; // [slot * lanes + lane]
  /// [(slot * max_sources + src) * lanes + lane]
  std::vector<std::uint32_t> rs_src_value_;
  std::vector<std::uint32_t> rs_address_;     // [slot * lanes + lane]
  std::vector<std::uint32_t> rs_mem_word_;    // [slot * lanes + lane]
  std::vector<std::uint32_t> rs_sub_value_;   // [slot * lanes + lane]
  std::vector<std::uint32_t> rs_shift_value_; // [slot * lanes + lane]
  /// Per-RS-slot lane mask: lanes whose condition failed (select µop) —
  /// gates the datapath emissions of issue_entry, never the schedule.
  std::vector<std::uint64_t> rs_squash_;
  std::vector<std::uint32_t> sb_addr_; // [entry * lanes + lane]

  // Bus/latch state: per-lane where values differ (lane-major,
  // [port * lanes + lane]), shared where they cannot (rename/wakeup tags).
  std::vector<std::uint32_t> prf_port_state_;    // 8 ports
  std::vector<std::uint32_t> alu_latch_state_;   // 4 latches
  std::vector<std::uint32_t> cdb_state_;         // 4 buses
  std::vector<std::uint32_t> retire_port_state_; // 4 ports
  std::vector<std::uint32_t> mdr_state_;         // 1 per lane
  std::vector<std::uint32_t> align_buffer_state_; // 1 per lane
  std::array<std::uint32_t, ooo_control::ports> rat_port_state_{};
  std::array<std::uint32_t, ooo_control::ports> tag_bus_state_{};

  // Shared front-end position (synced with the lanes at run boundaries).
  std::size_t pc_ = 0;
  bool halted_ = false;

  std::uint64_t renamed_ = 0;
};

} // namespace usca::sim

#endif // USCA_SIM_OOO_BATCH_OOO_CORE_H
