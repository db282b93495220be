// Batched SoA counterpart of sim::pipeline: N independent traces advance
// through ONE in-order core model per cycle.
//
// The split follows directly from what is and is not data-dependent on
// the modelled core (see batch_sim.h for the protocol):
//
//   * shared control, run once per cycle for the whole batch — the fetch
//     stream (pc, I-cache), the issue-stage selection (operand/unit
//     scoreboard, pairability), the cycle/issue counters and mark stream;
//   * per-lane data, laid out lane-major — architectural registers and
//     flags, data memory and D-cache, every leakage-relevant state
//     register (RF ports, operand buses, ALU latches, WB buses, MDR,
//     align buffer) and the activity stream or fused clean-power column.
//
// Divergence checkpoints (lanes ejected on disagreement with the leader):
// condition outcomes of predicated instructions, indirect-branch (bx)
// targets, and D-cache penalties of executed memory ops.  Surviving lanes
// produce bit-identical activity/marks/state to a per-trace sim::pipeline
// run — every emission point below corresponds 1:1 to an emission point
// in pipeline.cpp, looped over the active lanes in the same order.
#ifndef USCA_SIM_BATCH_PIPELINE_H
#define USCA_SIM_BATCH_PIPELINE_H

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

class batch_pipeline final : public batch_backend {
public:
  explicit batch_pipeline(program_image image, micro_arch_config config,
                          std::size_t lanes = default_sim_batch_lanes);

  backend_kind kind() const noexcept override {
    return backend_kind::inorder;
  }

  void reset() override;
  void run(std::uint64_t max_cycles = 50'000'000) override;

  const micro_arch_config& config() const noexcept { return config_; }

  std::uint64_t cycles() const noexcept override { return cycle_; }
  std::uint64_t instructions_issued() const noexcept override {
    return issued_;
  }
  std::uint64_t dual_issue_pairs() const noexcept { return dual_pairs_; }

private:
  struct issue_outcome {
    bool issued = false;
    bool redirect = false;
    bool serialize = false;
  };

  bool operands_ready(std::size_t index) const noexcept;
  bool unit_available(std::size_t index) const noexcept;
  issue_outcome issue(const isa::instruction& ins, int slot);
  void derive_pairability();
  bool step_cycle();

  /// condition_passes per active lane, agreed (ejects disagreeing lanes);
  /// returns the leader's outcome.
  bool agreed_exec(const isa::instruction& ins) noexcept {
    return ins.cond == isa::condition::al ||
           agree_bit(passing_lanes(ins.cond));
  }

  // Lane-batched counterparts of the pipeline's event helpers: one lane
  // kernel call per per-trace emission point (the active lanes, or the
  // executing ones for write_back).
  void drive_rf_port(const lane_values& values);
  void drive_is_ex_bus(std::uint8_t bus, const lane_values& values);
  void write_back(int slot, const lane_values& values, std::uint64_t at_cycle,
                  std::uint64_t mask);
  void retire_write(isa::reg r, const lane_values& values,
                    std::uint64_t ready_at) noexcept;

  std::vector<std::uint8_t> pairable_next_;
  micro_arch_config config_;

  // Per-lane leakage state.  Lane-major state registers: element [port * lanes_ + lane].
  std::vector<std::uint32_t> rf_port_state_;    // 3 ports
  std::vector<std::uint32_t> is_ex_bus_state_;  // 3 buses
  std::vector<std::uint32_t> alu_latch_state_;  // 4 latches
  std::vector<std::uint32_t> ex_wb_latch_state_; // 2 slots
  std::vector<std::uint32_t> wb_bus_state_;      // 2 slots
  std::vector<std::uint32_t> mdr_state_;         // 1 per lane
  std::vector<std::uint32_t> align_buffer_state_; // 1 per lane

  // Shared front end + scoreboard (lane-invariant by the agreement
  // protocol: every update below happens under agreed control inputs).
  std::size_t pc_ = 0;
  bool halted_ = false;
  std::array<std::uint64_t, isa::num_registers> reg_ready_{};
  std::uint64_t flags_ready_ = 0;
  std::uint64_t lsu_free_ = 0;
  std::uint64_t mul_free_ = 0;
  std::uint64_t fetch_ready_ = 0;

  std::uint64_t cycle_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t dual_pairs_ = 0;
  std::uint64_t active_lane_cycles_ = 0;
  int rf_ports_used_this_cycle_ = 0;
};

} // namespace usca::sim

#endif // USCA_SIM_BATCH_PIPELINE_H
