// Cycle-level model of a Cortex-A7-like superscalar in-order pipeline.
//
// The model implements the micro-architecture deduced in Section 3 of the
// paper (Figure 2): a two-wide in-order issue stage fed by a fetch/decode
// front end, a register file with 3 read / 2 write ports, two asymmetric
// ALUs (shifter and multiplier on ALU0 only), a 3-stage pipelined LSU with
// address generation in the issue stage, and full forwarding.  Alongside
// timing (CPI, dual-issue statistics) it tracks the switching activity of
// every leakage-relevant structure and emits sim::activity_event records
// consumed by the power model.
//
// Execution strategy: instructions execute *architecturally* at issue time
// (in program order, so values are exact), while a scoreboard models when
// results become forwardable.  This keeps the model fast enough for the
// 100k-trace experiments of the paper while preserving cycle-accurate
// issue behaviour — the property both the CPI exploration and the leakage
// characterization depend on.
//
// Control and datapath.  The issue stage — fetch and its I-cache gating,
// the scoreboard, the dual-issue select, marks, halts and branch
// redirects, the cycle loop — is sim::inorder_control
// (sim/inorder_control.h), the one control this core shares with the
// batched sim::batch_pipeline.  This class is the scalar datapath it
// drives: architectural state and values, the leakage-relevant state
// registers and their emission, data memory and both caches.
#ifndef USCA_SIM_PIPELINE_H
#define USCA_SIM_PIPELINE_H

#include <array>
#include <cstdint>

#include "asmx/program.h"
#include "mem/cache.h"
#include "mem/memory.h"
#include "sim/backend.h"
#include "sim/cpu_state.h"
#include "sim/inorder_control.h"
#include "sim/micro_arch_config.h"
#include "sim/program_image.h"
#include "sim/uarch_activity.h"

namespace usca::sim {

class pipeline final : public backend {
public:
  explicit pipeline(asmx::program prog,
                    micro_arch_config config = cortex_a7());

  /// Shares an immutable program image instead of copying the program —
  /// the constructor campaign workers use.
  explicit pipeline(program_image image,
                    micro_arch_config config = cortex_a7());

  backend_kind kind() const noexcept override {
    return backend_kind::inorder;
  }

  /// Restores the freshly-constructed state — architectural registers,
  /// caches, scoreboard, leakage-relevant state registers, marks and the
  /// activity buffer — without reallocating or re-copying the program.
  /// The data image is re-installed from the shared program image.  A
  /// reset pipeline is bit-identical in behaviour to a newly constructed
  /// one (pinned by the reset-equivalence tests).
  void reset() override;

  /// Swaps in a different program (re-deriving the pairability cache) and
  /// resets.  Lets the CPI explorer reuse one pipeline across its dozens
  /// of micro-benchmarks.
  void rebind(program_image image);

  void warm_caches() override { warm_program(program(), icache_, dcache_); }

  /// Runs until halt (or the cycle budget is exhausted, which throws).
  void run(std::uint64_t max_cycles = 50'000'000) override;

  /// Advances one cycle; returns false once halted.
  bool step_cycle();

  cpu_state& state() noexcept override { return state_; }
  const cpu_state& state() const noexcept override { return state_; }
  /// The simulated program (shared, immutable).
  const asmx::program& program() const noexcept override {
    return ctl_.program();
  }
  mem::memory& memory() noexcept override { return memory_; }
  const mem::memory& memory() const noexcept override { return memory_; }
  const micro_arch_config& config() const noexcept { return ctl_.config(); }

  std::uint64_t cycles() const noexcept override { return ctl_.cycle; }
  /// Instructions issued, nops and condition-failed instructions included.
  std::uint64_t instructions_issued() const noexcept override {
    return ctl_.issued;
  }
  /// Number of cycles in which two instructions were issued together.
  std::uint64_t dual_issue_pairs() const noexcept { return ctl_.dual_pairs; }

  const mem::cache& icache() const noexcept { return icache_; }
  const mem::cache& dcache() const noexcept { return dcache_; }

  /// Dual-issue legality of an (older, younger) pair under this
  /// configuration, ignoring dynamic operand readiness.  Exposed so the
  /// CPI explorer can cross-check inferred against configured behaviour.
  bool statically_pairable(const isa::instruction& older,
                           const isa::instruction& younger) const noexcept;

private:
  /// Executes one issued instruction (inorder_control's execute
  /// callable); returns the next pc.
  std::size_t issue(const isa::instruction& ins, int slot);

  void drive_rf_port(std::uint32_t value);
  void drive_is_ex_bus(std::uint8_t lane, std::uint32_t value);
  void write_back(int slot, std::uint32_t value, std::uint64_t at_cycle);

  std::uint32_t read_reg(isa::reg r) const noexcept {
    return state_.reg(r);
  }
  void retire_write(isa::reg r, std::uint32_t value,
                    std::uint64_t ready_at) noexcept;

  inorder_control ctl_;
  mem::memory memory_;
  mem::cache icache_;
  mem::cache dcache_;
  cpu_state state_;

  // Micro-architectural state registers (leakage sources).
  std::array<std::uint32_t, 3> rf_port_state_{};
  std::array<std::uint32_t, 3> is_ex_bus_state_{};
  std::array<std::uint32_t, 4> alu_latch_state_{};
  std::array<std::uint32_t, 2> ex_wb_latch_state_{};
  std::array<std::uint32_t, 2> wb_bus_state_{};
  std::uint32_t mdr_state_ = 0;
  std::uint32_t align_buffer_state_ = 0;
};

} // namespace usca::sim

#endif // USCA_SIM_PIPELINE_H
