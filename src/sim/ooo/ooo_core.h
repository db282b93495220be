// Cycle-level model of an out-of-order issue core over the AL32 ISA.
//
// The DAC'18 paper's thesis — leakage is a property of the
// micro-architecture, not the ISA — is tested here against a second
// design point: the same ISA, execution units, latencies and caches as
// the in-order Cortex-A7 model, but issued through a modern OoO engine:
//
//   * a configurable-width rename stage with a register alias table (RAT)
//     mapping the 16 architectural registers onto a physical register
//     file (PRF) with a free list;
//   * a reservation station (RS) with tag-broadcast wakeup and
//     oldest-first select, bounded by the structural units of the
//     micro_arch_config (ALU count, single LSU pipe, ALU0-only
//     shifter/multiplier);
//   * a circular reorder buffer (ROB) with in-order retirement through a
//     configurable number of retire ports, and a post-commit store
//     buffer draining into the existing mem::cache timing path;
//   * a common data bus (CDB) broadcasting completed results to the RS
//     and the PRF.
//
// Each of those structures is a leakage source in its own right (Ge et
// al.; the retirement-channel literature): the model emits the shared
// EX-stage components (alu_in_latch, alu_out, shift_buffer, mdr,
// align_buffer) plus the OoO-specific ones (rat_port, prf_read_port,
// rs_tag_bus, cdb, rob_retire_port), so the whole power/CPA/TVLA stack
// runs on OoO traces unchanged.
//
// Execution strategy (same trick as the in-order pipeline): instructions
// execute *architecturally* at rename time, in program order, so values —
// including memory and flags — are exact and retirement is bit-identical
// to the functional executor by construction.  The scheduler then models
// *when* those values move: wakeup, select, FU latencies, CDB
// arbitration and in-order commit produce the OoO timing and the OoO
// activity stream.  Predication is modelled as select µops (the old
// destination is a real source and the destination/flag renames happen
// whatever the condition's outcome), so the schedule — and with it the
// marker-delimited acquisition window — never depends on data.  This
// keeps the model fast enough for 100k-trace campaigns while making
// "same ISA, different leakage" directly measurable.
//
// Two scheduler implementations share this architectural substrate (see
// ooo_scheduler in micro_arch_config.h):
//
//   * `fast` — the production path: the shared control of
//     sim::ooo_control (ooo/ooo_control.h), which sim::batch_ooo_core
//     runs too — a ready bitmask over an age-ordered ring, per-tag waiter
//     lists, a completion calendar wheel with O(cdb_width) CDB
//     arbitration, and an idle-cycle skip;
//   * `reference` — the independent differential oracle, kept here: the
//     original per-cycle linear scans (the RS ready scan re-walks every
//     slot per issue slot, wakeup re-walks every RS entry per CDB
//     broadcast, and CDB arbitration re-scans the in-flight list per
//     lane).  It shares only the rename, ROB, RS and commit state.
//
// The two are bit-identical by contract — same retirement order, same
// architectural state, same activity stream at every cycle — which the
// differential suites (tests/sim/ooo_equivalence_fuzz_test.cpp and
// friends) enforce.  The config's `ooo.scheduler` field alone picks one.
#ifndef USCA_SIM_OOO_OOO_CORE_H
#define USCA_SIM_OOO_OOO_CORE_H

#include <array>
#include <cstdint>
#include <vector>

#include "asmx/program.h"
#include "mem/cache.h"
#include "mem/memory.h"
#include "sim/backend.h"
#include "sim/cpu_state.h"
#include "sim/micro_arch_config.h"
#include "sim/ooo/ooo_control.h"
#include "sim/ooo/speculation.h"
#include "sim/program_image.h"
#include "sim/uarch_activity.h"

namespace usca::sim {

class ooo_core final : public backend {
public:
  explicit ooo_core(asmx::program prog,
                    micro_arch_config config = cortex_a7_ooo());

  /// Shares an immutable program image instead of copying the program —
  /// the constructor campaign workers use.  Throws util::simulation_error
  /// when the ooo_config is structurally invalid (e.g. prf_size <= 16).
  explicit ooo_core(program_image image,
                    micro_arch_config config = cortex_a7_ooo());

  backend_kind kind() const noexcept override { return backend_kind::ooo; }

  void reset() override;
  void rebind(program_image image) override;
  void warm_caches() override;
  void run(std::uint64_t max_cycles = 50'000'000) override;
  bool step_cycle() override;

  cpu_state& state() noexcept override { return state_; }
  const cpu_state& state() const noexcept override { return state_; }
  mem::memory& memory() noexcept override { return memory_; }
  const mem::memory& memory() const noexcept override { return memory_; }
  const asmx::program& program() const noexcept override { return *prog_; }
  const micro_arch_config& config() const noexcept { return ctl_.config(); }

  std::uint64_t cycles() const noexcept override { return ctl_.cycle; }
  /// Instructions renamed (accepted by the front end), nops and
  /// condition-failed instructions included — the OoO analogue of the
  /// pipeline's issued count.
  std::uint64_t instructions_issued() const noexcept override {
    return renamed_;
  }
  /// Instructions committed at the head of the ROB.
  std::uint64_t instructions_retired() const noexcept { return ctl_.retired; }
  /// Branch mispredictions taken down the wrong path (0 under the
  /// perfect predictor).
  std::uint64_t mispredicts() const noexcept { return mispredicts_; }
  /// Wrong-path µops renamed and later squashed by a recovery flush —
  /// each one toggled fetch/rename/RS leakage components first.
  std::uint64_t wrong_path_renamed() const noexcept {
    return wrong_path_renamed_;
  }
  /// The speculation block of the config this core was built from.
  const speculation_config& speculation() const noexcept { return spec_; }
  /// Cycles in which the rename stage accepted more than one instruction
  /// (the OoO analogue of dual-issue pairs).
  std::uint64_t multi_rename_cycles() const noexcept {
    return ctl_.multi_rename_cycles;
  }

  using mark_stamp = sim::mark_stamp;

  const mem::cache& icache() const noexcept { return icache_; }
  const mem::cache& dcache() const noexcept { return dcache_; }

private:
  static constexpr std::uint8_t no_reg = ooo_control::no_reg;
  static constexpr std::uint32_t no_slot = ooo_control::no_slot;
  using rob_entry = ooo_control::rob_entry;
  using rs_entry = ooo_control::rs_entry;
  using exec_entry = ooo_control::exec_entry;
  using rename_result = ooo_control::rename_result;

  /// The per-RS-slot datapath values of a renamed µop.
  struct rs_values {
    std::array<std::uint32_t, ooo_control::max_sources> src{};
    std::uint32_t address = 0;
    std::uint32_t mem_word = 0;    ///< MDR value (word containing address)
    std::uint32_t sub_value = 0;   ///< align-buffer value (sub-word ops)
    std::uint32_t shift_value = 0;
    /// Condition-failed select µop: predication renames the destination
    /// (re-committing the old value), takes the same unit/latency/CDB
    /// trip as the executed variant, and emits no datapath events beyond
    /// the PRF reads.  This is the OoO counterpart of the in-order
    /// model's "semantically neutral, not security neutral" predication
    /// behaviour, and what keeps the schedule (and thus the acquisition
    /// window) independent of condition outcomes.
    bool squashed = false;
  };

  void reset_structures();

  // Pipeline stages (called youngest-last each cycle so that an
  // instruction renamed in cycle c issues no earlier than c+1).
  void retire_stage();
  /// Reference-scheduler stages (the fast ones are ooo_control's).
  void broadcast_stage();
  void schedule_stage();
  void rename_stage();

  /// Architectural execution + rename bookkeeping of one instruction:
  /// on the correct path at state_.pc, or (`wrong_path`) on the shadow
  /// register view at spec_pc_, where it never touches architectural
  /// state, memory or predictor tables.
  template <bool wrong_path>
  rename_result rename_one(int slot);

  // --- speculation (active only when spec_enabled_) --------------------
  /// Correct-path branch: queries/updates the predictor, emits bp_table/
  /// btb_port activity, and starts a wrong-path episode on a mispredict.
  /// `actual_next` is the architecturally resolved next pc.
  void predict_branch(const isa::instruction& ins, std::size_t pc_index,
                      bool exec, std::size_t actual_next,
                      std::uint32_t rob_slot, std::uint32_t seq);
  /// Recovery flush at branch resolution: ooo_control's squash of
  /// everything younger than the mispredicted branch (plus the reference
  /// scheduler's in-flight list), then correct-path fetch resumes.
  void resolve_mispredict();
  void emit_bp_table(std::uint8_t lane, std::uint32_t value);
  void emit_btb_port(std::uint8_t lane, std::uint32_t value);

  bool rs_ready(const rs_entry& rs) const noexcept;
  /// Datapath of the µop in RS slot `slot` issuing on ALU `alu_index`
  /// (0 or 1; meaningless for LSU-bound ops); returns its completion
  /// cycle.
  std::uint64_t issue_entry(std::size_t slot, int alu_index);
  /// Reference-scheduler completion of ROB slot `slot`.
  void complete_rob(std::uint32_t slot);
  /// Renames `entry`'s destination `rd` (ROB slot `rob_slot`, committing
  /// `value`) and drives the RAT write port of rename-group slot
  /// `group_slot`.
  void write_rat(rob_entry& entry, std::uint32_t rob_slot, isa::reg rd,
                 std::uint32_t value, int group_slot);
  /// Inserts a renamed µop into the reservation stations: the fast
  /// scheduler's dispatch, or the reference's first-free-slot scan.
  void dispatch_to_rs(const rs_entry& rs, const rs_values& values,
                      std::uint32_t rob_slot);

  void drive_prf_port(std::uint32_t value);
  /// CDB result value and wakeup tag of a broadcast on `bus`.
  void drive_cdb(std::uint8_t bus, const exec_entry& done);

  program_image image_;
  const asmx::program* prog_ = nullptr;
  ooo_control ctl_;
  mem::memory memory_;
  mem::cache icache_;
  mem::cache dcache_;
  cpu_state state_;

  // Per-slot datapath values next to ctl_'s ROB and RS.
  std::vector<std::uint32_t> rob_value_;      ///< result / store data
  std::vector<std::uint32_t> rob_store_addr_; ///< drained via store buffer
  std::vector<rs_values> rs_values_;
  std::vector<std::uint32_t> sb_addr_; ///< post-commit store addresses
  std::vector<exec_entry> exec_; ///< in-flight ops (reference scheduler)
  bool fast_ = true;

  // Micro-architectural bus/latch state (leakage sources).
  std::array<std::uint32_t, ooo_control::prf_ports> prf_port_state_{};
  std::array<std::uint32_t, 4> alu_latch_state_{};
  std::array<std::uint32_t, ooo_control::ports> rat_port_state_{};
  std::array<std::uint32_t, ooo_control::ports> tag_bus_state_{};
  std::array<std::uint32_t, ooo_control::ports> cdb_state_{};
  std::array<std::uint32_t, ooo_control::ports> retire_port_state_{};
  std::uint32_t mdr_state_ = 0;
  std::uint32_t align_buffer_state_ = 0;

  // Speculation state (inert under the default perfect predictor: the
  // hot correct path only ever tests spec_enabled_ / wrong_path_).
  speculation_config spec_;
  branch_predictor predictor_;
  bool spec_enabled_ = false;
  bool wrong_path_ = false;      ///< front end is fetching the wrong path
  bool spec_fetch_done_ = false; ///< wrong-path fetch ran off a cliff
  std::size_t spec_pc_ = 0;      ///< wrong-path fetch index
  std::uint32_t spec_branch_slot_ = no_slot; ///< mispredicted branch (ROB)
  std::uint32_t spec_branch_seq_ = 0;
  std::uint64_t spec_resolve_at_ = 0; ///< cycle the recovery flush runs
  /// Checkpointed flag-producer (slot + seq; the seq validates that the
  /// slot has not retired and been reused by the time the flush restores
  /// it).  The RAT needs no checkpoint: the ROB walk restores it through
  /// the old_preg chain.
  std::uint32_t ckpt_flags_slot_ = no_slot;
  std::uint32_t ckpt_flags_seq_ = 0;
  /// Shadow register view the wrong path executes against (seeded from
  /// the architectural state at the mispredict): wrong-path dataflow is
  /// exact — a wrong-path load's result feeds the next wrong-path µop's
  /// address, the Spectre gadget's second access — without ever writing
  /// state_ or memory.  Wrong-path stores update nothing (no forwarding
  /// to younger wrong-path loads; documented simplification).
  std::array<std::uint32_t, isa::num_registers> spec_regs_{};
  isa::flags spec_flags_{};
  std::array<std::uint32_t, 2> bp_table_state_{};
  std::array<std::uint32_t, 2> btb_port_state_{};

  std::uint64_t renamed_ = 0;
  std::uint64_t mispredicts_ = 0;
  std::uint64_t wrong_path_renamed_ = 0;
};

} // namespace usca::sim

#endif // USCA_SIM_OOO_OOO_CORE_H
