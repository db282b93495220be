// Micro-architecture description consumed by the pipeline model.
//
// The whole point of the DAC'18 paper is that two CPUs with the same ISA
// but different micro-architectures leak differently.  This struct is the
// explicit, ablatable description of the modelled core.  The default
// configuration (`cortex_a7()`) encodes everything Section 3 of the paper
// infers about the ARM Cortex-A7 MPCore:
//
//   * partial dual-issue, in-order, 8-stage pipeline;
//   * two non-identical ALUs — only ALU0 carries the barrel shifter and
//     the (pipelined) multiplier;
//   * a fully pipelined 3-stage load/store unit, address generation in
//     the issue stage;
//   * 3 register-file read ports and 2 write ports;
//   * a dual-issue legality table (the "issue PLA") matching Table 1;
//   * nop implemented as a condition-never instruction with zero-valued
//     operands that also resets the write-back bus to zero.
#ifndef USCA_SIM_MICRO_ARCH_CONFIG_H
#define USCA_SIM_MICRO_ARCH_CONFIG_H

#include <array>
#include <cstdint>

#include "isa/instruction.h"
#include "mem/cache.h"
#include "sim/ooo/speculation.h"

namespace usca::sim {

/// Number of issue classes participating in the pairing table (the seven
/// classes of Table 1; nop/other are handled by dedicated rules).
constexpr std::size_t num_pair_classes = 7;

/// Maps an issue class to its pairing-table index; nop/other return
/// num_pair_classes (outside the table -> never paired).
std::size_t pair_class_index(isa::issue_class cls) noexcept;

using pairing_table =
    std::array<std::array<bool, num_pair_classes>, num_pair_classes>;

/// Dual-issue legality matrix measured on the Cortex-A7 (paper Table 1);
/// rows = older instruction class, columns = younger.
/// Class order: mov, ALU, ALU-imm, mul, shifts, branch, ld/st.
pairing_table cortex_a7_pairing_table() noexcept;

/// How the issue stage decides dual-issue legality.
enum class issue_policy : std::uint8_t {
  /// Explicit pairing table plus structural checks — the real Cortex-A7
  /// behaviour (issue legality is a hard-wired PLA).
  table,
  /// Structural checks only (ports/units); an idealized design used by the
  /// ablation bench to show that the PLA restrictions are a micro-
  /// architectural choice with side-channel consequences.
  structural,
};

/// Scheduler implementation of the OoO backend.  Both produce bit-identical
/// retirement order, architectural state and activity streams.  `fast` is
/// the production path: sim::ooo_control (sim/ooo/ooo_control.h), the one
/// control the per-trace and the batched OoO cores share.  `reference`
/// keeps the original per-cycle linear scans in sim::ooo_core as the
/// independent oracle for the differential equivalence suites
/// (tests/sim/ooo_equivalence_fuzz_test.cpp); it runs per-trace only.
/// This field alone picks the scheduler.  Not part of the archive config
/// hash: an implementation choice, not a design point.
enum class ooo_scheduler : std::uint8_t {
  fast,      ///< ready bitmasks, tag-indexed wakeup, constant-time CDB
  reference, ///< per-cycle linear scans (the original implementation)
};

/// Hard sizing caps of the OoO backend.  The fast scheduler keeps one
/// 64-bit ready mask over an age-ordered ring indexed by `seq mod 64`; ring
/// positions stay unique only while every in-flight µop lies inside a
/// 64-sequence window, which the ROB capacity bounds.  Enforced for both
/// scheduler implementations so a configuration is valid independent of the
/// scheduler choice.
constexpr int ooo_max_rob_entries = 64;
constexpr int ooo_max_rs_entries = 64;

/// Out-of-order issue backend parameters (sim::ooo_core).  Consumed only
/// when a program runs on the OoO backend; the in-order pipeline ignores
/// this block.  The defaults describe a modest 2-wide OoO core so that
/// in-order-vs-OoO ablations start from comparable widths.
struct ooo_config {
  int rob_entries = 32;   ///< reorder-buffer capacity; <= ooo_max_rob_entries
  int rename_width = 2;   ///< instructions renamed/dispatched per cycle
  int retire_width = 2;   ///< instructions committed per cycle
  int rs_entries = 16;    ///< reservation-station slots; <= ooo_max_rs_entries
  int prf_size = 64;      ///< physical registers; must exceed 16 + ROB dests
  int cdb_width = 2;      ///< results broadcast per cycle (CDB lanes)
  int store_buffer_entries = 4; ///< post-retirement store queue depth
  ooo_scheduler scheduler = ooo_scheduler::fast;
};

struct micro_arch_config {
  // --- issue ---------------------------------------------------------------
  int issue_width = 2;                 ///< 1 = scalar ablation
  issue_policy policy = issue_policy::table;
  pairing_table pair_table = cortex_a7_pairing_table();
  int rf_read_ports = 3;
  int rf_write_ports = 2;
  bool nop_dual_issues = false;        ///< A7: nops are never dual-issued
  /// Dual-issue only within an aligned fetch pair (older instruction at an
  /// 8-byte-aligned address).  This is how a 64-bit-fetch front end
  /// presents candidates to the issue stage and is what makes the
  /// asymmetric cells of Table 1 observable at all: without it, a stream
  /// A;B;A;B with an illegal (A,B) pairing would simply re-pair as (B,A)
  /// across the repetition boundary.
  bool pair_aligned_fetch_only = true;

  // --- execution units -------------------------------------------------
  int alu_count = 2;
  bool alu0_has_shifter = true;        ///< barrel shifter lives on ALU0 only
  bool alu0_has_multiplier = true;
  bool mul_pipelined = true;           ///< sustained mul CPI 1 when true
  int mul_latency = 3;                 ///< result latency in cycles
  int shift_extra_latency = 1;         ///< extra latency of a shifted op
  bool lsu_pipelined = true;           ///< sustained ld/st CPI 1 when true
  int lsu_latency = 3;                 ///< LSU depth: load result latency

  // --- front end -----------------------------------------------------------
  int fetch_width = 2;
  int front_stages = 3;                ///< F1+F2+decode before issue
  int branch_mispredict_penalty = 5;   ///< flush cost on a wrong prediction
  bool perfect_branch_prediction = true;

  // --- leakage-relevant implementation choices (Section 4) ------------------
  bool nop_drives_zero_operands = true; ///< nop zeroizes the IS/EX buses
  bool nop_zeroes_wb_bus = true;        ///< nop resets the WB buses to zero
  bool alu_latch_holds_on_idle = true;  ///< ALU input latches keep stale data
  bool has_align_buffer = true;         ///< LSU sub-word realignment buffer

  // --- memory hierarchy ------------------------------------------------
  mem::cache_config icache;
  mem::cache_config dcache;

  // --- out-of-order backend (sim::ooo_core only) -----------------------
  ooo_config ooo;
  /// Front-end speculation of the OoO backend (sim/ooo/speculation.h).
  /// The default `perfect` predictor keeps the core bit-identical to the
  /// pre-speculation model; any other predictor sends mispredicted
  /// fetches down the wrong path until a recovery flush.  Speculative
  /// configs run per-trace only (the batched core rejects them and the
  /// campaign layer falls back transparently).
  speculation_config speculation;
};

/// The paper's characterized target.
micro_arch_config cortex_a7() noexcept;

/// Single-issue ablation of the same core (issue_width 1), used to contrast
/// scalar vs. superscalar leakage behaviour.
micro_arch_config cortex_a7_scalar() noexcept;

/// Configuration for the out-of-order backend: the A7's execution units,
/// latencies and caches behind the given rename/ROB/RS issue engine
/// (defaults: a modest 2-wide core).  The select stage scales with the
/// front end (issue_width = ooo.rename_width); everything else stays
/// ISA- and unit-compatible with cortex_a7() by construction — the pair
/// is the cross-design-point comparison the paper's portability argument
/// calls for.
micro_arch_config cortex_a7_ooo(ooo_config ooo = {}) noexcept;

/// cortex_a7_ooo() with a speculating front end: the same issue engine
/// behind the given predictor design point.  The scenario suite and the
/// predictor ablation bench sweep this.
micro_arch_config cortex_a7_ooo_spec(speculation_config spec,
                                     ooo_config ooo = {}) noexcept;

} // namespace usca::sim

#endif // USCA_SIM_MICRO_ARCH_CONFIG_H
