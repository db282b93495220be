// Front-end speculation model of the out-of-order backend: branch
// direction prediction, a branch target buffer, and a return-stack
// buffer.
//
// The OoO core resolves branches at rename — a perfect-prediction
// analogue under which speculative wrong-path activity contributes zero
// leakage.  This module supplies the missing design dimension: a
// configurable predictor whose mispredictions send the front end down
// the *wrong* path, so squashed µops toggle fetch/rename/RS structures
// (rat_port, rs_tag_bus, prf_read_port, ...) plus the two predictor
// structures modelled here (component::bp_table, component::btb_port)
// before a recovery flush discards them.  Wrong-path activity is the
// leakage class of the Spectre/RSB literature (arXiv 2302.09544) and
// the retirement-channel work (arXiv 2307.12486): secret-dependent
// mispredicts become secret-dependent power.
//
// Predictor design points (speculation_config::predictor):
//
//   perfect     — today's behaviour, bit-identical activity/timing to a
//                 core without this module (the golden-digest contract);
//   static_btfn — backward-taken/forward-not-taken, no state;
//   bimodal     — 2^bp_table_bits saturating 2-bit counters indexed by
//                 the branch's instruction index;
//   gshare      — the same table indexed by index XOR a history_bits
//                 global branch-history register.
//
// Direct unconditional branches (b/bl with cond al) never mispredict —
// the decoder knows their target.  Indirect branches (bx) predict
// through the BTB, except returns (bx lr), which pop the return-stack
// buffer pushed by bl.  The RSB is a circular buffer: overflow
// overwrites the oldest entry and underflow pops stale slots —
// deterministic, and exactly the over/underflow behaviour the RSB
// attack literature exploits.
//
// Modelling choices (documented here, asserted by the tests): the
// predictor learns only from *correct-path* branches; wrong-path
// branches query it read-only and steer wrong-path fetch by prediction
// alone (no nested checkpoints — one mispredict is in flight at a
// time, which the rename-resolved design guarantees).  Architectural
// state is never touched by the wrong path, so results stay
// bit-identical to an unspeculated run; only timing and activity move.
#ifndef USCA_SIM_OOO_SPECULATION_H
#define USCA_SIM_OOO_SPECULATION_H

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace usca::sim {

struct micro_arch_config;

enum class predictor_kind : std::uint8_t {
  perfect,     ///< branches resolve at rename (today's model; the default)
  static_btfn, ///< backward taken, forward not taken
  bimodal,     ///< per-index 2-bit saturating counters
  gshare,      ///< counters indexed by index XOR global history
};

std::string_view predictor_kind_name(predictor_kind kind) noexcept;
std::optional<predictor_kind>
parse_predictor_kind(std::string_view text) noexcept;

/// Front-end speculation block of the micro_arch_config.  Consumed only
/// by the OoO backend (the in-order pipeline models its front end through
/// branch_mispredict_penalty); the default `perfect` predictor keeps the
/// OoO core bit-identical to the pre-speculation model.
struct speculation_config {
  predictor_kind predictor = predictor_kind::perfect;
  int bp_table_bits = 10; ///< log2 of the bimodal/gshare counter table
  int history_bits = 8;   ///< gshare global-history length
  int btb_entries = 64;   ///< direct-mapped BTB size (power of two)
  int rsb_entries = 8;    ///< return-stack depth (circular)
  /// Cycles between a mispredicted branch's rename and its resolution:
  /// the window in which wrong-path µops rename, dispatch, issue and
  /// toggle leakage components before the recovery flush.
  int resolve_latency = 3;
};

/// Throws util::simulation_error when a field is out of its modelled
/// range (table/history sizes, power-of-two BTB, latency bounds).
void validate_speculation_config(const speculation_config& config);

/// True when an OoO core built from `config` would speculate (its
/// predictor is not `perfect`).  The batched OoO core rejects such configs;
/// the campaign layers use this to fall back to the per-trace path.
bool speculation_active(const micro_arch_config& config);

/// Branch predictor + BTB + RSB state machine.  Pure bookkeeping: the
/// ooo_core owns the activity emission, so every query/update returns
/// the value driven onto the corresponding predictor bus (table index,
/// counter state, target index) for the caller to emit.
class branch_predictor {
public:
  branch_predictor() = default;

  /// (Re)sizes the tables for `config`; leaves them in the reset state.
  void configure(const speculation_config& config);
  /// Clears counters/history/BTB/RSB to the post-configure state.
  void reset();

  struct prediction {
    bool taken = false;
    bool has_target = false;  ///< target/target_bus are meaningful
    std::uint32_t target = 0; ///< predicted instruction index
    std::uint32_t table_bus = 0;  ///< value on the bp_table read port
    std::uint32_t target_bus = 0; ///< value on the btb_port read port
  };

  /// Direction of a conditional direct branch at `pc_index` targeting
  /// `target_index` (the target is known from the instruction word).
  prediction predict_conditional(std::uint32_t pc_index,
                                 std::uint32_t target_index) const;
  /// Learns the resolved direction; returns the bp_table write-port
  /// value (new counter state).  Correct-path branches only.
  std::uint32_t update_conditional(std::uint32_t pc_index, bool taken);

  /// Indirect branch (bx through a non-lr register): BTB lookup.
  /// A missing entry predicts fall-through (has_target = false).
  prediction predict_indirect(std::uint32_t pc_index) const;
  /// Installs the resolved target; returns the btb_port write value.
  std::uint32_t update_indirect(std::uint32_t pc_index,
                                std::uint32_t target_index);

  /// Return prediction (bx lr): pops the RSB.  `peek` variants leave the
  /// stack untouched (wrong-path queries never mutate predictor state).
  prediction pop_return();
  prediction peek_return() const;
  /// Call (bl): pushes the return index; returns the btb_port value.
  std::uint32_t push_return(std::uint32_t return_index);

private:
  std::uint32_t counter_index(std::uint32_t pc_index) const noexcept;

  speculation_config config_;
  std::uint32_t table_mask_ = 0;
  std::uint32_t history_mask_ = 0;
  std::uint32_t btb_mask_ = 0;
  std::uint32_t history_ = 0;
  std::vector<std::uint8_t> counters_;    ///< 2-bit saturating
  std::vector<std::uint32_t> btb_target_; ///< bit 0 = valid, index << 1
  std::vector<std::uint32_t> rsb_;
  std::size_t rsb_top_ = 0; ///< next push position (circular)
};

} // namespace usca::sim

#endif // USCA_SIM_OOO_SPECULATION_H
