// Shared control of the in-order issue stage — the one Section 3 of the
// paper infers for the Cortex-A7: the fetch stream (pc, I-cache gating,
// the branch redirect and its mispredict penalty), the scoreboard
// (register, flag, LSU and multiplier readiness), the dual-issue select
// with its aligned-pair and redirect rules over the cached Table-1
// pairing, mark/halt serialization, and the cycle-budget run loop.
//
// None of it depends on data, so one implementation serves both in-order
// cores: sim::pipeline (one trace, scalar values) and sim::batch_pipeline
// (N lanes, lane rows) each hold one instance and keep only their
// datapath — operand and result values, emission, memory and D-cache,
// and on the batched core the lane agreement that turns lane data into
// one control input.  The datapath plugs in through template members
// taking callables, so the cycle loop still inlines into each core; the
// control receives only agreed values and never knows which core calls
// it.
#ifndef USCA_SIM_INORDER_CONTROL_H
#define USCA_SIM_INORDER_CONTROL_H

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "isa/instruction.h"
#include "mem/cache.h"
#include "sim/backend.h"
#include "sim/micro_arch_config.h"
#include "sim/program_image.h"
#include "util/error.h"

namespace usca::sim {

/// Dual-issue legality of an (older, younger) pair under `config`,
/// ignoring dynamic operand readiness: the issue policy (Table-1 PLA or
/// structural), the register-file ports and the pair's hazards.
bool statically_pairable(const micro_arch_config& config,
                         const isa::instruction& older,
                         const isa::instruction& younger) noexcept;

class inorder_control {
public:
  /// Next pc of an execute callable that halts the core (an indirect
  /// branch past the outermost frame).
  static constexpr std::size_t stop = ~std::size_t{0};

  inorder_control(program_image image, const micro_arch_config& config);

  const micro_arch_config& config() const noexcept { return config_; }
  const asmx::program& program() const noexcept { return image_.prog(); }

  /// Swaps in `image` and re-derives the pairing cache; the caller resets.
  void bind(program_image image);
  /// The freshly-constructed state.
  void reset() noexcept;

  /// Scoreboard: register `r` (the flags) forwardable from `cycle_at`.
  void reg_ready_at(isa::reg r, std::uint64_t cycle_at) noexcept {
    reg_ready_[isa::index_of(r)] = cycle_at;
  }
  void flags_ready_at(std::uint64_t cycle_at) noexcept {
    flags_ready_ = cycle_at;
  }
  /// An executed memory op whose D-cache access costs `penalty` extra
  /// cycles occupies the LSU — until its result when the LSU is not
  /// pipelined, for the miss otherwise; returns the result's ready cycle.
  std::uint64_t issue_memory(int penalty) noexcept {
    const std::uint64_t ready =
        cycle + static_cast<std::uint64_t>(config_.lsu_latency + penalty);
    if (!config_.lsu_pipelined) {
      lsu_free_ = ready;
    } else if (penalty > 0) {
      lsu_free_ = cycle + static_cast<std::uint64_t>(penalty);
    }
    return ready;
  }
  /// An executed multiply: occupies an unpipelined multiplier until its
  /// result; returns the result's ready cycle.
  std::uint64_t issue_multiply() noexcept {
    const std::uint64_t ready =
        cycle + static_cast<std::uint64_t>(config_.mul_latency);
    if (!config_.mul_pipelined) {
      mul_free_ = ready;
    }
    return ready;
  }

  /// `step()` until halted; throws util::simulation_error(`what`) once
  /// `max_cycles` cycles pass without a halt.
  template <typename Step>
  void run(std::uint64_t max_cycles, const char* what, Step&& step) {
    const std::uint64_t limit = cycle + max_cycles;
    while (!halted) {
      if (cycle >= limit) {
        throw util::simulation_error(what);
      }
      step();
    }
  }

  /// One cycle: selects the instruction at pc and, when the fetch group
  /// and the pairing rules present one, its younger partner.
  /// `mark(stamp)` commits a mark and returns true when the run ends
  /// there; `execute(ins, slot)` runs one issued instruction on the
  /// datapath and returns the next pc — pc + 1 unless a branch redirects,
  /// `stop` to halt.
  template <typename Mark, typename Execute>
  void step(mem::cache& icache, Mark&& mark, Execute&& execute) {
    if (halted) {
      return;
    }
    rf_ports_used = 0;
    const std::vector<isa::instruction>& code = image_.prog().code;
    if (pc >= code.size()) {
      halted = true;
      return;
    }
    const std::size_t older = pc;
    if (select(older, icache)) {
      const issue_end end = issue(older, 0, mark, execute);
      const bool redirect = end == issue_end::redirect;
      // With perfect prediction a taken branch presents its *target* as
      // the partner; otherwise the redirect consumed the slot.  The fetch
      // unit delivers aligned pairs: an odd-addressed older instruction
      // (or a redirected stream) has no same-group partner.
      const bool partner_visible =
          end != issue_end::serialize &&
          (!redirect || config_.perfect_branch_prediction) &&
          !(config_.pair_aligned_fetch_only && (older % 2 != 0 || redirect));
      const std::size_t younger = pc;
      // The fall-through partner's pairability is cached; only a
      // perfectly predicted taken branch presents a non-adjacent one.
      if (partner_visible && younger < code.size() &&
          (younger == older + 1
               ? pairable_next_[older] != 0
               : statically_pairable(config_, code[older], code[younger])) &&
          select(younger, icache)) {
        issue(younger, 1, mark, execute);
        ++dual_pairs;
      }
    }
    ++cycle;
  }

  // Shared state the datapath reads: pc (branch targets, link values) and
  // cycle (emission stamps); it counts the cycle's RF reads itself.
  std::size_t pc = 0;
  bool halted = false;
  std::uint64_t cycle = 0;
  std::uint64_t issued = 0;     ///< nops and condition-failed included
  std::uint64_t dual_pairs = 0; ///< cycles that issued two instructions
  int rf_ports_used = 0;        ///< RF read ports driven this cycle

private:
  enum class issue_end : std::uint8_t { next, redirect, serialize };

  bool operands_ready(std::size_t index) const noexcept {
    const instruction_static& st = image_.statics(index);
    std::uint32_t sources = st.src_mask;
    while (sources != 0) {
      if (reg_ready_[static_cast<unsigned>(std::countr_zero(sources))] >
          cycle) {
        return false;
      }
      sources &= sources - 1;
    }
    return !(st.reads_flags && flags_ready_ > cycle);
  }

  bool unit_available(std::size_t index) const noexcept {
    const instruction_static& st = image_.statics(index);
    return !(st.is_memory && lsu_free_ > cycle) &&
           !(st.uses_multiplier && mul_free_ > cycle);
  }

  /// Whether instruction `index` issues this cycle: fetched, its operands
  /// forwardable, its unit free, and its I-cache line present (a miss
  /// stalls fetch for the penalty).
  bool select(std::size_t index, mem::cache& icache) {
    if (cycle < fetch_ready_ || !operands_ready(index) ||
        !unit_available(index)) {
      return false;
    }
    const int penalty = icache.access(image_.prog().address_of(index));
    if (penalty > 0) {
      fetch_ready_ = cycle + static_cast<std::uint64_t>(penalty);
      return false;
    }
    return true;
  }

  template <typename Mark, typename Execute>
  issue_end issue(std::size_t index, int slot, Mark& mark, Execute& execute) {
    const isa::instruction& ins = image_.prog().code[index];
    ++issued;
    // Simulator pseudo-ops serialize: nothing pairs with or follows them.
    if (ins.op == isa::opcode::mark) {
      // Safe cut: every event of a window ending at this mark's cycle was
      // emitted by an instruction issued strictly before it (marks
      // serialize, and emission cycles never precede issue cycles), so it
      // is already recorded — and the run may end here.
      halted = mark(mark_stamp{ins.imm16, cycle, dual_pairs});
      pc = index + 1;
      return issue_end::serialize;
    }
    if (ins.op == isa::opcode::halt) {
      halted = true;
      return issue_end::serialize;
    }
    const std::size_t next = execute(ins, slot);
    if (next == stop) {
      halted = true;
      return issue_end::serialize;
    }
    pc = next;
    halted = pc >= image_.prog().code.size();
    if (next == index + 1) {
      return issue_end::next;
    }
    if (!config_.perfect_branch_prediction) {
      fetch_ready_ = cycle + 1 +
                     static_cast<std::uint64_t>(
                         config_.branch_mispredict_penalty);
    }
    return issue_end::redirect;
  }

  program_image image_;
  micro_arch_config config_;
  /// pairable_next_[i]: statically_pairable(code[i], code[i+1]) — the
  /// only pairing the aligned fetch stream presents for non-redirecting
  /// code, cached so the select does not re-derive it every cycle.
  std::vector<std::uint8_t> pairable_next_;
  std::array<std::uint64_t, isa::num_registers> reg_ready_{};
  std::uint64_t flags_ready_ = 0;
  std::uint64_t lsu_free_ = 0;
  std::uint64_t mul_free_ = 0;
  std::uint64_t fetch_ready_ = 0;
};

} // namespace usca::sim

#endif // USCA_SIM_INORDER_CONTROL_H
