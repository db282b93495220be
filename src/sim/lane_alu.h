// Lane kernels of the batched cores' datapath (sim/batch_sim.h).
//
// The batch engines hold every lane's architectural registers as rows,
// regs[r][lane], and the NZCV flags as four lane masks.  Control is
// shared, so every lane runs the same instruction in the same cycle: each
// kernel below switches once on the opcode or shift kind and then loops
// over the lanes of a mask — a plain 0..n-1 loop the compiler vectorises
// when the mask covers lanes 0..n-1, the set bits otherwise.  A kernel
// writes only the lanes in its mask; every other element of an output row
// (and every other lane's flag bit) keeps its value.
//
// sim::alu (execute_dp, eval_operand2, apply_shift) is the scalar body
// of the per-trace cores and is these kernels' oracle
// (tests/sim/batch_sim_kernels_test.cpp).
#ifndef USCA_SIM_LANE_ALU_H
#define USCA_SIM_LANE_ALU_H

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "isa/condition.h"
#include "isa/instruction.h"
#include "isa/registers.h"

namespace usca::sim {

/// Lane-mask machinery (and the OoO age ring) bound batches to 64 lanes.
inline constexpr std::size_t max_batch_lanes = 64;

/// One 32-bit value per lane, lane l at [l].
using lane_row = std::array<std::uint32_t, max_batch_lanes>;

/// Every lane's architectural registers: row r holds register r.
using lane_regs = std::array<lane_row, isa::num_registers>;

/// Every lane's NZCV flags as lane masks: bit l of `n` is lane l's N.
struct lane_flags {
  std::uint64_t n = 0;
  std::uint64_t z = 0;
  std::uint64_t c = 0;
  std::uint64_t v = 0;

  isa::flags lane(std::size_t l) const noexcept {
    return {((n >> l) & 1U) != 0, ((z >> l) & 1U) != 0,
            ((c >> l) & 1U) != 0, ((v >> l) & 1U) != 0};
  }
  void set_lane(std::size_t l, const isa::flags& f) noexcept {
    const std::uint64_t bit = std::uint64_t{1} << l;
    n = f.n ? n | bit : n & ~bit;
    z = f.z ? z | bit : z & ~bit;
    c = f.c ? c | bit : c & ~bit;
    v = f.v ? v | bit : v & ~bit;
  }
};

/// The set lanes of a lane mask, lowest first:
///   for (const std::size_t l : lanes_in(mask)) { ... }
/// The mask is copied at the start, so ejecting lanes in the body does not
/// change the walk.
class lanes_in {
public:
  explicit constexpr lanes_in(std::uint64_t mask) noexcept : mask_(mask) {}

  struct iterator {
    std::uint64_t rest;
    std::size_t operator*() const noexcept {
      return static_cast<std::size_t>(std::countr_zero(rest));
    }
    iterator& operator++() noexcept {
      rest &= rest - 1;
      return *this;
    }
    bool operator!=(const iterator& other) const noexcept {
      return rest != other.rest;
    }
  };
  iterator begin() const noexcept { return {mask_}; }
  iterator end() const noexcept { return {0}; }

private:
  std::uint64_t mask_;
};

/// Number of lanes when `mask` covers exactly lanes 0..n-1, else 0.
constexpr std::size_t contiguous_lanes(std::uint64_t mask) noexcept {
  return (mask & (mask + 1)) == 0
             ? static_cast<std::size_t>(std::countr_one(mask))
             : 0;
}

/// The lanes of `mask` whose flags pass `cond` (isa::condition_passes).
std::uint64_t condition_lanes(isa::condition cond, const lane_flags& f,
                              std::uint64_t mask) noexcept;

/// out[l] = values[l] for the lanes in `mask`.
void copy_lanes(const std::uint32_t* values, std::uint64_t mask,
                std::uint32_t* out) noexcept;

/// eval_operand2 of data-processing instruction `ins` (not movw/movt)
/// over the lanes in `mask`, reading `regs`: value[l] takes the value
/// entering the ALU.  Returns the shifter carry-out lanes when `ins`
/// writes flags — the only reader of that carry, a logical op's C —
/// and `carry_in` otherwise.  The pre-shift bus value is the rm row.
std::uint64_t operand2_lanes(const isa::instruction& ins,
                             const lane_regs& regs, std::uint64_t carry_in,
                             std::uint64_t mask,
                             std::uint32_t* value) noexcept;

/// The result of instruction `ins` over the lanes in `mask`, into
/// result[l] (which must not be a row of `regs`):
///   mov..teq   execute_dp(ins.op, rn, op2[l], shifter carry, flags);
///   movw       imm16;  movt  (rd & 0xffff) | imm16 << 16;
///   mul / mla  rn * rm (+ ra).
/// When the per-trace cores write flags for `ins` — mov..teq that
/// writes_flags (NZCV as execute_dp), mul/mla with S (N and Z) — the
/// lanes of `mask` in `flags` take them.  `op2` and `shifter_carry`
/// (operand2_lanes) are read by mov..teq only.
void dp_lanes(const isa::instruction& ins, const lane_regs& regs,
              const std::uint32_t* op2, std::uint64_t shifter_carry,
              std::uint64_t mask, std::uint32_t* result,
              lane_flags& flags) noexcept;

/// Effective address of memory operand `mem` over the lanes in `mask`:
/// the base register plus or minus the immediate or the shifted offset
/// register.
void address_lanes(const isa::mem_operand& mem, const lane_regs& regs,
                   std::uint64_t mask, std::uint32_t* address) noexcept;

} // namespace usca::sim

#endif // USCA_SIM_LANE_ALU_H
