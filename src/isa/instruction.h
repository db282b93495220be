// AL32 instruction representation.
//
// This is the in-memory IR shared by the assembler, the binary
// encoder/decoder, the functional executor, the pipeline simulator and the
// static leakage scanner.  The design keeps every operand explicit so that
// micro-architectural resource usage (register-file read ports, barrel
// shifter, multiplier) can be derived from the instruction alone — the
// property the DAC'18 paper exploits for both CPI-based exploration and
// leakage modelling.
#ifndef USCA_ISA_INSTRUCTION_H
#define USCA_ISA_INSTRUCTION_H

#include <array>
#include <cstdint>
#include <string_view>

#include "isa/condition.h"
#include "isa/registers.h"

namespace usca::isa {

enum class opcode : std::uint8_t {
  // Data-processing (operand2 = register-with-shift or immediate).
  mov,
  mvn,
  add,
  adc,
  sub,
  sbc,
  rsb,
  and_,
  orr,
  eor,
  bic,
  // Comparison forms (no destination, always set flags).
  cmp,
  cmn,
  tst,
  teq,
  // Wide immediate moves (16-bit payload).
  movw,
  movt,
  // Multiply family (executes on the multiplier of ALU0 only).
  mul,
  mla,
  // Memory (word / byte / halfword).
  ldr,
  ldrb,
  ldrh,
  str,
  strb,
  strh,
  // Control flow.
  b,
  bl,
  bx,
  // Simulator pseudo-instructions.
  mark, ///< trigger marker: records (id, cycle) — models the GPIO trigger
  halt, ///< stops the simulation
};

/// Canonical mnemonic (without condition / S suffix).
std::string_view opcode_mnemonic(opcode op) noexcept;

/// Barrel-shifter operation kinds.
enum class shift_kind : std::uint8_t { lsl = 0, lsr = 1, asr = 2, ror = 3 };

std::string_view shift_name(shift_kind kind) noexcept;

/// Shift applied to a register operand (ARM operand-2 style).  An amount
/// of zero with kind lsl means "no shift" and does not engage the barrel
/// shifter.  Shift amounts are restricted to 0..31.
struct shift_spec {
  shift_kind kind = shift_kind::lsl;
  bool by_register = false;    ///< amount taken from `amount_reg` (low byte)
  std::uint8_t amount = 0;     ///< immediate amount when !by_register
  reg amount_reg = reg::r0;

  /// True when the barrel shifter is actually engaged.
  constexpr bool active() const noexcept {
    return by_register || amount != 0 || kind != shift_kind::lsl;
  }

  friend bool operator==(const shift_spec&, const shift_spec&) = default;
};

/// Second operand of data-processing instructions.
struct operand2 {
  enum class kind : std::uint8_t { none, reg_shifted, immediate };

  kind k = kind::none;
  reg rm = reg::r0;        ///< valid when k == reg_shifted
  shift_spec shift;        ///< valid when k == reg_shifted
  std::uint32_t imm = 0;   ///< valid when k == immediate

  static operand2 make_reg(reg rm, shift_spec shift = {}) noexcept {
    operand2 o;
    o.k = kind::reg_shifted;
    o.rm = rm;
    o.shift = shift;
    return o;
  }
  static operand2 make_imm(std::uint32_t value) noexcept {
    operand2 o;
    o.k = kind::immediate;
    o.imm = value;
    return o;
  }

  friend bool operator==(const operand2&, const operand2&) = default;
};

/// Memory operand: [rn, #+/-imm12] or [rn, rm, lsl #amount].
struct mem_operand {
  reg base = reg::r0;
  bool reg_offset = false;
  bool subtract = false;        ///< subtract the offset from the base
  std::uint32_t offset_imm = 0; ///< 0..4095 when !reg_offset
  reg offset_reg = reg::r0;
  std::uint8_t offset_shift = 0; ///< LSL amount applied to offset_reg, 0..31

  friend bool operator==(const mem_operand&, const mem_operand&) = default;
};

/// A fully-decoded AL32 instruction.
struct instruction {
  opcode op = opcode::mov;
  condition cond = condition::al;
  bool set_flags = false;

  reg rd = reg::r0; ///< destination (or data register for stores)
  reg rn = reg::r0; ///< first source / base register
  reg ra = reg::r0; ///< accumulator for MLA
  operand2 op2;
  mem_operand mem;

  std::uint16_t imm16 = 0;    ///< movw/movt payload, mark id
  std::int32_t branch_offset = 0; ///< b/bl: signed instruction-count offset
                                  ///< relative to the *next* instruction

  friend bool operator==(const instruction&, const instruction&) = default;
};

/// Fixed-capacity register list used for hazard analysis (an instruction
/// references at most four registers).
class reg_list {
public:
  void push(reg r) noexcept { regs_[count_++] = r; }
  std::size_t size() const noexcept { return count_; }
  reg operator[](std::size_t i) const noexcept { return regs_[i]; }
  bool contains(reg r) const noexcept {
    for (std::size_t i = 0; i < count_; ++i) {
      if (regs_[i] == r) {
        return true;
      }
    }
    return false;
  }
  const reg* begin() const noexcept { return regs_.data(); }
  const reg* end() const noexcept { return regs_.data() + count_; }

private:
  std::array<reg, 4> regs_{};
  std::size_t count_ = 0;
};

/// Registers read by the instruction (architectural sources, including
/// store data, base registers and register shift amounts).
reg_list source_registers(const instruction& ins) noexcept;

/// Registers written by the instruction (excluding flags).
reg_list destination_registers(const instruction& ins) noexcept;

/// Issue-class taxonomy of Table 1 of the paper.  The class of an
/// instruction — together with the micro-architecture configuration —
/// decides dual-issue legality and unit binding.
enum class issue_class : std::uint8_t {
  mov_like,    ///< mov/mvn with unshifted register operand
  alu_reg,     ///< data-processing with two register sources
  alu_imm,     ///< data-processing with an immediate operand (incl. movw/movt)
  mul_like,    ///< mul/mla
  shift_like,  ///< any instruction engaging the barrel shifter
  branch_like, ///< b/bl/bx
  load_store,  ///< ldr/str and sub-word variants
  nop_like,    ///< canonical nop (condition-never mov with zero operands)
  other,       ///< mark/halt — serializing pseudo-ops
};

issue_class classify(const instruction& ins) noexcept;

/// True for the canonical nop encoding: `movnv r0, r0` — the Cortex-A7
/// nop implementation inferred by the paper (condition never, zero-valued
/// operands).
bool is_nop(const instruction& ins) noexcept;

bool is_load(const instruction& ins) noexcept;
bool is_store(const instruction& ins) noexcept;
bool is_memory(const instruction& ins) noexcept;
/// Byte or halfword memory access (engages the LSU align buffer).
bool is_subword(const instruction& ins) noexcept;
/// Bytes a load or store moves: 1 (ldrb/strb), 2 (ldrh/strh) or 4.
int access_width(const instruction& ins) noexcept;
bool is_branch(const instruction& ins) noexcept;
/// True when the instruction needs a unit feature exclusive to ALU0
/// (barrel shifter on a source operand, or the multiplier).
bool needs_alu0(const instruction& ins) noexcept;
/// True for comparison ops (cmp/cmn/tst/teq) that have no destination.
bool is_compare(const instruction& ins) noexcept;

/// True when the instruction consumes the current flags at issue
/// (predication, or carry-consuming arithmetic like adc/sbc).
bool reads_flags(const instruction& ins) noexcept;
/// True when the instruction produces new flags (S-suffixed or compare).
bool writes_flags(const instruction& ins) noexcept;

/// Number of register-file read ports consumed at issue.  The Cortex-A7
/// exposes three; a dual-issued pair must fit within them.
int read_ports_needed(const instruction& ins) noexcept;

/// Number of register-file write ports consumed at write-back (0 or 1).
int write_ports_needed(const instruction& ins) noexcept;

// ---------------------------------------------------------------------------
// Factory helpers for programmatic construction (used by the CPI explorer,
// the leakage characterizer benchmarks and the AES code generator).
// ---------------------------------------------------------------------------
namespace ins {

instruction nop() noexcept;
instruction mark(std::uint16_t id) noexcept;
instruction halt() noexcept;

instruction mov(reg rd, reg rm, condition cond = condition::al) noexcept;
instruction mov_imm(reg rd, std::uint32_t imm) noexcept;
instruction movw(reg rd, std::uint16_t imm) noexcept;
instruction movt(reg rd, std::uint16_t imm) noexcept;
instruction mvn(reg rd, reg rm) noexcept;

instruction dp(opcode op, reg rd, reg rn, reg rm) noexcept;
instruction dp_imm(opcode op, reg rd, reg rn, std::uint32_t imm) noexcept;
instruction dp_shift(opcode op, reg rd, reg rn, reg rm, shift_kind kind,
                     std::uint8_t amount) noexcept;

instruction add(reg rd, reg rn, reg rm) noexcept;
instruction add_imm(reg rd, reg rn, std::uint32_t imm) noexcept;
instruction sub(reg rd, reg rn, reg rm) noexcept;
instruction sub_imm(reg rd, reg rn, std::uint32_t imm) noexcept;
instruction eor(reg rd, reg rn, reg rm) noexcept;
instruction orr(reg rd, reg rn, reg rm) noexcept;
instruction and_imm(reg rd, reg rn, std::uint32_t imm) noexcept;
instruction cmp(reg rn, reg rm) noexcept;
instruction cmp_imm(reg rn, std::uint32_t imm) noexcept;

/// Standalone shifts are mov-with-shifted-operand, as in ARM.
instruction lsl(reg rd, reg rm, std::uint8_t amount) noexcept;
instruction lsr(reg rd, reg rm, std::uint8_t amount) noexcept;
instruction ror(reg rd, reg rm, std::uint8_t amount) noexcept;

instruction mul(reg rd, reg rn, reg rm) noexcept;
instruction mla(reg rd, reg rn, reg rm, reg ra) noexcept;

instruction ldr(reg rd, reg base, std::uint32_t offset = 0) noexcept;
instruction ldrb(reg rd, reg base, std::uint32_t offset = 0) noexcept;
instruction ldrh(reg rd, reg base, std::uint32_t offset = 0) noexcept;
instruction str(reg rd, reg base, std::uint32_t offset = 0) noexcept;
instruction strb(reg rd, reg base, std::uint32_t offset = 0) noexcept;
instruction strh(reg rd, reg base, std::uint32_t offset = 0) noexcept;
instruction ldr_reg(reg rd, reg base, reg offset,
                    std::uint8_t lsl_amount = 0) noexcept;
instruction ldrb_reg(reg rd, reg base, reg offset,
                     std::uint8_t lsl_amount = 0) noexcept;
instruction str_reg(reg rd, reg base, reg offset,
                    std::uint8_t lsl_amount = 0) noexcept;
instruction strb_reg(reg rd, reg base, reg offset,
                     std::uint8_t lsl_amount = 0) noexcept;

/// Branch with an instruction-count offset relative to the next
/// instruction (offset 0 == fall through to the next instruction).
instruction b(std::int32_t offset, condition cond = condition::al) noexcept;
instruction bl(std::int32_t offset) noexcept;
instruction bx(reg rm) noexcept;

} // namespace ins

} // namespace usca::isa

#endif // USCA_ISA_INSTRUCTION_H
