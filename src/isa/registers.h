// General-purpose register file description of the AL32 ISA.
//
// AL32 is the ARMv7-A-flavoured 32-bit integer ISA implemented by this
// repository: 16 general-purpose registers (r13=sp, r14=lr, r15=pc) and a
// 4-bit NZCV flags register.  The ISA deliberately mirrors the subset of
// ARMv7 that the DAC'18 paper's micro-benchmarks and AES implementation
// exercise, so that the paper's instruction sequences can be written
// verbatim.
#ifndef USCA_ISA_REGISTERS_H
#define USCA_ISA_REGISTERS_H

#include <cstdint>
#include <optional>
#include <string_view>

namespace usca::isa {

/// Register index newtype: a value in [0, 15].
enum class reg : std::uint8_t {
  r0 = 0,
  r1,
  r2,
  r3,
  r4,
  r5,
  r6,
  r7,
  r8,
  r9,
  r10,
  r11,
  r12,
  sp = 13,
  lr = 14,
  pc = 15,
};

constexpr int num_registers = 16;

constexpr std::uint8_t index_of(reg r) noexcept {
  return static_cast<std::uint8_t>(r);
}

constexpr reg reg_from_index(std::uint8_t index) noexcept {
  return static_cast<reg>(index & 0xF);
}

/// Canonical lower-case name ("r0".."r12", "sp", "lr", "pc").
std::string_view reg_name(reg r) noexcept;

/// Parses a register name; accepts "rN" for N in 0..15 plus the aliases
/// sp/lr/pc (case-insensitive).  Returns nullopt on failure.
std::optional<reg> parse_reg(std::string_view text) noexcept;

/// Processor status flags (NZCV).
struct flags {
  bool n = false; ///< negative
  bool z = false; ///< zero
  bool c = false; ///< carry / not-borrow
  bool v = false; ///< signed overflow

  friend bool operator==(const flags&, const flags&) = default;
};

} // namespace usca::isa

#endif // USCA_ISA_REGISTERS_H
