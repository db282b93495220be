// Fuzz property: any instruction the library can construct disassembles
// to text that re-assembles to the identical instruction.  This closes the
// loop between the two AL32 representations (IR and text) beyond the
// fixed corpus in disasm_test.cpp.
#include <gtest/gtest.h>

#include <bit>

#include "asmx/assembler.h"
#include "isa/disasm.h"
#include "util/rng.h"

namespace usca::asmx {
namespace {

using isa::condition;
using isa::instruction;
using isa::opcode;
using isa::reg;
using isa::shift_kind;

reg rand_reg(util::xoshiro256& rng) {
  return isa::reg_from_index(static_cast<std::uint8_t>(rng.bounded(16)));
}

condition rand_cond(util::xoshiro256& rng) {
  // Exclude nv: "addnv ..." would disassemble with the nv suffix but a
  // condition-never data-processing op is canonically reserved for nop.
  return static_cast<condition>(rng.bounded(15));
}

instruction random_instruction(util::xoshiro256& rng) {
  instruction ins;
  switch (rng.bounded(9)) {
  case 0: { // dp reg with optional shift
    static constexpr opcode ops[] = {opcode::mov, opcode::mvn, opcode::add,
                                     opcode::adc, opcode::sub, opcode::sbc,
                                     opcode::rsb, opcode::and_, opcode::orr,
                                     opcode::eor, opcode::bic};
    ins.op = ops[rng.bounded(std::size(ops))];
    ins.cond = rand_cond(rng);
    ins.set_flags = rng.bounded(2) != 0;
    ins.rd = rand_reg(rng);
    ins.rn = (ins.op == opcode::mov || ins.op == opcode::mvn)
                 ? reg::r0
                 : rand_reg(rng);
    isa::shift_spec spec;
    if (rng.bounded(2) != 0) {
      spec.kind = static_cast<shift_kind>(rng.bounded(4));
      if (rng.bounded(2) != 0) {
        spec.by_register = true;
        spec.amount_reg = rand_reg(rng);
      } else {
        spec.amount = static_cast<std::uint8_t>(1 + rng.bounded(31));
      }
    }
    ins.op2 = isa::operand2::make_reg(rand_reg(rng), spec);
    return ins;
  }
  case 1: { // dp imm (ARM-encodable)
    ins.op = rng.bounded(2) ? opcode::add : opcode::eor;
    ins.rd = rand_reg(rng);
    ins.rn = rand_reg(rng);
    const auto imm8 = static_cast<std::uint32_t>(rng.bounded(256));
    const auto rot = 2 * static_cast<unsigned>(rng.bounded(16));
    ins.op2 = isa::operand2::make_imm(std::rotr(imm8, static_cast<int>(rot)));
    return ins;
  }
  case 2: { // compare
    ins.op = static_cast<opcode>(static_cast<int>(opcode::cmp) +
                                 static_cast<int>(rng.bounded(4)));
    ins.rn = rand_reg(rng);
    ins.op2 = isa::operand2::make_reg(rand_reg(rng));
    ins.set_flags = true;
    return ins;
  }
  case 3: // wide moves
    ins.op = rng.bounded(2) ? opcode::movw : opcode::movt;
    ins.rd = rand_reg(rng);
    ins.imm16 = static_cast<std::uint16_t>(rng.bounded(65536));
    return ins;
  case 4: // multiply
    return rng.bounded(2)
               ? isa::ins::mul(rand_reg(rng), rand_reg(rng), rand_reg(rng))
               : isa::ins::mla(rand_reg(rng), rand_reg(rng), rand_reg(rng),
                               rand_reg(rng));
  case 5: { // memory, immediate offset
    static constexpr opcode ops[] = {opcode::ldr,  opcode::ldrb,
                                     opcode::ldrh, opcode::str,
                                     opcode::strb, opcode::strh};
    ins.op = ops[rng.bounded(std::size(ops))];
    ins.rd = rand_reg(rng);
    ins.mem.base = rand_reg(rng);
    ins.mem.offset_imm = static_cast<std::uint32_t>(rng.bounded(4096));
    ins.mem.subtract = ins.mem.offset_imm != 0 && rng.bounded(2) != 0;
    return ins;
  }
  case 6: { // memory, register offset
    ins.op = rng.bounded(2) ? opcode::ldr : opcode::str;
    ins.rd = rand_reg(rng);
    ins.mem.base = rand_reg(rng);
    ins.mem.reg_offset = true;
    ins.mem.offset_reg = rand_reg(rng);
    ins.mem.offset_shift = static_cast<std::uint8_t>(rng.bounded(32));
    ins.mem.subtract = rng.bounded(2) != 0;
    return ins;
  }
  case 7: { // branches
    switch (rng.bounded(3)) {
    case 0:
      return isa::ins::b(
          static_cast<std::int32_t>(rng.bounded(2000)) - 1000,
          rand_cond(rng));
    case 1:
      return isa::ins::bl(static_cast<std::int32_t>(rng.bounded(2000)) -
                          1000);
    default:
      return isa::ins::bx(rand_reg(rng));
    }
  }
  default:
    switch (rng.bounded(3)) {
    case 0:
      return isa::ins::nop();
    case 1:
      return isa::ins::mark(static_cast<std::uint16_t>(rng.bounded(65536)));
    default:
      return isa::ins::halt();
    }
  }
}

class AssemblerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AssemblerFuzz, DisasmAssembleRoundTrip) {
  util::xoshiro256 rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    const instruction original = random_instruction(rng);
    const std::string text = isa::disassemble(original);
    program prog;
    ASSERT_NO_THROW(prog = assemble(text)) << text;
    ASSERT_EQ(prog.code.size(), 1u) << text;
    ASSERT_EQ(prog.code.front(), original) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssemblerFuzz,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull));

} // namespace
} // namespace usca::asmx
