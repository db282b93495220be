#include "isa/instruction.h"

#include <array>

namespace usca::isa {

namespace {

constexpr std::array<std::string_view, 30> mnemonics = {
    "mov",  "mvn",  "add",  "adc",  "sub",  "sbc",  "rsb",  "and",
    "orr",  "eor",  "bic",  "cmp",  "cmn",  "tst",  "teq",  "movw",
    "movt", "mul",  "mla",  "ldr",  "ldrb", "ldrh", "str",  "strb",
    "strh", "b",    "bl",   "bx",   "mark", "halt"};

constexpr bool is_data_processing(opcode op) noexcept {
  return op >= opcode::mov && op <= opcode::teq;
}

} // namespace

std::string_view opcode_mnemonic(opcode op) noexcept {
  return mnemonics[static_cast<std::uint8_t>(op)];
}

std::string_view shift_name(shift_kind kind) noexcept {
  switch (kind) {
  case shift_kind::lsl:
    return "lsl";
  case shift_kind::lsr:
    return "lsr";
  case shift_kind::asr:
    return "asr";
  case shift_kind::ror:
    return "ror";
  }
  return "lsl";
}

reg_list source_registers(const instruction& ins) noexcept {
  reg_list list;
  switch (ins.op) {
  case opcode::mov:
  case opcode::mvn:
    break; // op2 only
  case opcode::add:
  case opcode::adc:
  case opcode::sub:
  case opcode::sbc:
  case opcode::rsb:
  case opcode::and_:
  case opcode::orr:
  case opcode::eor:
  case opcode::bic:
  case opcode::cmp:
  case opcode::cmn:
  case opcode::tst:
  case opcode::teq:
    list.push(ins.rn);
    break;
  case opcode::movw:
    break;
  case opcode::movt:
    list.push(ins.rd); // movt keeps the low halfword: read-modify-write
    break;
  case opcode::mul:
    list.push(ins.rn);
    list.push(ins.op2.rm);
    return list;
  case opcode::mla:
    list.push(ins.rn);
    list.push(ins.op2.rm);
    list.push(ins.ra);
    return list;
  case opcode::ldr:
  case opcode::ldrb:
  case opcode::ldrh:
    list.push(ins.mem.base);
    if (ins.mem.reg_offset) {
      list.push(ins.mem.offset_reg);
    }
    return list;
  case opcode::str:
  case opcode::strb:
  case opcode::strh:
    list.push(ins.rd); // store data
    list.push(ins.mem.base);
    if (ins.mem.reg_offset) {
      list.push(ins.mem.offset_reg);
    }
    return list;
  case opcode::b:
  case opcode::bl:
  case opcode::mark:
  case opcode::halt:
    return list;
  case opcode::bx:
    list.push(ins.op2.rm);
    return list;
  }
  // Common tail for data-processing: operand2 sources.
  if (ins.op2.k == operand2::kind::reg_shifted) {
    list.push(ins.op2.rm);
    if (ins.op2.shift.by_register) {
      list.push(ins.op2.shift.amount_reg);
    }
  }
  return list;
}

reg_list destination_registers(const instruction& ins) noexcept {
  reg_list list;
  switch (ins.op) {
  case opcode::mov:
  case opcode::mvn:
  case opcode::add:
  case opcode::adc:
  case opcode::sub:
  case opcode::sbc:
  case opcode::rsb:
  case opcode::and_:
  case opcode::orr:
  case opcode::eor:
  case opcode::bic:
  case opcode::movw:
  case opcode::movt:
  case opcode::mul:
  case opcode::mla:
  case opcode::ldr:
  case opcode::ldrb:
  case opcode::ldrh:
    list.push(ins.rd);
    return list;
  case opcode::bl:
    list.push(reg::lr);
    return list;
  default:
    return list;
  }
}

bool is_nop(const instruction& ins) noexcept {
  return ins.op == opcode::mov && ins.cond == condition::nv &&
         ins.rd == reg::r0 && ins.op2.k == operand2::kind::reg_shifted &&
         ins.op2.rm == reg::r0 && !ins.op2.shift.active();
}

bool is_load(const instruction& ins) noexcept {
  return ins.op == opcode::ldr || ins.op == opcode::ldrb ||
         ins.op == opcode::ldrh;
}

bool is_store(const instruction& ins) noexcept {
  return ins.op == opcode::str || ins.op == opcode::strb ||
         ins.op == opcode::strh;
}

bool is_memory(const instruction& ins) noexcept {
  return is_load(ins) || is_store(ins);
}

bool is_subword(const instruction& ins) noexcept {
  return ins.op == opcode::ldrb || ins.op == opcode::ldrh ||
         ins.op == opcode::strb || ins.op == opcode::strh;
}

int access_width(const instruction& ins) noexcept {
  if (ins.op == opcode::ldrb || ins.op == opcode::strb) {
    return 1;
  }
  if (ins.op == opcode::ldrh || ins.op == opcode::strh) {
    return 2;
  }
  return 4;
}

bool is_branch(const instruction& ins) noexcept {
  return ins.op == opcode::b || ins.op == opcode::bl || ins.op == opcode::bx;
}

bool is_compare(const instruction& ins) noexcept {
  return ins.op == opcode::cmp || ins.op == opcode::cmn ||
         ins.op == opcode::tst || ins.op == opcode::teq;
}

bool needs_alu0(const instruction& ins) noexcept {
  if (ins.op == opcode::mul || ins.op == opcode::mla) {
    return true;
  }
  if (is_data_processing(ins.op) &&
      ins.op2.k == operand2::kind::reg_shifted && ins.op2.shift.active()) {
    return true;
  }
  return false;
}

issue_class classify(const instruction& ins) noexcept {
  if (is_nop(ins)) {
    return issue_class::nop_like;
  }
  switch (ins.op) {
  case opcode::mark:
  case opcode::halt:
    return issue_class::other;
  case opcode::b:
  case opcode::bl:
  case opcode::bx:
    return issue_class::branch_like;
  case opcode::mul:
  case opcode::mla:
    return issue_class::mul_like;
  case opcode::ldr:
  case opcode::ldrb:
  case opcode::ldrh:
  case opcode::str:
  case opcode::strb:
  case opcode::strh:
    return issue_class::load_store;
  case opcode::movw:
  case opcode::movt:
    return issue_class::alu_imm;
  default:
    break;
  }
  // Data-processing family.
  if (ins.op2.k == operand2::kind::reg_shifted && ins.op2.shift.active()) {
    return issue_class::shift_like;
  }
  if (ins.op2.k == operand2::kind::immediate) {
    return issue_class::alu_imm;
  }
  if (ins.op == opcode::mov || ins.op == opcode::mvn) {
    return issue_class::mov_like;
  }
  return issue_class::alu_reg;
}

bool reads_flags(const instruction& ins) noexcept {
  if (ins.cond != condition::al && ins.cond != condition::nv) {
    return true;
  }
  return ins.op == opcode::adc || ins.op == opcode::sbc;
}

bool writes_flags(const instruction& ins) noexcept {
  return ins.set_flags || is_compare(ins);
}

int read_ports_needed(const instruction& ins) noexcept {
  // Loads and stores reserve two read ports each: base plus either the
  // store-data/offset register, matching the observed pairing behaviour of
  // the Cortex-A7 (ld/st never pairs with a two-source ALU op).
  if (is_memory(ins)) {
    return 2;
  }
  return static_cast<int>(source_registers(ins).size());
}

int write_ports_needed(const instruction& ins) noexcept {
  return destination_registers(ins).size() > 0 ? 1 : 0;
}

namespace ins {

instruction nop() noexcept {
  instruction i;
  i.op = opcode::mov;
  i.cond = condition::nv;
  i.rd = reg::r0;
  i.op2 = operand2::make_reg(reg::r0);
  return i;
}

instruction mark(std::uint16_t id) noexcept {
  instruction i;
  i.op = opcode::mark;
  i.imm16 = id;
  return i;
}

instruction halt() noexcept {
  instruction i;
  i.op = opcode::halt;
  return i;
}

instruction mov(reg rd, reg rm, condition cond) noexcept {
  instruction i;
  i.op = opcode::mov;
  i.cond = cond;
  i.rd = rd;
  i.op2 = operand2::make_reg(rm);
  return i;
}

instruction mov_imm(reg rd, std::uint32_t imm) noexcept {
  instruction i;
  i.op = opcode::mov;
  i.rd = rd;
  i.op2 = operand2::make_imm(imm);
  return i;
}

instruction movw(reg rd, std::uint16_t imm) noexcept {
  instruction i;
  i.op = opcode::movw;
  i.rd = rd;
  i.imm16 = imm;
  return i;
}

instruction movt(reg rd, std::uint16_t imm) noexcept {
  instruction i;
  i.op = opcode::movt;
  i.rd = rd;
  i.imm16 = imm;
  return i;
}

instruction mvn(reg rd, reg rm) noexcept {
  instruction i;
  i.op = opcode::mvn;
  i.rd = rd;
  i.op2 = operand2::make_reg(rm);
  return i;
}

instruction dp(opcode op, reg rd, reg rn, reg rm) noexcept {
  instruction i;
  i.op = op;
  i.rd = rd;
  i.rn = rn;
  i.op2 = operand2::make_reg(rm);
  i.set_flags = is_compare(i);
  return i;
}

instruction dp_imm(opcode op, reg rd, reg rn, std::uint32_t imm) noexcept {
  instruction i;
  i.op = op;
  i.rd = rd;
  i.rn = rn;
  i.op2 = operand2::make_imm(imm);
  i.set_flags = is_compare(i);
  return i;
}

instruction dp_shift(opcode op, reg rd, reg rn, reg rm, shift_kind kind,
                     std::uint8_t amount) noexcept {
  instruction i;
  i.op = op;
  i.rd = rd;
  i.rn = rn;
  shift_spec spec;
  spec.kind = kind;
  spec.amount = amount;
  i.op2 = operand2::make_reg(rm, spec);
  return i;
}

instruction add(reg rd, reg rn, reg rm) noexcept {
  return dp(opcode::add, rd, rn, rm);
}
instruction add_imm(reg rd, reg rn, std::uint32_t imm) noexcept {
  return dp_imm(opcode::add, rd, rn, imm);
}
instruction sub(reg rd, reg rn, reg rm) noexcept {
  return dp(opcode::sub, rd, rn, rm);
}
instruction sub_imm(reg rd, reg rn, std::uint32_t imm) noexcept {
  return dp_imm(opcode::sub, rd, rn, imm);
}
instruction eor(reg rd, reg rn, reg rm) noexcept {
  return dp(opcode::eor, rd, rn, rm);
}
instruction orr(reg rd, reg rn, reg rm) noexcept {
  return dp(opcode::orr, rd, rn, rm);
}
instruction and_imm(reg rd, reg rn, std::uint32_t imm) noexcept {
  return dp_imm(opcode::and_, rd, rn, imm);
}

instruction cmp(reg rn, reg rm) noexcept {
  instruction i = dp(opcode::cmp, reg::r0, rn, rm);
  i.set_flags = true;
  return i;
}

instruction cmp_imm(reg rn, std::uint32_t imm) noexcept {
  instruction i = dp_imm(opcode::cmp, reg::r0, rn, imm);
  i.set_flags = true;
  return i;
}

instruction lsl(reg rd, reg rm, std::uint8_t amount) noexcept {
  return dp_shift(opcode::mov, rd, reg::r0, rm, shift_kind::lsl, amount);
}
instruction lsr(reg rd, reg rm, std::uint8_t amount) noexcept {
  return dp_shift(opcode::mov, rd, reg::r0, rm, shift_kind::lsr, amount);
}
instruction ror(reg rd, reg rm, std::uint8_t amount) noexcept {
  return dp_shift(opcode::mov, rd, reg::r0, rm, shift_kind::ror, amount);
}

instruction mul(reg rd, reg rn, reg rm) noexcept {
  instruction i;
  i.op = opcode::mul;
  i.rd = rd;
  i.rn = rn;
  i.op2 = operand2::make_reg(rm);
  return i;
}

instruction mla(reg rd, reg rn, reg rm, reg ra) noexcept {
  instruction i;
  i.op = opcode::mla;
  i.rd = rd;
  i.rn = rn;
  i.ra = ra;
  i.op2 = operand2::make_reg(rm);
  return i;
}

namespace {

instruction mem_imm(opcode op, reg rd, reg base, std::uint32_t offset) noexcept {
  instruction i;
  i.op = op;
  i.rd = rd;
  i.mem.base = base;
  i.mem.offset_imm = offset;
  return i;
}

instruction mem_reg(opcode op, reg rd, reg base, reg offset,
                    std::uint8_t lsl_amount) noexcept {
  instruction i;
  i.op = op;
  i.rd = rd;
  i.mem.base = base;
  i.mem.reg_offset = true;
  i.mem.offset_reg = offset;
  i.mem.offset_shift = lsl_amount;
  return i;
}

} // namespace

instruction ldr(reg rd, reg base, std::uint32_t offset) noexcept {
  return mem_imm(opcode::ldr, rd, base, offset);
}
instruction ldrb(reg rd, reg base, std::uint32_t offset) noexcept {
  return mem_imm(opcode::ldrb, rd, base, offset);
}
instruction ldrh(reg rd, reg base, std::uint32_t offset) noexcept {
  return mem_imm(opcode::ldrh, rd, base, offset);
}
instruction str(reg rd, reg base, std::uint32_t offset) noexcept {
  return mem_imm(opcode::str, rd, base, offset);
}
instruction strb(reg rd, reg base, std::uint32_t offset) noexcept {
  return mem_imm(opcode::strb, rd, base, offset);
}
instruction strh(reg rd, reg base, std::uint32_t offset) noexcept {
  return mem_imm(opcode::strh, rd, base, offset);
}
instruction ldr_reg(reg rd, reg base, reg offset,
                    std::uint8_t lsl_amount) noexcept {
  return mem_reg(opcode::ldr, rd, base, offset, lsl_amount);
}
instruction ldrb_reg(reg rd, reg base, reg offset,
                     std::uint8_t lsl_amount) noexcept {
  return mem_reg(opcode::ldrb, rd, base, offset, lsl_amount);
}
instruction str_reg(reg rd, reg base, reg offset,
                    std::uint8_t lsl_amount) noexcept {
  return mem_reg(opcode::str, rd, base, offset, lsl_amount);
}
instruction strb_reg(reg rd, reg base, reg offset,
                     std::uint8_t lsl_amount) noexcept {
  return mem_reg(opcode::strb, rd, base, offset, lsl_amount);
}

instruction b(std::int32_t offset, condition cond) noexcept {
  instruction i;
  i.op = opcode::b;
  i.cond = cond;
  i.branch_offset = offset;
  return i;
}

instruction bl(std::int32_t offset) noexcept {
  instruction i;
  i.op = opcode::bl;
  i.branch_offset = offset;
  return i;
}

instruction bx(reg rm) noexcept {
  instruction i;
  i.op = opcode::bx;
  i.op2 = operand2::make_reg(rm);
  return i;
}

} // namespace ins

} // namespace usca::isa
