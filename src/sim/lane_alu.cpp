#include "sim/lane_alu.h"

#include <algorithm>

namespace usca::sim {

namespace {

using isa::opcode;

/// f(l) for every lane of `mask`.
template <typename F>
[[gnu::always_inline]] inline void each_lane(std::uint64_t mask, F&& f) {
  if (const std::size_t n = contiguous_lanes(mask); n != 0) {
    for (std::size_t l = 0; l < n; ++l) {
      f(l);
    }
    return;
  }
  for (const std::size_t l : lanes_in(mask)) {
    f(l);
  }
}

/// The lanes of `mask` where pred(l) holds.
template <typename P>
[[gnu::always_inline]] inline std::uint64_t lanes_where(std::uint64_t mask,
                                                        P&& pred) {
  std::uint64_t out = 0;
  each_lane(mask, [&](std::size_t l) {
    out |= std::uint64_t{static_cast<bool>(pred(l))} << l;
  });
  return out;
}

[[gnu::always_inline]] inline std::uint32_t bit(std::uint64_t mask,
                                                std::size_t l) {
  return static_cast<std::uint32_t>((mask >> l) & 1U);
}

/// `flag` takes `bits` on the lanes of `mask` and keeps the rest.
[[gnu::always_inline]] inline void assign(std::uint64_t& flag,
                                          std::uint64_t bits,
                                          std::uint64_t mask) {
  flag = (flag & ~mask) | (bits & mask);
}

/// apply_shift of in[l] by amount(l) over the lanes of `mask`; returns
/// the carry-out lanes when `want_carry`, else `carry_in`.  Each kind is
/// a pair of branch-free lane bodies for the value and, at a non-zero
/// amount, the carry; an amount of 0 leaves the value as it is in every
/// body and passes carry_in through.
template <typename Amount>
std::uint64_t shift_lanes(isa::shift_kind kind,
                          const std::uint32_t* __restrict in, Amount amount,
                          std::uint64_t carry_in, std::uint64_t mask,
                          std::uint32_t* __restrict out, bool want_carry) {
  const auto run = [&](auto&& value, auto&& carry) {
    each_lane(mask, [&](std::size_t l) { out[l] = value(in[l], amount(l)); });
    if (!want_carry) {
      return carry_in;
    }
    return lanes_where(mask, [&](std::size_t l) {
      const std::uint32_t s = amount(l);
      return s == 0 ? bit(carry_in, l) : carry(in[l], s);
    });
  };
  using u32 = std::uint32_t;
  using u64 = std::uint64_t;
  const auto widen = [](u32 x) {
    return static_cast<std::int64_t>(static_cast<std::int32_t>(x));
  };
  switch (kind) {
  case isa::shift_kind::lsl:
    // Widened to 64 bits and clamped at 33, bit 32 is the last bit
    // shifted out: bit 0 at 32, nothing past it.
    return run(
        [](u32 x, u32 s) {
          return static_cast<u32>(u64{x} << std::min(s, 33U));
        },
        [](u32 x, u32 s) {
          return static_cast<u32>((u64{x} << std::min(s, 33U)) >> 32) & 1U;
        });
  case isa::shift_kind::lsr:
    // Bit s - 1 of x is bit s of x shifted up by one; none past 33.
    return run(
        [](u32 x, u32 s) {
          return static_cast<u32>(u64{x} >> std::min(s, 32U));
        },
        [](u32 x, u32 s) {
          return static_cast<u32>((u64{x} << 1) >> std::min(s, 33U)) & 1U;
        });
  case isa::shift_kind::asr:
    // Past 31 every bit is the sign.
    return run(
        [widen](u32 x, u32 s) {
          return static_cast<u32>(widen(x) >> std::min(s, 32U));
        },
        [widen](u32 x, u32 s) {
          return static_cast<u32>(static_cast<u64>(widen(x)) >>
                                  (std::min(s, 32U) - 1)) &
                 1U;
        });
  case isa::shift_kind::ror:
    // A non-zero multiple of 32 leaves x and carries its MSB — the MSB
    // of the result, as every other rotation does.
    return run(
        [](u32 x, u32 s) { return std::rotr(x, static_cast<int>(s & 31U)); },
        [](u32 x, u32 s) {
          return std::rotr(x, static_cast<int>(s & 31U)) >> 31;
        });
  }
  return carry_in;
}

} // namespace

std::uint64_t condition_lanes(isa::condition cond, const lane_flags& f,
                              std::uint64_t mask) noexcept {
  using isa::condition;
  const std::uint64_t ge = ~(f.n ^ f.v);
  switch (cond) {
  case condition::eq:
    return mask & f.z;
  case condition::ne:
    return mask & ~f.z;
  case condition::cs:
    return mask & f.c;
  case condition::cc:
    return mask & ~f.c;
  case condition::mi:
    return mask & f.n;
  case condition::pl:
    return mask & ~f.n;
  case condition::vs:
    return mask & f.v;
  case condition::vc:
    return mask & ~f.v;
  case condition::hi:
    return mask & f.c & ~f.z;
  case condition::ls:
    return mask & (~f.c | f.z);
  case condition::ge:
    return mask & ge;
  case condition::lt:
    return mask & ~ge;
  case condition::gt:
    return mask & ~f.z & ge;
  case condition::le:
    return mask & (f.z | ~ge);
  case condition::al:
    return mask;
  case condition::nv:
    return 0;
  }
  return 0;
}

void copy_lanes(const std::uint32_t* __restrict values, std::uint64_t mask,
                std::uint32_t* __restrict out) noexcept {
  each_lane(mask, [&](std::size_t l) { out[l] = values[l]; });
}

std::uint64_t operand2_lanes(const isa::instruction& ins,
                             const lane_regs& regs, std::uint64_t carry_in,
                             std::uint64_t mask,
                             std::uint32_t* value) noexcept {
  const isa::operand2& op2 = ins.op2;
  if (op2.k != isa::operand2::kind::reg_shifted) {
    const std::uint32_t imm =
        op2.k == isa::operand2::kind::immediate ? op2.imm : 0U;
    each_lane(mask, [&](std::size_t l) { value[l] = imm; });
    return carry_in;
  }
  const std::uint32_t* rm = regs[isa::index_of(op2.rm)].data();
  if (!op2.shift.active()) {
    copy_lanes(rm, mask, value);
    return carry_in;
  }
  const bool want_carry = isa::writes_flags(ins);
  if (op2.shift.by_register) {
    const std::uint32_t* amount =
        regs[isa::index_of(op2.shift.amount_reg)].data();
    return shift_lanes(
        op2.shift.kind, rm,
        [amount](std::size_t l) { return amount[l] & 0xffU; }, carry_in,
        mask, value, want_carry);
  }
  return shift_lanes(
      op2.shift.kind, rm,
      [s = std::uint32_t{op2.shift.amount}](std::size_t) { return s; },
      carry_in, mask, value, want_carry);
}

void dp_lanes(const isa::instruction& ins, const lane_regs& regs,
              const std::uint32_t* op2, std::uint64_t shifter_carry,
              std::uint64_t mask, std::uint32_t* __restrict result,
              lane_flags& flags) noexcept {
  const std::uint32_t* a = regs[isa::index_of(ins.rn)].data();
  const std::uint32_t* b = op2;
  const bool flag_writer = isa::writes_flags(ins);
  const std::uint64_t carry_in = flags.c;
  const auto value = [&](auto&& f) {
    each_lane(mask, [&](std::size_t l) { result[l] = f(l); });
  };
  const auto set_nz = [&] {
    assign(flags.n,
           lanes_where(mask, [&](std::size_t l) { return result[l] >> 31; }),
           mask);
    assign(flags.z,
           lanes_where(mask, [&](std::size_t l) { return result[l] == 0; }),
           mask);
  };
  // Logical ops: NZ of the result, C from the shifter, V kept.
  const auto logical = [&](auto&& f) {
    value(f);
    if (flag_writer) {
      set_nz();
      assign(flags.c, shifter_carry, mask);
    }
  };
  // x + y' + carry(l), y' being y or ~y: execute_dp's add_with_carry.
  const auto arith = [&](const std::uint32_t* x, const std::uint32_t* y,
                         bool invert_y, auto&& carry) {
    const auto y_of = [&](std::size_t l) { return invert_y ? ~y[l] : y[l]; };
    value([&](std::size_t l) { return x[l] + y_of(l) + carry(l); });
    if (flag_writer) {
      const std::uint64_t c = lanes_where(mask, [&](std::size_t l) {
        return (std::uint64_t{x[l]} + y_of(l) + carry(l)) >> 32;
      });
      const std::uint64_t v = lanes_where(mask, [&](std::size_t l) {
        return (~(x[l] ^ y_of(l)) & (x[l] ^ result[l])) >> 31;
      });
      set_nz();
      assign(flags.c, c, mask);
      assign(flags.v, v, mask);
    }
  };
  const auto zero = [](std::size_t) { return 0U; };
  const auto one = [](std::size_t) { return 1U; };
  const auto flag_c = [carry_in](std::size_t l) { return bit(carry_in, l); };

  switch (ins.op) {
  case opcode::mov:
    logical([&](std::size_t l) { return b[l]; });
    return;
  case opcode::mvn:
    logical([&](std::size_t l) { return ~b[l]; });
    return;
  case opcode::and_:
  case opcode::tst:
    logical([&](std::size_t l) { return a[l] & b[l]; });
    return;
  case opcode::eor:
  case opcode::teq:
    logical([&](std::size_t l) { return a[l] ^ b[l]; });
    return;
  case opcode::orr:
    logical([&](std::size_t l) { return a[l] | b[l]; });
    return;
  case opcode::bic:
    logical([&](std::size_t l) { return a[l] & ~b[l]; });
    return;
  case opcode::add:
  case opcode::cmn:
    arith(a, b, false, zero);
    return;
  case opcode::adc:
    arith(a, b, false, flag_c);
    return;
  case opcode::sub:
  case opcode::cmp:
    arith(a, b, true, one);
    return;
  case opcode::sbc:
    arith(a, b, true, flag_c);
    return;
  case opcode::rsb:
    arith(b, a, true, one);
    return;
  case opcode::movw:
    value([imm = std::uint32_t{ins.imm16}](std::size_t) { return imm; });
    return;
  case opcode::movt: {
    const std::uint32_t* rd = regs[isa::index_of(ins.rd)].data();
    const std::uint32_t high = std::uint32_t{ins.imm16} << 16;
    value([&](std::size_t l) { return (rd[l] & 0xffffU) | high; });
    return;
  }
  case opcode::mul:
  case opcode::mla: {
    const std::uint32_t* rm = regs[isa::index_of(ins.op2.rm)].data();
    const std::uint32_t* ra = regs[isa::index_of(ins.ra)].data();
    if (ins.op == opcode::mla) {
      value([&](std::size_t l) { return a[l] * rm[l] + ra[l]; });
    } else {
      value([&](std::size_t l) { return a[l] * rm[l]; });
    }
    if (ins.set_flags) {
      set_nz();
    }
    return;
  }
  default:
    return;
  }
}

void address_lanes(const isa::mem_operand& mem, const lane_regs& regs,
                   std::uint64_t mask,
                   std::uint32_t* __restrict address) noexcept {
  const std::uint32_t* base = regs[isa::index_of(mem.base)].data();
  const std::uint32_t* index = regs[isa::index_of(mem.offset_reg)].data();
  const auto offset = [&](std::size_t l) {
    return mem.reg_offset ? index[l] << mem.offset_shift : mem.offset_imm;
  };
  if (mem.subtract) {
    each_lane(mask, [&](std::size_t l) { address[l] = base[l] - offset(l); });
  } else {
    each_lane(mask, [&](std::size_t l) { address[l] = base[l] + offset(l); });
  }
}

} // namespace usca::sim
