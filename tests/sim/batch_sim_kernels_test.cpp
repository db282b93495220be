// Identity of the batch-wide lane kernels with their scalar oracles.
//
//  * Noise: every noise kernel set, and the synthesizer's batch-wide
//    synthesize_columns, must render each lane's column exactly as
//    reseed(seed) + synthesize_column does — the per-lane next_gaussian()
//    loop — and report the same Gaussian work.  Fuzzed over lane counts
//    1-32, masks with holes, sample counts around the AES round-1 window
//    (559, 560) and the whole run (5181), the degenerate 0-3, and the
//    averaging 2, 4 and 16, with -0.0 and huge clean samples.
//  * Emission: every fused-emission set (baseline, AVX2, AVX-512) on
//    random rows, states and hostile weights, and on a directed case a
//    fused multiply-add would get wrong.
//  * Datapath: the lane ALU kernels (sim/lane_alu.h) lane by lane against
//    sim::alu's eval_operand2 / execute_dp / apply_shift and the
//    per-trace cores' movw/movt/mul/mla formulas — every DP opcode, every
//    operand-2 form, with and without S, random operands and NZCV, over a
//    full lane mask, a partial one and holed ones; lanes outside the mask
//    keep their row values and flag bits.
//
// Each set runs where the CPU runs it; the dispatch tests expect the
// widest of those to be active.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "power/noise_kernels.h"
#include "power/second_core.h"
#include "power/synthesizer.h"
#include "sim/alu.h"
#include "sim/batch_sim.h"
#include "sim/lane_alu.h"
#include "sim/micro_arch_config.h"
#include "util/rng.h"
#include "util/telemetry.h"

namespace usca {
namespace {

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](double x, double y) {
                      return std::bit_cast<std::uint64_t>(x) ==
                             std::bit_cast<std::uint64_t>(y);
                    });
}

/// A random cycle-major clean tile of `rows` x `lanes`, with the values a
/// fused tile can hold: baselines, -0.0, and large sums.
std::vector<double> random_tile(util::xoshiro256& rng, std::size_t rows,
                                std::size_t lanes) {
  std::vector<double> tile(rows * lanes);
  for (double& v : tile) {
    switch (rng.bounded(8)) {
    case 0:
      v = -0.0;
      break;
    case 1:
      v = 1e300 * (rng.next_double() - 0.5);
      break;
    default:
      v = 5.0 + 40.0 * rng.next_double();
    }
  }
  return tile;
}

/// A non-empty random lane mask below `lanes`; every third one is full.
std::uint64_t random_mask(util::xoshiro256& rng, std::size_t lanes,
                          std::size_t trial) {
  const std::uint64_t full =
      lanes == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
  if (trial % 3 == 0) {
    return full;
  }
  std::uint64_t mask = 0;
  while (mask == 0) {
    mask = rng() & full;
  }
  return mask;
}

struct noise_case {
  std::size_t lanes;
  std::uint64_t mask;
  std::size_t samples;
  int executions;
  std::vector<double> tile;
  std::array<std::uint64_t, sim::max_batch_lanes> seeds{};
};

std::vector<noise_case> noise_cases() {
  constexpr std::array<std::size_t, 7> sample_counts = {0,   1,   2,   3,
                                                        559, 560, 5181};
  constexpr std::array<int, 3> averaging = {2, 4, 16};
  util::xoshiro256 rng(0x7015e);
  std::vector<noise_case> cases;
  // 32 lane counts x 3 rounds; the sample counts and averagings cycle
  // through every combination several times.
  for (std::size_t trial = 0; trial < 96; ++trial) {
    noise_case c;
    c.lanes = 1 + trial % 32;
    c.mask = random_mask(rng, c.lanes, trial);
    c.samples = sample_counts[trial % sample_counts.size()];
    c.executions = averaging[(trial / sample_counts.size()) % 3];
    c.tile = random_tile(rng, c.samples, c.lanes);
    for (std::size_t l = 0; l < c.lanes; ++l) {
      c.seeds[l] = rng();
    }
    cases.push_back(std::move(c));
  }
  return cases;
}

std::string name_of(const noise_case& c) {
  return "lanes=" + std::to_string(c.lanes) + " mask=" +
         std::to_string(c.mask) + " samples=" + std::to_string(c.samples) +
         " executions=" + std::to_string(c.executions);
}

/// The oracle: lane by lane, reseed and synthesize_column; also returns
/// the Gaussian work the scalar loop drew.
std::vector<power::trace> oracle(const noise_case& c,
                                 const power::synthesis_config& config,
                                 power::noise_work& work) {
  power::trace_synthesizer synth(config, 0);
  std::vector<power::trace> out(c.lanes);
  for (std::size_t l = 0; l < c.lanes; ++l) {
    if ((c.mask >> l) & 1U) {
      synth.reseed(c.seeds[l]);
      out[l] = synth.synthesize_column(c.tile.data() + l, c.lanes,
                                       c.samples, c.executions);
      work.deviates += synth.rng().gaussian_deviates();
      work.candidates += synth.rng().gaussian_candidates();
    }
  }
  return out;
}

/// Runs one kernel set on the case; lanes outside the mask have no
/// output row, so a kernel touching them would crash.
std::vector<power::trace> run_kernel(const power::noise_kernels& kernels,
                                     const noise_case& c, double sigma,
                                     power::noise_workspace& ws,
                                     power::noise_work& work) {
  std::vector<power::trace> out(c.lanes);
  std::array<double*, sim::max_batch_lanes> rows{};
  for (std::size_t l = 0; l < c.lanes; ++l) {
    if ((c.mask >> l) & 1U) {
      out[l].assign(c.samples, std::numeric_limits<double>::quiet_NaN());
      rows[l] = out[l].data();
    }
  }
  work = kernels.add_columns({c.tile.data(), c.lanes, c.samples, sigma,
                              c.mask, c.seeds.data(), rows.data()},
                             ws);
  return out;
}

void expect_same_columns(const std::vector<power::trace>& expected,
                         const std::vector<power::trace>& actual,
                         const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (std::size_t l = 0; l < expected.size(); ++l) {
    EXPECT_TRUE(same_bits(expected[l], actual[l]))
        << what << " lane " << l;
  }
}

/// Every noise set this CPU runs, narrowest first.
std::vector<const power::noise_kernels*> noise_sets() {
  std::vector<const power::noise_kernels*> sets = {
      &power::scalar_noise_kernels()};
  for (const power::noise_kernels* set :
       {power::avx2_noise_kernels(), power::avx512_noise_kernels()}) {
    if (set != nullptr) {
      sets.push_back(set);
    }
  }
  return sets;
}

// The identity tests cover the sets this host runs.  Where the AVX-512
// set is missing, this test is reported skipped under its name, so the
// coverage gap shows instead of vanishing from the loops.
TEST(NoiseKernels, Avx512SetIsCovered) {
  const power::noise_kernels* set = power::avx512_noise_kernels();
  if (set == nullptr) {
    GTEST_SKIP() << "no AVX-512 noise set on this host or build: its "
                    "bit-identity checks did not run";
  }
  EXPECT_EQ(noise_sets().back(), set);
}

TEST(NoiseKernels, EverySetEqualsTheScalarLoopBitwise) {
  power::synthesis_config config;
  for (const double sigma : {2.0, 0.37}) {
    config.gaussian_sigma = sigma;
    for (const power::noise_kernels* kernels : noise_sets()) {
      // One workspace across all cases: stale candidates of a longer job
      // must not leak into a shorter one.
      power::noise_workspace ws;
      for (const noise_case& c : noise_cases()) {
        const std::string what = std::string(kernels->name) + " sigma=" +
                                 std::to_string(sigma) + " " + name_of(c);
        power::noise_work expected_work;
        const std::vector<power::trace> expected =
            oracle(c, config, expected_work);
        power::noise_work work;
        const std::vector<power::trace> actual = run_kernel(
            *kernels, c,
            sigma / std::sqrt(static_cast<double>(c.executions)), ws, work);
        expect_same_columns(expected, actual, what);
        EXPECT_EQ(work.deviates, expected_work.deviates) << what;
        EXPECT_EQ(work.candidates, expected_work.candidates) << what;
      }
    }
  }
}

TEST(NoiseKernels, WidestSetIsDispatched) {
  EXPECT_EQ(&power::active_noise_kernels(), noise_sets().back());
}

/// synthesize_columns on a case, into fresh records.
std::vector<power::trace> synthesize_columns(power::trace_synthesizer& synth,
                                             const noise_case& c) {
  std::vector<power::trace> out(c.lanes);
  std::array<power::trace*, sim::max_batch_lanes> records{};
  for (std::size_t l = 0; l < c.lanes; ++l) {
    if ((c.mask >> l) & 1U) {
      records[l] = &out[l];
    }
  }
  synth.synthesize_columns(c.tile.data(), c.lanes, c.samples, c.executions,
                           c.mask, c.seeds.data(), records.data());
  return out;
}

// The synthesizer's batch-wide call equals the per-lane oracle on every
// config: the kernel for bare-metal averaging, lane by lane otherwise
// (OS noise, a second core, one execution), and counts the traces whose
// noise took the scalar path.
TEST(NoiseKernels, SynthesizeColumnsEqualsPerLaneColumns) {
  const telem::counter scalar_traces{"synth.scalar_noise_traces", "traces",
                                     "synth"};
  const telem::counter deviates{"synth.gaussian_deviates", "deviates",
                                "synth"};
  const telem::counter candidates{"synth.gaussian_candidates", "pairs",
                                  "synth"};
  power::synthesis_config os_noise;
  os_noise.os_noise.enabled = true;
  const auto second_core = std::make_shared<const power::second_core_noise>(
      sim::cortex_a7(), power::leakage_weights::cortex_a7_like(), 7, 512);
  std::vector<noise_case> cases = noise_cases();
  for (const int variant : {0, 1, 2, 3}) {
    // 0: bare metal; 1: OS noise; 2: second core; 3: one execution.
    const power::synthesis_config config =
        variant == 1 ? os_noise : power::synthesis_config{};
    for (noise_case c : cases) {
      if (variant == 3) {
        c.executions = 1;
      }
      const std::string what = "variant " + std::to_string(variant) + " " +
                               name_of(c);
      power::trace_synthesizer reference(config, 0);
      power::trace_synthesizer batched(config, 0);
      if (variant == 2) {
        reference.attach_second_core(second_core);
        batched.attach_second_core(second_core);
      }
      std::vector<power::trace> expected(c.lanes);
      const std::uint64_t deviates_before = deviates.value();
      const std::uint64_t candidates_before = candidates.value();
      for (std::size_t l = 0; l < c.lanes; ++l) {
        if ((c.mask >> l) & 1U) {
          reference.reseed(c.seeds[l]);
          expected[l] = reference.synthesize_column(
              c.tile.data() + l, c.lanes, c.samples, c.executions);
        }
      }
      const std::uint64_t oracle_deviates = deviates.value() - deviates_before;
      const std::uint64_t oracle_candidates =
          candidates.value() - candidates_before;
      const std::uint64_t scalar_before = scalar_traces.value();
      expect_same_columns(expected, synthesize_columns(batched, c), what);
      EXPECT_EQ(deviates.value() - deviates_before, 2 * oracle_deviates)
          << what;
      EXPECT_EQ(candidates.value() - candidates_before,
                2 * oracle_candidates)
          << what;
      const bool kernel = variant == 0 && &power::active_noise_kernels() !=
                                              &power::scalar_noise_kernels();
      EXPECT_EQ(scalar_traces.value() - scalar_before,
                kernel ? 0U
                       : static_cast<std::uint64_t>(std::popcount(c.mask)))
          << what;
    }
  }
}

// ------------------------------------------------------------ emission

/// Every emission set this CPU runs, narrowest first.
std::vector<const sim::emit_kernels*> emit_sets() {
  std::vector<const sim::emit_kernels*> sets = {
      &sim::baseline_emit_kernels()};
  for (const sim::emit_kernels* set :
       {sim::avx2_emit_kernels(), sim::avx512_emit_kernels()}) {
    if (set != nullptr) {
      sets.push_back(set);
    }
  }
  return sets;
}

// As for noise: a missing AVX-512 emission set is reported skipped.
TEST(EmitKernels, Avx512SetIsCovered) {
  const sim::emit_kernels* set = sim::avx512_emit_kernels();
  if (set == nullptr) {
    GTEST_SKIP() << "no AVX-512 emission set on this host or build: its "
                    "bit-identity checks did not run";
  }
  EXPECT_EQ(emit_sets().back(), set);
}

TEST(EmitKernels, WidestSetIsDispatched) {
  EXPECT_EQ(&sim::active_emit_kernels(), emit_sets().back());
}

TEST(EmitKernels, EverySetEqualsTheBaselineBitwise) {
  const sim::emit_kernels& baseline = sim::baseline_emit_kernels();
  const std::array<double, 8> weights = {
      1.0, 0.12, -0.0, 0.0, 1e300, -1.25, 7e-310,
      std::numeric_limits<double>::infinity()};
  util::xoshiro256 rng(0xe1175);
  for (std::size_t trial = 0; trial < 400; ++trial) {
    const std::size_t n = trial % (sim::max_batch_lanes + 1);
    const double weight = weights[trial % weights.size()];
    std::vector<double> row(n);
    std::vector<std::uint32_t> state(n);
    std::vector<std::uint32_t> values(n);
    for (std::size_t l = 0; l < n; ++l) {
      row[l] = rng.bounded(5) == 0 ? -0.0 : 1e3 * (rng.next_double() - 0.5);
      state[l] = rng.next_u32();
      // Every fourth lane repeats its state: no toggles, no addition.
      values[l] = l % 4 == 0 ? state[l] : rng.next_u32();
      if (rng.bounded(6) == 0) {
        values[l] = 0;
      }
    }
    const std::string what =
        "n=" + std::to_string(n) + " weight=" + std::to_string(weight);

    std::vector<double> row_base = row;
    std::vector<std::uint32_t> state_base = state;
    baseline.drive(row_base.data(), weight, state_base.data(), values.data(),
                   n);
    EXPECT_EQ(state_base, values) << "drive " << what;
    std::vector<double> weigh_base = row;
    baseline.weigh(weigh_base.data(), weight, values.data(), n);

    for (const sim::emit_kernels* kernels : emit_sets()) {
      std::vector<double> row_set = row;
      std::vector<std::uint32_t> state_set = state;
      kernels->drive(row_set.data(), weight, state_set.data(), values.data(),
                     n);
      EXPECT_TRUE(same_bits(row_base, row_set))
          << kernels->name << " drive " << what;
      EXPECT_EQ(state_set, values) << kernels->name << " drive " << what;

      row_set = row;
      kernels->weigh(row_set.data(), weight, values.data(), n);
      EXPECT_TRUE(same_bits(weigh_base, row_set))
          << kernels->name << " weigh " << what;
    }
  }
}

/// A sample whose fused multiply-add differs from the two-rounding sum:
/// weight 1/3 times 3 toggles is 1 - 2^-54 exactly, which rounds to 1.0,
/// so -1.0 + round(weight * 3) is +0.0 while fma(weight, 3, -1.0) is
/// -2^-54.  A kernel that contracts `row + weight * toggles` fails here
/// on every lane, whatever the fuzz draws.
TEST(EmitKernels, NoSetContractsTheWeightedAdd) {
  const double weight = 1.0 / 3.0;
  ASSERT_NE(std::fma(weight, 3.0, -1.0), 0.0);
  for (const sim::emit_kernels* kernels : emit_sets()) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                                sim::max_batch_lanes}) {
      // Every fifth lane repeats its state and keeps -1.0; the others
      // toggle three bits.
      std::vector<double> row(n, -1.0);
      std::vector<std::uint32_t> state(n, 0x10U);
      std::vector<std::uint32_t> values(n);
      for (std::size_t l = 0; l < n; ++l) {
        values[l] = l % 5 == 4 ? state[l] : 0x10U ^ (0x7U << (l % 20));
      }
      kernels->drive(row.data(), weight, state.data(), values.data(), n);
      for (std::size_t l = 0; l < n; ++l) {
        const double expect = l % 5 == 4 ? -1.0 : 0.0;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(row[l]),
                  std::bit_cast<std::uint64_t>(expect))
            << kernels->name << " drive n=" << n << " lane " << l;
      }
      std::vector<std::uint32_t> weights_of(n);
      for (std::size_t l = 0; l < n; ++l) {
        weights_of[l] = l % 5 == 4 ? 0U : 0x7U << (l % 20);
      }
      std::fill(row.begin(), row.end(), -1.0);
      kernels->weigh(row.data(), weight, weights_of.data(), n);
      for (std::size_t l = 0; l < n; ++l) {
        const double expect = l % 5 == 4 ? -1.0 : 0.0;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(row[l]),
                  std::bit_cast<std::uint64_t>(expect))
            << kernels->name << " weigh n=" << n << " lane " << l;
      }
    }
  }
}

// ------------------------------------------------------------ datapath

/// Register file with hostile values mixed in: 0, all ones, the sign
/// boundary, and register r9's low byte set to a shift amount of 0, 1,
/// 31, 32, 33 or 255 over random upper bytes.
sim::lane_regs random_lane_regs(util::xoshiro256& rng) {
  static constexpr std::array<std::uint32_t, 4> edges = {
      0U, 0xffffffffU, 0x80000000U, 0x7fffffffU};
  static constexpr std::array<std::uint32_t, 6> amounts = {0, 1, 31,
                                                           32, 33, 255};
  sim::lane_regs regs{};
  for (sim::lane_row& row : regs) {
    for (std::uint32_t& v : row) {
      v = rng.bounded(4) == 0 ? edges[rng.bounded(4)] : rng.next_u32();
    }
  }
  for (std::uint32_t& v : regs[9]) {
    v = (rng.next_u32() & ~0xffU) | amounts[rng.bounded(amounts.size())];
  }
  return regs;
}

/// Every operand-2 form a data-processing instruction can take.
std::vector<isa::operand2> operand2_forms(util::xoshiro256& rng) {
  using isa::operand2;
  using isa::shift_kind;
  std::vector<operand2> forms;
  forms.push_back(operand2::make_imm(rng.next_u32()));
  forms.push_back(operand2{});
  forms.push_back(operand2::make_reg(isa::reg::r2));
  for (const shift_kind kind : {shift_kind::lsl, shift_kind::lsr,
                                shift_kind::asr, shift_kind::ror}) {
    for (const std::uint8_t amount : {0, 1, 31}) {
      isa::shift_spec shift;
      shift.kind = kind;
      shift.amount = amount;
      forms.push_back(operand2::make_reg(isa::reg::r2, shift));
    }
    isa::shift_spec by_reg;
    by_reg.kind = kind;
    by_reg.by_register = true;
    by_reg.amount_reg = isa::reg::r9;
    forms.push_back(operand2::make_reg(isa::reg::r2, by_reg));
  }
  return forms;
}

std::string describe(const isa::instruction& ins) {
  std::string out(isa::opcode_mnemonic(ins.op));
  out += ins.set_flags ? "s" : "";
  out += " op2.k=" + std::to_string(static_cast<int>(ins.op2.k));
  if (ins.op2.k == isa::operand2::kind::reg_shifted) {
    out += " shift=" + std::to_string(static_cast<int>(ins.op2.shift.kind)) +
           (ins.op2.shift.by_register
                ? " by r9"
                : " #" + std::to_string(ins.op2.shift.amount));
  }
  return out;
}

TEST(LaneAluKernels, EqualTheScalarAluLaneByLane) {
  using isa::opcode;
  constexpr std::array<opcode, 19> ops = {
      opcode::mov, opcode::mvn, opcode::add,  opcode::adc,  opcode::sub,
      opcode::sbc, opcode::rsb, opcode::and_, opcode::orr,  opcode::eor,
      opcode::bic, opcode::cmp, opcode::cmn,  opcode::tst,  opcode::teq,
      opcode::movw, opcode::movt, opcode::mul, opcode::mla};
  util::xoshiro256 rng(0xa1u);
  std::size_t checked = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const sim::lane_regs regs = random_lane_regs(rng);
    const sim::lane_flags before{rng(), rng(),
                                 rng(), rng()};
    // Full, partial (lanes 0..n-1) and holed masks.
    const std::array<std::uint64_t, 4> masks = {
        ~std::uint64_t{0}, (std::uint64_t{1} << (1 + trial % 40)) - 1,
        rng(), rng() & rng() & ~std::uint64_t{1}};
    for (const std::uint64_t mask : masks) {
      for (const isa::operand2& op2 : operand2_forms(rng)) {
        for (const opcode op : ops) {
          for (const bool s : {false, true}) {
            isa::instruction ins;
            ins.op = op;
            ins.rd = isa::reg::r1;
            ins.rn = isa::reg::r3;
            ins.ra = isa::reg::r4;
            ins.imm16 = static_cast<std::uint16_t>(rng.next_u32());
            ins.set_flags = s;
            const bool wide = op == opcode::movw || op == opcode::movt;
            const bool mul = op == opcode::mul || op == opcode::mla;
            ins.op2 = mul ? isa::operand2::make_reg(isa::reg::r2) : op2;
            if (wide) {
              ins.op2 = {};
            }
            SCOPED_TRACE(describe(ins) + " mask=" + std::to_string(mask));

            // Operand 2.
            sim::lane_row value;
            for (std::uint32_t& v : value) {
              v = rng.next_u32();
            }
            const sim::lane_row value_before = value;
            std::uint64_t carry = 0;
            if (!wide && !mul) {
              carry = sim::operand2_lanes(ins, regs, before.c, mask,
                                          value.data());
            }
            // Result and flags.
            sim::lane_row result;
            for (std::uint32_t& v : result) {
              v = rng.next_u32();
            }
            const sim::lane_row result_before = result;
            sim::lane_flags flags = before;
            sim::dp_lanes(ins, regs, value.data(), carry, mask,
                          result.data(), flags);

            for (std::size_t l = 0; l < sim::max_batch_lanes; ++l) {
              const isa::flags f0 = before.lane(l);
              if (((mask >> l) & 1U) == 0) {
                ASSERT_EQ(result[l], result_before[l]) << "lane " << l;
                ASSERT_EQ(flags.lane(l), f0) << "lane " << l;
                if (!wide && !mul) {
                  ASSERT_EQ(value[l], value_before[l]) << "lane " << l;
                }
                continue;
              }
              const auto reg_of = [&](isa::reg r) {
                return regs[isa::index_of(r)][l];
              };
              std::uint32_t expect_value = 0;
              isa::flags expect_flags = f0;
              if (wide) {
                expect_value = op == opcode::movw
                                   ? ins.imm16
                                   : (reg_of(ins.rd) & 0xffffU) |
                                         (std::uint32_t{ins.imm16} << 16);
              } else if (mul) {
                expect_value = reg_of(ins.rn) * reg_of(ins.op2.rm) +
                               (op == opcode::mla ? reg_of(ins.ra) : 0U);
                if (s) {
                  expect_flags.n = (expect_value >> 31) != 0;
                  expect_flags.z = expect_value == 0;
                }
              } else {
                const sim::operand2_value o =
                    sim::eval_operand2(ins, reg_of, f0.c);
                ASSERT_EQ(value[l], o.value) << "op2, lane " << l;
                if (isa::writes_flags(ins)) {
                  ASSERT_EQ(((carry >> l) & 1U) != 0, o.carry)
                      << "shifter carry, lane " << l;
                }
                const sim::alu_result r = sim::execute_dp(
                    op, reg_of(ins.rn), o.value, o.carry, f0);
                expect_value = r.value;
                if (isa::writes_flags(ins)) {
                  expect_flags = r.f;
                }
              }
              ASSERT_EQ(result[l], expect_value) << "lane " << l;
              ASSERT_EQ(flags.lane(l), expect_flags) << "lane " << l;
              ++checked;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 100000u);
}

TEST(LaneAluKernels, ShiftsMatchApplyShiftAtEveryAmount) {
  // operand2_lanes of a flag-setting mov is apply_shift itself: value and
  // carry-out of every kind at every register amount 0..255.
  util::xoshiro256 rng(0x5f17);
  for (const isa::shift_kind kind :
       {isa::shift_kind::lsl, isa::shift_kind::lsr, isa::shift_kind::asr,
        isa::shift_kind::ror}) {
    for (std::uint32_t base = 0; base < 256; base += sim::max_batch_lanes) {
      sim::lane_regs regs = random_lane_regs(rng);
      for (std::size_t l = 0; l < sim::max_batch_lanes; ++l) {
        regs[9][l] = (rng.next_u32() & ~0xffU) |
                     static_cast<std::uint32_t>(base + l);
      }
      const std::uint64_t carry_in = rng();
      isa::shift_spec by_reg;
      by_reg.kind = kind;
      by_reg.by_register = true;
      by_reg.amount_reg = isa::reg::r9;
      isa::instruction ins;
      ins.op = isa::opcode::mov;
      ins.set_flags = true;
      ins.op2 = isa::operand2::make_reg(isa::reg::r2, by_reg);
      sim::lane_row out{};
      const std::uint64_t carry = sim::operand2_lanes(
          ins, regs, carry_in, ~std::uint64_t{0}, out.data());
      for (std::size_t l = 0; l < sim::max_batch_lanes; ++l) {
        SCOPED_TRACE(std::to_string(static_cast<int>(kind)) + " by " +
                     std::to_string(base + l));
        const sim::shift_result expect =
            sim::apply_shift(regs[2][l], kind, base + l,
                             ((carry_in >> l) & 1U) != 0);
        ASSERT_EQ(out[l], expect.value);
        ASSERT_EQ(((carry >> l) & 1U) != 0, expect.carry);
      }
    }
  }
}

TEST(LaneAluKernels, ConditionsAndAddressesMatchTheScalarForms) {
  util::xoshiro256 rng(0xc0dd);
  for (int trial = 0; trial < 64; ++trial) {
    const sim::lane_flags f{rng(), rng(), rng(),
                            rng()};
    const std::uint64_t mask = trial % 2 == 0 ? ~std::uint64_t{0}
                                              : rng();
    for (std::uint8_t c = 0; c < 16; ++c) {
      const auto cond = static_cast<isa::condition>(c);
      const std::uint64_t pass = sim::condition_lanes(cond, f, mask);
      for (std::size_t l = 0; l < sim::max_batch_lanes; ++l) {
        const bool expect = ((mask >> l) & 1U) != 0 &&
                            isa::condition_passes(cond, f.lane(l));
        ASSERT_EQ(((pass >> l) & 1U) != 0, expect)
            << "cond " << int{c} << " lane " << l;
      }
    }

    const sim::lane_regs regs = random_lane_regs(rng);
    isa::mem_operand mem;
    mem.base = isa::reg::r5;
    mem.reg_offset = rng.bounded(2) == 0;
    mem.subtract = rng.bounded(2) == 0;
    mem.offset_imm = static_cast<std::uint32_t>(rng.bounded(4096));
    mem.offset_reg = isa::reg::r6;
    mem.offset_shift = static_cast<std::uint8_t>(rng.bounded(32));
    sim::lane_row address;
    address.fill(0xdeadbeefU);
    sim::address_lanes(mem, regs, mask, address.data());
    for (std::size_t l = 0; l < sim::max_batch_lanes; ++l) {
      const std::uint32_t offset =
          mem.reg_offset ? regs[6][l] << mem.offset_shift : mem.offset_imm;
      const std::uint32_t expect =
          ((mask >> l) & 1U) == 0
              ? 0xdeadbeefU
              : (mem.subtract ? regs[5][l] - offset : regs[5][l] + offset);
      ASSERT_EQ(address[l], expect) << "lane " << l;
    }
  }
}

} // namespace
} // namespace usca
