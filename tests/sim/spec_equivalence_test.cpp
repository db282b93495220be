// Contract suite of the speculation subsystem (sim/ooo/speculation.h):
//
//   1. `predictor = perfect` is bit-identical to the pre-speculation
//      model — the AES golden digests pin this, and a speculating core
//      never emits bp_table/btb_port events under the perfect predictor.
//   2. Speculation changes ONLY timing and activity: for every predictor
//      kind, the architectural results (registers, flags, memory, mark
//      ids) of seeded random programs are identical to the spec-off run.
//   3. The fast and reference schedulers stay bit-identical under
//      speculation — wrong-path rename, dispatch, issue and the recovery
//      flush included.
//   4. Recovery flushes nest correctly behind in-flight wrong-path
//      branches, and RSB over/underflow stays deterministic.
//   5. The wrong path itself is pinned: golden whole-run digests, cycles,
//      mispredicts and wrong-path µops per predictor, on the branchy AES,
//      a seeded random program and a directed drill.
//   6. The batched OoO core rejects speculative configs and campaigns
//      fall back to the per-trace path with byte-identical records.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "asmx/program.h"
#include "core/campaign.h"
#include "crypto/aes_codegen.h"
#include "random_program.h"
#include "sim/ooo/batch_ooo_core.h"
#include "sim/ooo/ooo_core.h"
#include "sim/ooo/speculation.h"
#include "util/error.h"
#include "util/rng.h"

namespace usca::sim {
namespace {

using isa::condition;
using isa::reg;
using testing::random_program;
using testing::random_program_buffer_words;
namespace mk = isa::ins;

// Same constants as tests/sim/ooo_activity_golden_test.cpp: the perfect
// predictor must reproduce the pinned pre-speculation digest exactly.
constexpr std::uint64_t golden_ooo_digest = 0xcc24a3dc1eafa858ULL;
constexpr crypto::aes_key golden_key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                                        0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                                        0x09, 0xcf, 0x4f, 0x3c};
constexpr crypto::aes_block golden_plaintext = {
    0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
    0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};

speculation_config spec_of(predictor_kind kind) {
  speculation_config spec;
  spec.predictor = kind;
  return spec;
}

/// Architectural outcome of a run — everything that must NOT move when a
/// predictor is enabled.  (Cycles, activity and mark cycle stamps may.)
struct arch_snapshot {
  std::array<std::uint32_t, 16> regs{};
  isa::flags flags;
  std::vector<std::uint32_t> buffer_words;
  std::vector<std::uint16_t> mark_ids;
};

struct full_snapshot {
  arch_snapshot arch;
  std::uint64_t cycles = 0;
  std::uint64_t mispredicts = 0;
  std::uint64_t wrong_path = 0;
  std::vector<mark_stamp> marks;
  activity_trace activity;
};

full_snapshot run_random(const asmx::program& prog,
                         const micro_arch_config& arch,
                         const std::array<std::uint32_t, 8>& inputs,
                         std::uint32_t index_r11) {
  ooo_core core(prog, arch);
  for (std::size_t r = 0; r < inputs.size(); ++r) {
    core.state().regs[r] = inputs[r];
  }
  const std::uint32_t buffer = *prog.symbol("buffer");
  core.state().set_reg(reg::r10, buffer);
  core.state().set_reg(reg::r11, index_r11);
  core.state().set_reg(reg::r12, buffer + 4 * random_program_buffer_words);
  core.warm_caches();
  core.run();

  full_snapshot snap;
  snap.arch.regs = core.state().regs;
  snap.arch.flags = core.state().f;
  for (std::uint32_t w = 0; w < random_program_buffer_words; ++w) {
    snap.arch.buffer_words.push_back(core.memory().read32(buffer + 4 * w));
  }
  for (const mark_stamp& mark : core.marks()) {
    snap.arch.mark_ids.push_back(mark.id);
  }
  snap.cycles = core.cycles();
  snap.mispredicts = core.mispredicts();
  snap.wrong_path = core.wrong_path_renamed();
  snap.marks = core.marks();
  snap.activity = core.activity();
  return snap;
}

/// Directed-program variant of run_random: no buffer/register protocol,
/// just run and snapshot (buffer_words stays empty on both sides).
full_snapshot run_snapshot_of(const asmx::program& prog,
                              const micro_arch_config& arch) {
  ooo_core core(prog, arch);
  core.warm_caches();
  core.run();
  full_snapshot snap;
  snap.arch.regs = core.state().regs;
  snap.arch.flags = core.state().f;
  for (const mark_stamp& mark : core.marks()) {
    snap.arch.mark_ids.push_back(mark.id);
  }
  snap.cycles = core.cycles();
  snap.mispredicts = core.mispredicts();
  snap.wrong_path = core.wrong_path_renamed();
  snap.marks = core.marks();
  snap.activity = core.activity();
  return snap;
}

void expect_same_arch(const arch_snapshot& got, const arch_snapshot& want,
                      std::uint64_t seed, const char* what) {
  ASSERT_EQ(got.regs, want.regs) << what << " seed=" << seed;
  ASSERT_EQ(got.flags, want.flags) << what << " seed=" << seed;
  ASSERT_EQ(got.buffer_words, want.buffer_words) << what << " seed=" << seed;
  ASSERT_EQ(got.mark_ids, want.mark_ids) << what << " seed=" << seed;
}

// ------------------------------------------------------------ golden pin

TEST(SpecEquivalence, PerfectPredictorReproducesGoldenDigest) {
  const crypto::aes_program_layout layout = crypto::generate_aes128_program();
  // Explicitly routed through the speculation-aware constructor: the
  // perfect design point IS the pre-speculation model.
  ooo_core core(layout.prog, cortex_a7_ooo_spec(spec_of(
                                 predictor_kind::perfect)));
  const crypto::aes_round_keys rk = crypto::expand_key(golden_key);
  crypto::install_aes_inputs(core.memory(), layout, rk, golden_plaintext);
  core.warm_caches();
  core.run();

  std::uint64_t window_begin = 0;
  std::uint64_t window_end = 0;
  for (const mark_stamp& mark : core.marks()) {
    if (mark.id == crypto::mark_encrypt_begin) {
      window_begin = mark.cycle;
    }
    if (mark.id == crypto::mark_round1_end) {
      window_end = mark.cycle;
    }
  }
  ASSERT_LT(window_begin, window_end);
  EXPECT_EQ(activity_window_digest(core.activity(),
                                   static_cast<std::uint32_t>(window_begin),
                                   static_cast<std::uint32_t>(window_end)),
            golden_ooo_digest);
  EXPECT_EQ(core.mispredicts(), 0u);
  EXPECT_EQ(core.wrong_path_renamed(), 0u);
  // The predictor structures are silent under the perfect predictor —
  // over the WHOLE run, not just the golden window.
  for (const activity_event& ev : core.activity()) {
    ASSERT_NE(ev.comp, component::bp_table);
    ASSERT_NE(ev.comp, component::btb_port);
  }
}

// --------------------------------------- architectural-identity fuzzing

class SpecArchIdentity : public ::testing::TestWithParam<predictor_kind> {};

TEST_P(SpecArchIdentity, SpeculationNeverChangesArchitecturalState) {
  const predictor_kind kind = GetParam();
  const micro_arch_config base = cortex_a7_ooo();
  const micro_arch_config spec_arch = cortex_a7_ooo_spec(spec_of(kind));

  std::uint64_t total_mispredicts = 0;
  std::uint64_t total_wrong_path = 0;
  constexpr int programs = 200;
  for (int p = 0; p < programs; ++p) {
    const std::uint64_t seed = 0x5bec0000 + static_cast<std::uint64_t>(p);
    util::xoshiro256 rng(seed);
    const int length = 20 + static_cast<int>(rng.bounded(60));
    const asmx::program prog = random_program(rng, length);
    std::array<std::uint32_t, 8> inputs;
    for (auto& v : inputs) {
      v = rng.next_u32();
    }
    const auto index_r11 =
        static_cast<std::uint32_t>(rng.bounded(random_program_buffer_words));

    const full_snapshot off = run_random(prog, base, inputs, index_r11);
    const full_snapshot on = run_random(prog, spec_arch, inputs, index_r11);
    expect_same_arch(on.arch, off.arch, seed, "spec-on vs spec-off");
    EXPECT_EQ(off.mispredicts, 0u);
    total_mispredicts += on.mispredicts;
    total_wrong_path += on.wrong_path;
  }
  // The fuzz corpus contains conditional branches; a predictor that never
  // mispredicts on it is not being exercised (perfect is excluded here).
  EXPECT_GT(total_mispredicts, 0u) << predictor_kind_name(kind);
  EXPECT_GT(total_wrong_path, 0u) << predictor_kind_name(kind);
}

INSTANTIATE_TEST_SUITE_P(
    Predictors, SpecArchIdentity,
    ::testing::Values(predictor_kind::static_btfn, predictor_kind::bimodal,
                      predictor_kind::gshare),
    [](const ::testing::TestParamInfo<predictor_kind>& info) {
      return std::string(predictor_kind_name(info.param)) == "static"
                 ? std::string("static_btfn")
                 : std::string(predictor_kind_name(info.param));
    });

// ----------------------------------- fast vs reference under speculation

TEST(SpecEquivalence, FastAndReferenceSchedulersAgreeUnderSpeculation) {
  speculation_config spec = spec_of(predictor_kind::gshare);
  spec.resolve_latency = 5; // widen the wrong-path window
  micro_arch_config fast_arch = cortex_a7_ooo_spec(spec);
  micro_arch_config ref_arch = fast_arch;
  ref_arch.ooo.scheduler = ooo_scheduler::reference;

  std::uint64_t total_mispredicts = 0;
  constexpr int programs = 120;
  for (int p = 0; p < programs; ++p) {
    const std::uint64_t seed = 0x5bec8000 + static_cast<std::uint64_t>(p);
    util::xoshiro256 rng(seed);
    const int length = 20 + static_cast<int>(rng.bounded(60));
    const asmx::program prog = random_program(rng, length);
    std::array<std::uint32_t, 8> inputs;
    for (auto& v : inputs) {
      v = rng.next_u32();
    }
    const auto index_r11 =
        static_cast<std::uint32_t>(rng.bounded(random_program_buffer_words));

    const full_snapshot fast = run_random(prog, fast_arch, inputs, index_r11);
    const full_snapshot ref = run_random(prog, ref_arch, inputs, index_r11);
    expect_same_arch(fast.arch, ref.arch, seed, "fast vs reference");
    ASSERT_EQ(fast.cycles, ref.cycles) << "seed=" << seed;
    ASSERT_EQ(fast.mispredicts, ref.mispredicts) << "seed=" << seed;
    ASSERT_EQ(fast.wrong_path, ref.wrong_path) << "seed=" << seed;
    ASSERT_EQ(fast.marks.size(), ref.marks.size()) << "seed=" << seed;
    for (std::size_t m = 0; m < fast.marks.size(); ++m) {
      ASSERT_EQ(fast.marks[m].cycle, ref.marks[m].cycle) << "seed=" << seed;
    }
    // Bit-identity of the full activity stream, wrong-path events included.
    ASSERT_EQ(fast.activity, ref.activity) << "seed=" << seed;
    total_mispredicts += fast.mispredicts;
  }
  EXPECT_GT(total_mispredicts, 0u);
}

// ------------------------------------------------------ wrong-path goldens

/// Whole-run pins of the wrong path: a comparison of the fast and the
/// reference scheduler cannot see a change to the rename body both share,
/// so each predictor's run is pinned against constants recorded once
/// before that body was merged into the correct-path rename, and never
/// edited since.
struct wrong_path_golden {
  predictor_kind kind;
  std::uint64_t digest;
  std::uint64_t cycles;
  std::uint64_t mispredicts;
  std::uint64_t wrong_path;
};

void expect_wrong_path_golden(const full_snapshot& snap,
                              const wrong_path_golden& want,
                              const char* what) {
  const std::string where = std::string(what) + " " +
                            std::string(predictor_kind_name(want.kind));
  EXPECT_EQ(activity_window_digest(snap.activity, 0,
                                   static_cast<std::uint32_t>(snap.cycles) +
                                       1),
            want.digest)
      << where;
  EXPECT_EQ(snap.cycles, want.cycles) << where;
  EXPECT_EQ(snap.mispredicts, want.mispredicts) << where;
  EXPECT_EQ(snap.wrong_path, want.wrong_path) << where;
}

/// The figures a wrong-path golden pins, read from a finished run.
full_snapshot counters_of(const ooo_core& core) {
  full_snapshot snap;
  snap.cycles = core.cycles();
  snap.mispredicts = core.mispredicts();
  snap.wrong_path = core.wrong_path_renamed();
  snap.activity = core.activity();
  return snap;
}

/// The fast and the reference scheduler of the design point `spec`.
std::array<micro_arch_config, 2> both_schedulers(
    const speculation_config& spec) {
  micro_arch_config fast = cortex_a7_ooo_spec(spec);
  micro_arch_config ref = fast;
  ref.ooo.scheduler = ooo_scheduler::reference;
  return {fast, ref};
}

TEST(SpecWrongPathGolden, BranchyAes) {
  constexpr wrong_path_golden goldens[] = {
      {predictor_kind::static_btfn, 0x0886f175d3b72aa5ULL, 2699, 76, 358},
      {predictor_kind::bimodal, 0x5ead7e01ad771dc6ULL, 2703, 80, 374},
      {predictor_kind::gshare, 0x3a0d9b933787984fULL, 2695, 76, 356},
  };
  const crypto::aes_program_layout layout =
      crypto::generate_aes128_branchy_program();
  for (const wrong_path_golden& want : goldens) {
    for (const micro_arch_config& arch : both_schedulers(spec_of(want.kind))) {
      ooo_core core(layout.prog, arch);
      crypto::install_aes_inputs(core.memory(), layout,
                                 crypto::expand_key(golden_key),
                                 golden_plaintext);
      core.warm_caches();
      core.run();
      expect_wrong_path_golden(counters_of(core), want, "branchy aes");
    }
  }
}

TEST(SpecWrongPathGolden, SeededRandomProgram) {
  constexpr wrong_path_golden goldens[] = {
      {predictor_kind::static_btfn, 0x36af4b62709c2c2aULL, 63, 4, 20},
      {predictor_kind::bimodal, 0x6f28be86c7f66df9ULL, 63, 4, 20},
      {predictor_kind::gshare, 0xc7f118f46575a185ULL, 63, 4, 20},
  };
  util::xoshiro256 rng(0x5bec9004);
  const asmx::program prog = random_program(rng, 80);
  std::array<std::uint32_t, 8> inputs;
  for (auto& v : inputs) {
    v = rng.next_u32();
  }
  const auto index_r11 =
      static_cast<std::uint32_t>(rng.bounded(random_program_buffer_words));
  for (const wrong_path_golden& want : goldens) {
    for (const micro_arch_config& arch : both_schedulers(spec_of(want.kind))) {
      expect_wrong_path_golden(run_random(prog, arch, inputs, index_r11),
                               want, "random program");
    }
  }
}

/// A directed program whose two mispredicted forward branches send the
/// wrong path through every case of the wrong-path rename: stores, which
/// write nothing; misaligned ldr/ldrh, which are force-aligned; a
/// condition-failed load; flag-setting mul and data processing; a nop;
/// conditional, direct and indirect branches; a bl, whose link (the next
/// slot's address) the next µop reads; a mark, which parks fetch until
/// the flush; and a run off the program's end.  The caches start cold, so wrong-path fetch
/// also stalls on the I-cache.
TEST(SpecWrongPathGolden, DirectedDrill) {
  constexpr wrong_path_golden goldens[] = {
      {predictor_kind::static_btfn, 0x2acf037bb3348aaeULL, 59, 2, 19},
      {predictor_kind::bimodal, 0x2358e48dbeb17645ULL, 59, 2, 19},
      {predictor_kind::gshare, 0xc9b4c1f554115479ULL, 59, 2, 19},
  };
  asmx::program_builder b;
  std::array<std::uint8_t, 32> bytes;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(0x10 + 7 * i);
  }
  const std::uint32_t buffer = b.data_bytes(bytes);
  b.load_constant(reg::r10, buffer);
  b.load_constant(reg::r1, 0x9e3779b9);
  b.load_constant(reg::r0, 0);
  b.load_constant(reg::r7, 0x40);
  b.emit(mk::cmp_imm(reg::r0, 0));
  b.emit(mk::b(17, condition::eq)); // taken, predicted not taken
  b.emit(mk::str(reg::r1, reg::r10, 0));
  b.emit(mk::strb(reg::r1, reg::r10, 5));
  b.emit(mk::strh(reg::r1, reg::r10, 6));
  b.emit(mk::ldr(reg::r2, reg::r10, 1));
  b.emit(mk::ldrh(reg::r3, reg::r10, 3));
  isa::instruction failed_load = mk::ldr(reg::r6, reg::r10, 8);
  failed_load.cond = condition::ne;
  b.emit(failed_load);
  isa::instruction muls = mk::mul(reg::r4, reg::r1, reg::r2);
  muls.set_flags = true;
  b.emit(muls);
  b.emit(mk::mla(reg::r5, reg::r4, reg::r1, reg::r3));
  isa::instruction adds = mk::dp_imm(isa::opcode::add, reg::r6, reg::r5, 7);
  adds.set_flags = true;
  b.emit(adds);
  b.emit(mk::movt(reg::r6, 0xbeef));
  b.emit(mk::nop());
  b.emit(mk::b(0, condition::ne));
  b.emit(mk::b(0));
  b.emit(mk::bx(reg::r7));
  b.emit(mk::bl(0));
  b.emit(mk::dp_imm(isa::opcode::add, reg::r6, reg::lr, 1));
  b.emit(mk::mark(77));
  // The first branch's target; the second branch's wrong path runs off
  // the end of the program, which has no halt.
  b.emit(mk::dp_imm(isa::opcode::add, reg::r0, reg::r0, 1));
  b.emit(mk::cmp_imm(reg::r0, 1));
  b.emit(mk::b(2, condition::eq)); // taken, predicted not taken
  b.emit(mk::dp_imm(isa::opcode::eor, reg::r2, reg::r1, 3));
  b.emit(mk::str(reg::r2, reg::r10, 12));
  b.emit(mk::dp_imm(isa::opcode::add, reg::r3, reg::r0, 5));
  const asmx::program prog = b.build(false);

  for (const wrong_path_golden& want : goldens) {
    speculation_config spec = spec_of(want.kind);
    spec.resolve_latency = 20; // long enough to reach the mark
    for (const micro_arch_config& arch : both_schedulers(spec)) {
      ooo_core core(prog, arch);
      core.run();
      EXPECT_EQ(core.state().regs[0], 1u);
      expect_wrong_path_golden(counters_of(core), want, "directed drill");
    }
  }
}

// ------------------------------------------------- directed flush drills

/// Branches renamed INSIDE a wrong-path episode (the flush must discard
/// them without consulting nested checkpoints): an alternating-outcome
/// conditional branch trains the bimodal counters into repeated
/// mispredicts whose wrong path immediately contains further conditional
/// and unconditional branches.
TEST(SpecEquivalence, NestedInFlightBranchesRecoverExactly) {
  asmx::program_builder b;
  b.load_constant(reg::r0, 0); // loop counter
  b.load_constant(reg::r1, 0); // accumulator A
  b.load_constant(reg::r2, 0); // accumulator B
  const std::uint32_t word = b.data_word(0x11223344);
  b.load_constant(reg::r10, word);

  // 24 unrolled iterations of: tst-like compare, conditional skip whose
  // taken-ness alternates, then a dense cluster of branches both paths
  // share.  The alternation defeats the 2-bit counters, so roughly every
  // other iteration renames its cluster down the wrong path first.
  for (int i = 0; i < 24; ++i) {
    b.emit(mk::dp_imm(isa::opcode::and_, reg::r3, reg::r0, 1));
    b.emit(mk::cmp_imm(reg::r3, 0));
    b.emit(mk::b(2, condition::eq));            // skip the next two
    b.emit(mk::dp_imm(isa::opcode::add, reg::r1, reg::r1, 3));
    b.emit(mk::b(1, condition::al));            // unconditional inside
    b.emit(mk::dp_imm(isa::opcode::add, reg::r2, reg::r2, 5));
    b.emit(mk::cmp_imm(reg::r1, 9));
    b.emit(mk::b(1, condition::lt));            // second conditional
    b.emit(mk::ldr(reg::r4, reg::r10, 0));
    b.emit(mk::dp_imm(isa::opcode::add, reg::r0, reg::r0, 1));
  }
  const asmx::program prog = b.build();

  const full_snapshot off =
      run_snapshot_of(prog, cortex_a7_ooo());
  for (const predictor_kind kind :
       {predictor_kind::static_btfn, predictor_kind::bimodal,
        predictor_kind::gshare}) {
    const full_snapshot on =
        run_snapshot_of(prog, cortex_a7_ooo_spec(spec_of(kind)));
    expect_same_arch(on.arch, off.arch, 0, predictor_kind_name(kind).data());
    EXPECT_GT(on.mispredicts, 0u) << predictor_kind_name(kind);
    // Determinism: the same run twice is bit-identical.
    const full_snapshot again =
        run_snapshot_of(prog, cortex_a7_ooo_spec(spec_of(kind)));
    EXPECT_EQ(again.cycles, on.cycles);
    EXPECT_EQ(again.activity, on.activity);
  }
}

/// Call chain deeper than the 8-entry RSB (overflow wraps), then more
/// returns than live entries (underflow pops stale slots): architectural
/// results still match the spec-off run, and the over/underflow behaviour
/// is deterministic.
TEST(SpecEquivalence, RsbOverflowAndUnderflowStayCorrect) {
  // fn(k) = bl fn(k+1) until depth 12, each frame saving lr to the stack
  // buffer; the return chain then unwinds through bx lr twelve times.
  constexpr int depth = 12; // > rsb_entries = 8
  asmx::program_builder b;
  const std::uint32_t stack = b.data_block(4 * (depth + 4), 4);
  b.load_constant(reg::r9, stack);
  b.load_constant(reg::r0, 0);

  // Layout: main calls frame 0 and then jumps over the whole chain to the
  // halt; each frame (4 instructions — save lr, bl next / leaf work,
  // restore lr, bx lr) calls the next one deeper.
  b.emit(mk::bl(1)); // frame 0 starts right after the jump below
  b.emit(mk::b(static_cast<std::int32_t>(4 * depth))); // over the chain
  for (int i = 0; i < depth; ++i) {
    b.emit(mk::str(reg::lr, reg::r9,
                   static_cast<std::uint32_t>(4 * i)));
    if (i + 1 < depth) {
      b.emit(mk::bl(2)); // next frame's first instruction
    } else {
      b.emit(mk::dp_imm(isa::opcode::add, reg::r0, reg::r0, 1)); // leaf
    }
    b.emit(mk::ldr(reg::lr, reg::r9,
                   static_cast<std::uint32_t>(4 * i)));
    b.emit(mk::bx(reg::lr));
  }
  const asmx::program prog = b.build();

  const full_snapshot off = run_snapshot_of(prog, cortex_a7_ooo());
  EXPECT_EQ(off.arch.regs[0], 1u); // the leaf ran exactly once

  speculation_config spec = spec_of(predictor_kind::bimodal);
  ASSERT_LT(spec.rsb_entries, depth);
  const full_snapshot on =
      run_snapshot_of(prog, cortex_a7_ooo_spec(spec));
  expect_same_arch(on.arch, off.arch, 0, "rsb overflow");
  // The 4 deepest wrapped-over frames return through stale RSB slots:
  // those returns mispredict, the flush recovers, results stay exact.
  EXPECT_GT(on.mispredicts, 0u);

  const full_snapshot again =
      run_snapshot_of(prog, cortex_a7_ooo_spec(spec));
  EXPECT_EQ(again.cycles, on.cycles);
  EXPECT_EQ(again.activity, on.activity);
}

// ------------------------------------------- validation + batching

TEST(SpecValidation, RejectsOutOfRangeConfigs) {
  const auto check_throws = [](speculation_config spec) {
    spec.predictor = predictor_kind::bimodal;
    const micro_arch_config arch = cortex_a7_ooo_spec(spec);
    EXPECT_THROW(ooo_core(crypto::generate_aes128_program().prog, arch),
                 util::simulation_error);
  };
  speculation_config bad;
  bad.bp_table_bits = 1;
  check_throws(bad);
  bad = speculation_config{};
  bad.btb_entries = 48; // not a power of two
  check_throws(bad);
  bad = speculation_config{};
  bad.rsb_entries = 0;
  check_throws(bad);
  bad = speculation_config{};
  bad.resolve_latency = 0;
  check_throws(bad);

  // A real predictor is incompatible with the legacy penalty model.
  micro_arch_config arch =
      cortex_a7_ooo_spec(spec_of(predictor_kind::bimodal));
  arch.perfect_branch_prediction = false;
  EXPECT_THROW(ooo_core(crypto::generate_aes128_program().prog, arch),
               util::simulation_error);
}

// The branchy (non-constant-time) AES variant is the one victim whose
// branch directions are secret bits: every real predictor mispredicts
// on it, and none of that wrong-path traffic may touch the ciphertext.
TEST(SpecEquivalence, BranchyAesMispredictsWithoutCorruption) {
  const crypto::aes_program_layout layout =
      crypto::generate_aes128_branchy_program();
  const crypto::aes_key key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                               0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                               0x09, 0xcf, 0x4f, 0x3c};
  const crypto::aes_block pt = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a,
                                0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2,
                                0xe0, 0x37, 0x07, 0x34};
  for (const predictor_kind kind :
       {predictor_kind::static_btfn, predictor_kind::bimodal,
        predictor_kind::gshare}) {
    ooo_core core(layout.prog, cortex_a7_ooo_spec(spec_of(kind)));
    crypto::install_aes_inputs(core.memory(), layout,
                               crypto::expand_key(key), pt);
    core.warm_caches();
    core.run();
    EXPECT_EQ(crypto::read_aes_state(core.memory(), layout),
              crypto::encrypt_block(pt, key))
        << predictor_kind_name(kind);
    EXPECT_GT(core.mispredicts(), 0u) << predictor_kind_name(kind);
    EXPECT_GT(core.wrong_path_renamed(), 0u) << predictor_kind_name(kind);
  }
}

TEST(SpecBatching, BatchCoreRejectsSpeculativeConfigs) {
  const crypto::aes_program_layout layout = crypto::generate_aes128_program();
  const micro_arch_config arch =
      cortex_a7_ooo_spec(spec_of(predictor_kind::bimodal));
  try {
    batch_ooo_core batch(program_image(layout.prog), arch, 4);
    FAIL() << "expected simulation_error";
  } catch (const util::simulation_error& e) {
    EXPECT_NE(std::string(e.what()).find("speculation"), std::string::npos);
  }
  // The perfect design point batches as before.
  EXPECT_NO_THROW(batch_ooo_core(
      program_image(layout.prog),
      cortex_a7_ooo_spec(spec_of(predictor_kind::perfect)), 4));
}

// A speculative campaign silently takes the per-trace path and delivers
// records byte-identical to an explicit per-trace (sim_batch_lanes = 0)
// run.
TEST(SpecBatching, CampaignFallsBackPerTraceByteIdentical) {
  core::campaign_config config;
  config.traces = 6;
  config.threads = 1;
  config.seed = 0x5becca3;
  config.backend = sim::backend_kind::ooo;
  config.uarch = cortex_a7_ooo_spec(spec_of(predictor_kind::gshare));

  const crypto::aes_key key = golden_key;
  const auto collect = [&](int lanes) {
    config.sim_batch_lanes = lanes;
    core::trace_campaign campaign(config, key);
    std::vector<core::acquisition_record> records;
    campaign.engine().run([&records](core::acquisition_record&& rec) {
      records.push_back(std::move(rec));
    });
    return records;
  };

  const std::vector<core::acquisition_record> fallback = collect(-1);
  const std::vector<core::acquisition_record> per_trace = collect(0);

  ASSERT_EQ(fallback.size(), per_trace.size());
  for (std::size_t i = 0; i < fallback.size(); ++i) {
    EXPECT_EQ(fallback[i].labels, per_trace[i].labels);
    EXPECT_EQ(fallback[i].cycles, per_trace[i].cycles);
    ASSERT_EQ(fallback[i].samples.size(), per_trace[i].samples.size());
    if (!fallback[i].samples.empty()) {
      EXPECT_EQ(std::memcmp(fallback[i].samples.data(),
                            per_trace[i].samples.data(),
                            fallback[i].samples.size() * sizeof(double)),
                0);
    }
  }
}

} // namespace
} // namespace usca::sim
