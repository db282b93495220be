// Reset-equivalence suite: a reused pipeline restored with reset() (or
// moved to a new program with rebind()) must be bit-identical in every
// observable — timing, marks, activity events, memory contents and the
// synthesized power — to a freshly constructed pipeline.  This is the
// contract the zero-reallocation campaign hot path rests on: run()
// workers reuse one pipeline per shard while produce() constructs fresh
// ones, and the two must agree exactly.
#include <gtest/gtest.h>

#include <vector>

#include "crypto/aes_codegen.h"
#include "power/synthesizer.h"
#include "sim/pipeline.h"
#include "sim/program_image.h"
#include "util/rng.h"

namespace usca {
namespace {

struct run_observation {
  std::uint64_t cycles = 0;
  std::uint64_t issued = 0;
  std::uint64_t dual_pairs = 0;
  std::vector<sim::mark_stamp> marks;
  sim::activity_trace activity;
  crypto::aes_block ciphertext{};
  power::trace clean_power;
};

const crypto::aes_key kKey = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                              0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                              0x09, 0xcf, 0x4f, 0x3c};

/// Runs one AES encryption on `pipe` (assumed freshly constructed or
/// reset) and captures everything observable.
run_observation run_aes(sim::pipeline& pipe,
                        const crypto::aes_program_layout& layout,
                        const crypto::aes_round_keys& rk,
                        const crypto::aes_block& pt) {
  crypto::install_aes_inputs(pipe.memory(), layout, rk, pt);
  pipe.warm_caches();
  pipe.run();

  run_observation obs;
  obs.cycles = pipe.cycles();
  obs.issued = pipe.instructions_issued();
  obs.dual_pairs = pipe.dual_issue_pairs();
  obs.marks = pipe.marks();
  obs.activity = pipe.activity();
  obs.ciphertext = crypto::read_aes_state(pipe.memory(), layout);
  power::trace_synthesizer synth(power::synthesis_config{}, 1);
  obs.clean_power = synth.synthesize_clean(
      pipe.activity(), 0, static_cast<std::uint32_t>(pipe.cycles() + 4));
  return obs;
}

void expect_identical(const run_observation& fresh,
                      const run_observation& reused) {
  EXPECT_EQ(fresh.cycles, reused.cycles);
  EXPECT_EQ(fresh.issued, reused.issued);
  EXPECT_EQ(fresh.dual_pairs, reused.dual_pairs);
  EXPECT_EQ(fresh.ciphertext, reused.ciphertext);

  ASSERT_EQ(fresh.marks.size(), reused.marks.size());
  for (std::size_t i = 0; i < fresh.marks.size(); ++i) {
    EXPECT_EQ(fresh.marks[i].id, reused.marks[i].id);
    EXPECT_EQ(fresh.marks[i].cycle, reused.marks[i].cycle);
    EXPECT_EQ(fresh.marks[i].dual_pairs, reused.marks[i].dual_pairs);
  }

  ASSERT_EQ(fresh.activity.size(), reused.activity.size());
  for (std::size_t i = 0; i < fresh.activity.size(); ++i) {
    EXPECT_EQ(fresh.activity[i].cycle, reused.activity[i].cycle);
    EXPECT_EQ(fresh.activity[i].comp, reused.activity[i].comp);
    EXPECT_EQ(fresh.activity[i].lane, reused.activity[i].lane);
    EXPECT_EQ(fresh.activity[i].toggles, reused.activity[i].toggles);
  }

  ASSERT_EQ(fresh.clean_power.size(), reused.clean_power.size());
  for (std::size_t s = 0; s < fresh.clean_power.size(); ++s) {
    // Bit-identical, not approximately equal.
    EXPECT_EQ(fresh.clean_power[s], reused.clean_power[s]) << "sample " << s;
  }
}

void check_reset_equivalence(const sim::micro_arch_config& config) {
  const crypto::aes_program_layout layout = crypto::generate_aes128_program();
  const crypto::aes_round_keys rk = crypto::expand_key(kKey);
  const sim::program_image image(layout.prog);

  util::xoshiro256 rng(0xfee1);
  sim::pipeline reused(image, config);
  for (int trial = 0; trial < 3; ++trial) {
    crypto::aes_block pt;
    for (auto& b : pt) {
      b = rng.next_u8();
    }
    sim::pipeline fresh(image, config);
    const run_observation from_fresh = run_aes(fresh, layout, rk, pt);

    reused.reset();
    const run_observation from_reused = run_aes(reused, layout, rk, pt);
    expect_identical(from_fresh, from_reused);
  }
}

TEST(PipelineReset, AesBitIdenticalOnCortexA7) {
  check_reset_equivalence(sim::cortex_a7());
}

TEST(PipelineReset, AesBitIdenticalOnScalarAblation) {
  check_reset_equivalence(sim::cortex_a7_scalar());
}

TEST(PipelineReset, AesBitIdenticalOnLeakageAblatedConfig) {
  // Transparent nops, no align buffer, non-holding ALU latches: the
  // ablations that exercise the nop/latch reset paths of issue().
  sim::micro_arch_config ablated = sim::cortex_a7();
  ablated.nop_drives_zero_operands = false;
  ablated.nop_zeroes_wb_bus = false;
  ablated.alu_latch_holds_on_idle = false;
  ablated.has_align_buffer = false;
  check_reset_equivalence(ablated);
}

TEST(PipelineReset, SharedImageIsNotCopiedPerPipeline) {
  const crypto::aes_program_layout layout = crypto::generate_aes128_program();
  const sim::program_image image(layout.prog);
  sim::pipeline a(image, sim::cortex_a7());
  sim::pipeline b(image, sim::cortex_a7());
  // Both pipelines must alias the image's single program copy.
  EXPECT_EQ(&image.prog(), &a.program());
  EXPECT_EQ(&image.prog(), &b.program());
}

TEST(PipelineReset, RebindMatchesFreshConstructionOnNewProgram) {
  asmx::program_builder first;
  first.emit(isa::ins::mark(1));
  first.emit(isa::ins::add(isa::reg::r1, isa::reg::r2, isa::reg::r3));
  first.emit(isa::ins::mark(2));
  asmx::program_builder second;
  second.emit(isa::ins::mark(1));
  second.emit(isa::ins::eor(isa::reg::r4, isa::reg::r5, isa::reg::r6));
  second.emit(isa::ins::lsl(isa::reg::r7, isa::reg::r4, 3));
  second.emit(isa::ins::mark(2));

  const sim::program_image image_b(second.build());
  sim::pipeline fresh(image_b, sim::cortex_a7());
  fresh.state().set_reg(isa::reg::r5, 0x1234);
  fresh.warm_caches();
  fresh.run();

  sim::pipeline rebound(sim::program_image(first.build()), sim::cortex_a7());
  rebound.warm_caches();
  rebound.run();
  rebound.rebind(image_b);
  rebound.state().set_reg(isa::reg::r5, 0x1234);
  rebound.warm_caches();
  rebound.run();

  EXPECT_EQ(fresh.cycles(), rebound.cycles());
  EXPECT_EQ(fresh.state().reg(isa::reg::r7), rebound.state().reg(isa::reg::r7));
  ASSERT_EQ(fresh.activity().size(), rebound.activity().size());
  for (std::size_t i = 0; i < fresh.activity().size(); ++i) {
    EXPECT_EQ(fresh.activity()[i].cycle, rebound.activity()[i].cycle);
    EXPECT_EQ(fresh.activity()[i].toggles, rebound.activity()[i].toggles);
  }
}

TEST(PipelineReset, ActivityCutoffPreservesWindowDropsTail) {
  const crypto::aes_program_layout layout = crypto::generate_aes128_program();
  const crypto::aes_round_keys rk = crypto::expand_key(kKey);
  const sim::program_image image(layout.prog);

  sim::pipeline full(image, sim::cortex_a7());
  crypto::install_aes_inputs(full.memory(), layout, rk, crypto::aes_block{});
  full.warm_caches();
  full.run();

  sim::pipeline cut(image, sim::cortex_a7());
  cut.set_activity_cutoff_mark(crypto::mark_round1_end);
  crypto::install_aes_inputs(cut.memory(), layout, rk, crypto::aes_block{});
  cut.warm_caches();
  cut.run();

  // Timing and marks are unaffected by the cutoff.
  EXPECT_EQ(full.cycles(), cut.cycles());
  ASSERT_EQ(full.marks().size(), cut.marks().size());

  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  for (const auto& m : full.marks()) {
    if (m.id == crypto::mark_encrypt_begin) {
      begin = m.cycle;
    } else if (m.id == crypto::mark_round1_end) {
      end = m.cycle;
    }
  }
  ASSERT_LT(begin, end);

  // The recorded events are a strict prefix...
  ASSERT_LT(cut.activity().size(), full.activity().size());
  for (std::size_t i = 0; i < cut.activity().size(); ++i) {
    EXPECT_EQ(full.activity()[i].cycle, cut.activity()[i].cycle);
    EXPECT_EQ(full.activity()[i].comp, cut.activity()[i].comp);
    EXPECT_EQ(full.activity()[i].toggles, cut.activity()[i].toggles);
  }
  // ...and the synthesized window is bit-identical.
  power::trace_synthesizer synth(power::synthesis_config{}, 9);
  const power::trace from_full = synth.synthesize_clean(
      full.activity(), static_cast<std::uint32_t>(begin),
      static_cast<std::uint32_t>(end));
  const power::trace from_cut = synth.synthesize_clean(
      cut.activity(), static_cast<std::uint32_t>(begin),
      static_cast<std::uint32_t>(end));
  ASSERT_EQ(from_full.size(), from_cut.size());
  for (std::size_t s = 0; s < from_full.size(); ++s) {
    EXPECT_EQ(from_full[s], from_cut[s]);
  }
  // clear + reset restores full recording.
  cut.clear_activity_cutoff_mark();
  cut.reset();
  crypto::install_aes_inputs(cut.memory(), layout, rk, crypto::aes_block{});
  cut.warm_caches();
  cut.run();
  EXPECT_EQ(full.activity().size(), cut.activity().size());
}

} // namespace
} // namespace usca
