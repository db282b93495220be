// Unit tests for the out-of-order issue backend: structural behaviour
// (rename/ROB/RS/retire), the reset()/rebind() zero-reallocation contract
// the acquisition engine relies on, the new leakage components, mark/cutoff
// semantics, and the backend factory.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "asmx/program.h"
#include "crypto/aes128.h"
#include "crypto/aes_codegen.h"
#include "sim/backend.h"
#include "sim/functional_executor.h"
#include "sim/ooo/ooo_core.h"
#include "sim/pipeline.h"
#include "util/error.h"
#include "util/rng.h"

namespace usca::sim {
namespace {

using isa::reg;
namespace mk = isa::ins;

asmx::program marked_alu_program() {
  asmx::program_builder b;
  b.emit(mk::mark(1));
  b.emit(mk::eor(reg::r1, reg::r2, reg::r3));
  b.emit(mk::add(reg::r4, reg::r1, reg::r2));
  b.emit(mk::lsl(reg::r5, reg::r4, 2));
  b.emit(mk::mul(reg::r6, reg::r5, reg::r2));
  b.emit(mk::mark(2));
  b.emit(mk::halt());
  return b.build();
}

std::array<std::size_t, component_count>
component_histogram(const activity_trace& activity) {
  std::array<std::size_t, component_count> counts{};
  for (const activity_event& ev : activity) {
    ++counts[static_cast<std::size_t>(ev.comp)];
  }
  return counts;
}

TEST(OooBackend, ExecutesAluChainAndRecordsMarks) {
  ooo_core core(marked_alu_program());
  core.state().set_reg(reg::r2, 0x1234);
  core.state().set_reg(reg::r3, 0x9999);
  core.warm_caches();
  core.run(100'000);

  EXPECT_TRUE(core.state().halted);
  EXPECT_EQ(core.state().reg(reg::r1), 0x1234u ^ 0x9999u);
  EXPECT_EQ(core.instructions_issued(), 7u);
  EXPECT_EQ(core.instructions_retired(), 7u);
  ASSERT_EQ(core.marks().size(), 2u);
  EXPECT_EQ(core.marks()[0].id, 1u);
  EXPECT_EQ(core.marks()[1].id, 2u);
  EXPECT_LT(core.marks()[0].cycle, core.marks()[1].cycle);
}

TEST(OooBackend, EmitsTheOooLeakageComponents) {
  ooo_core core(marked_alu_program());
  core.state().set_reg(reg::r2, 0xdeadbeef);
  core.state().set_reg(reg::r3, 0x00ff00ff);
  core.warm_caches();
  core.run(100'000);

  const auto counts = component_histogram(core.activity());
  EXPECT_GT(counts[static_cast<std::size_t>(component::rat_port)], 0u);
  EXPECT_GT(counts[static_cast<std::size_t>(component::prf_read_port)], 0u);
  EXPECT_GT(counts[static_cast<std::size_t>(component::rs_tag_bus)], 0u);
  EXPECT_GT(counts[static_cast<std::size_t>(component::cdb)], 0u);
  EXPECT_GT(counts[static_cast<std::size_t>(component::rob_retire_port)], 0u);
  // Shared EX-stage structures still leak...
  EXPECT_GT(counts[static_cast<std::size_t>(component::alu_in_latch)], 0u);
  EXPECT_GT(counts[static_cast<std::size_t>(component::alu_out)], 0u);
  // ...but the in-order front-end/write-back structures do not exist here.
  EXPECT_EQ(counts[static_cast<std::size_t>(component::rf_read_port)], 0u);
  EXPECT_EQ(counts[static_cast<std::size_t>(component::is_ex_bus)], 0u);
  EXPECT_EQ(counts[static_cast<std::size_t>(component::wb_bus)], 0u);
  EXPECT_EQ(counts[static_cast<std::size_t>(component::ex_wb_latch)], 0u);
}

TEST(OooBackend, ResetRunsBitIdentically) {
  const program_image image(marked_alu_program());
  ooo_core core(image);
  const auto install = [](ooo_core& c) {
    c.state().set_reg(reg::r2, 0xcafe0001);
    c.state().set_reg(reg::r3, 0x12345678);
  };

  install(core);
  core.warm_caches();
  core.run();
  const activity_trace first = core.activity();
  const auto first_marks = core.marks();
  const std::uint64_t first_cycles = core.cycles();

  core.reset();
  install(core);
  core.warm_caches();
  core.run();

  EXPECT_EQ(core.cycles(), first_cycles);
  ASSERT_EQ(core.marks().size(), first_marks.size());
  for (std::size_t i = 0; i < first_marks.size(); ++i) {
    EXPECT_EQ(core.marks()[i].cycle, first_marks[i].cycle);
  }
  EXPECT_EQ(core.activity(), first);
}

TEST(OooBackend, RebindSwitchesPrograms) {
  asmx::program_builder other;
  other.emit(mk::mark(1));
  other.emit(mk::add_imm(reg::r1, reg::r1, 5));
  other.emit(mk::mark(2));
  other.emit(mk::halt());

  ooo_core core(marked_alu_program());
  core.warm_caches();
  core.run();
  const std::uint64_t alu_instructions = core.instructions_retired();

  core.rebind(program_image(other.build()));
  core.warm_caches();
  core.run();
  EXPECT_EQ(core.instructions_retired(), 4u);
  EXPECT_NE(core.instructions_retired(), alu_instructions);
  EXPECT_EQ(core.state().reg(reg::r1), 5u);
}

TEST(OooBackend, ActivityCutoffMarkStopsRecordingAfterWindow) {
  const program_image image(marked_alu_program());
  ooo_core reference(image);
  reference.state().set_reg(reg::r2, 0xabcd);
  reference.warm_caches();
  reference.run();

  ooo_core cut(image);
  cut.set_activity_cutoff_mark(2);
  cut.state().set_reg(reg::r2, 0xabcd);
  cut.warm_caches();
  cut.run();

  ASSERT_EQ(cut.marks().size(), 2u);
  const std::uint64_t window_end = cut.marks()[1].cycle;
  // Everything before the end mark is recorded bit-identically.
  for (const activity_event& ev : reference.activity()) {
    if (ev.cycle < window_end) {
      EXPECT_NE(std::find(cut.activity().begin(), cut.activity().end(), ev),
                cut.activity().end());
    }
  }
  // Nothing after the cutoff is.
  for (const activity_event& ev : cut.activity()) {
    EXPECT_LT(ev.cycle, window_end);
  }
}

TEST(OooBackend, StoreHeavyProgramDrainsThroughStoreBuffer) {
  asmx::program_builder b;
  const std::uint32_t buffer = b.data_block(64, 4);
  b.load_constant(reg::r10, buffer);
  for (int i = 0; i < 8; ++i) {
    b.emit(mk::str(reg::r10, reg::r10, static_cast<std::uint32_t>(4 * i)));
  }
  b.emit(mk::halt());
  const asmx::program prog = b.build();

  micro_arch_config tiny = cortex_a7_ooo();
  tiny.ooo.store_buffer_entries = 1; // every second commit stalls
  ooo_core core(prog, tiny);
  core.warm_caches();
  core.run(100'000);
  EXPECT_TRUE(core.state().halted);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(core.memory().read32(buffer + 4 * static_cast<std::uint32_t>(i)),
              buffer);
  }
}

TEST(OooBackend, MatchesFunctionalExecutorOnAes128) {
  const crypto::aes_program_layout layout = crypto::generate_aes128_program();
  const crypto::aes_key key = {0xde, 0xad, 0xbe, 0xef, 0x01, 0x23, 0x45, 0x67,
                               0x89, 0xab, 0xcd, 0xef, 0x10, 0x32, 0x54, 0x76};
  const crypto::aes_round_keys rk = crypto::expand_key(key);
  util::xoshiro256 rng(99);
  crypto::aes_block pt;
  for (auto& v : pt) {
    v = rng.next_u8();
  }

  ooo_core core(layout.prog);
  crypto::install_aes_inputs(core.memory(), layout, rk, pt);
  core.warm_caches();
  core.run();

  const crypto::aes_block expected = crypto::encrypt_block(pt, key);
  EXPECT_EQ(crypto::read_aes_state(core.memory(), layout), expected);
  // The OoO engine extracts instruction-level parallelism the in-order
  // pipeline cannot: the same program must finish in fewer cycles.
  pipeline pipe(layout.prog);
  crypto::install_aes_inputs(pipe.memory(), layout, rk, pt);
  pipe.warm_caches();
  pipe.run();
  EXPECT_LT(core.cycles(), pipe.cycles());
}

TEST(OooBackend, FactoryAndKindNamesRoundTrip) {
  EXPECT_EQ(parse_backend_kind("inorder"), backend_kind::inorder);
  EXPECT_EQ(parse_backend_kind("ooo"), backend_kind::ooo);
  EXPECT_EQ(parse_backend_kind("out-of-order"), backend_kind::ooo);
  EXPECT_FALSE(parse_backend_kind("tso").has_value());
  EXPECT_EQ(backend_kind_name(backend_kind::ooo), "ooo");

  const program_image image(marked_alu_program());
  const auto inorder =
      make_backend(backend_kind::inorder, image, cortex_a7());
  const auto ooo = make_backend(backend_kind::ooo, image, cortex_a7_ooo());
  EXPECT_EQ(inorder->kind(), backend_kind::inorder);
  EXPECT_EQ(ooo->kind(), backend_kind::ooo);
  ooo->warm_caches();
  ooo->run();
  EXPECT_TRUE(ooo->state().halted);
}

TEST(OooBackend, RejectsStructurallyInvalidConfigs) {
  micro_arch_config bad = cortex_a7_ooo();
  bad.ooo.prf_size = 16; // no rename headroom
  EXPECT_THROW(ooo_core(marked_alu_program(), bad), util::simulation_error);

  micro_arch_config zero_rob = cortex_a7_ooo();
  zero_rob.ooo.rob_entries = 1;
  EXPECT_THROW(ooo_core(marked_alu_program(), zero_rob),
               util::simulation_error);
}

} // namespace
} // namespace usca::sim
