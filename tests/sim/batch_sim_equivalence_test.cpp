// Bit-identity contract of the batched SoA engines (sim/batch_sim.h):
// every surviving lane of a batch run must produce EXACTLY the activity
// stream, marks, cycle count, and architectural state of a per-trace run
// of the reference backend with the same inputs — at every batch size,
// on both backends.  The AES campaign workload must never eject a lane
// (its schedule is data-independent by construction); random conditional
// programs exercise the ejection protocol, where the leader must always
// survive and every non-ejected lane must still match per-trace exactly.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "crypto/aes128.h"
#include "crypto/aes_codegen.h"
#include "random_program.h"
#include "sim/backend.h"
#include "sim/batch_sim.h"
#include "sim/micro_arch_config.h"
#include "sim/uarch_activity.h"
#include "util/error.h"
#include "util/rng.h"

namespace usca::sim {
namespace {

using isa::reg;
using testing::random_program;

micro_arch_config config_for(backend_kind kind) {
  return kind == backend_kind::ooo ? cortex_a7_ooo() : cortex_a7();
}

struct per_trace_result {
  activity_trace activity;
  std::vector<mark_stamp> marks;
  std::uint64_t cycles = 0;
  cpu_state state;
  crypto::aes_block ciphertext{};
};

struct batch_case {
  backend_kind kind;
  std::size_t lanes;
};

class BatchSimEquivalence : public ::testing::TestWithParam<batch_case> {};

TEST_P(BatchSimEquivalence, AesLanesAreBitIdenticalToPerTrace) {
  const batch_case param = GetParam();
  const crypto::aes_program_layout layout =
      crypto::generate_aes128_program();
  const program_image image(layout.prog);
  const micro_arch_config config = config_for(param.kind);
  const crypto::aes_key key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                               0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                               0x09, 0xcf, 0x4f, 0x3c};
  const crypto::aes_round_keys round_keys = crypto::expand_key(key);

  util::xoshiro256 rng(0x5eed5eed);
  std::vector<crypto::aes_block> plaintexts(param.lanes);
  for (crypto::aes_block& pt : plaintexts) {
    for (std::uint8_t& b : pt) {
      b = static_cast<std::uint8_t>(rng.next_u32());
    }
  }

  // Reference: one per-trace run per lane.
  std::vector<per_trace_result> expected(param.lanes);
  const std::unique_ptr<backend> core =
      make_backend(param.kind, image, config);
  for (std::size_t l = 0; l < param.lanes; ++l) {
    core->reset();
    crypto::install_aes_inputs(core->memory(), layout, round_keys,
                               plaintexts[l]);
    core->warm_caches();
    core->run();
    expected[l] = {core->activity(), core->marks(), core->cycles(),
                   core->state(),
                   crypto::read_aes_state(core->memory(), layout)};
  }

  const std::unique_ptr<batch_backend> batch =
      make_batch_backend(param.kind, image, config, param.lanes);
  ASSERT_EQ(batch->lanes(), param.lanes);
  for (std::size_t l = 0; l < param.lanes; ++l) {
    crypto::install_aes_inputs(batch->memory(l), layout, round_keys,
                               plaintexts[l]);
  }
  batch->warm_caches();
  batch->run();

  EXPECT_FALSE(batch->any_lane_diverged())
      << "the AES schedule is data-independent: no lane may eject";
  for (std::size_t l = 0; l < param.lanes; ++l) {
    SCOPED_TRACE(l);
    EXPECT_EQ(batch->cycles(), expected[l].cycles);
    ASSERT_EQ(batch->marks().size(), expected[l].marks.size());
    for (std::size_t m = 0; m < expected[l].marks.size(); ++m) {
      EXPECT_EQ(batch->marks()[m].id, expected[l].marks[m].id);
      EXPECT_EQ(batch->marks()[m].cycle, expected[l].marks[m].cycle);
      EXPECT_EQ(batch->marks()[m].dual_pairs,
                expected[l].marks[m].dual_pairs);
    }
    EXPECT_EQ(batch->activity(l), expected[l].activity);
    const auto last = static_cast<std::uint32_t>(batch->cycles() + 16);
    EXPECT_EQ(activity_window_digest(batch->activity(l), 0, last),
              activity_window_digest(expected[l].activity, 0, last));
    EXPECT_EQ(batch->state(l).regs, expected[l].state.regs);
    EXPECT_EQ(batch->state(l).f, expected[l].state.f);
    EXPECT_EQ(crypto::read_aes_state(batch->memory(l), layout),
              expected[l].ciphertext);
  }

  // reset() must restore a fresh batch: run the same inputs again and the
  // leader's stream must reproduce (the zero-reallocation worker contract).
  batch->reset();
  for (std::size_t l = 0; l < param.lanes; ++l) {
    crypto::install_aes_inputs(batch->memory(l), layout, round_keys,
                               plaintexts[l]);
  }
  batch->warm_caches();
  batch->run();
  EXPECT_EQ(batch->activity(0), expected[0].activity);
}

INSTANTIATE_TEST_SUITE_P(
    LaneSweep, BatchSimEquivalence,
    ::testing::Values(batch_case{backend_kind::inorder, 1},
                      batch_case{backend_kind::inorder, 2},
                      batch_case{backend_kind::inorder, 7},
                      batch_case{backend_kind::inorder, 64},
                      batch_case{backend_kind::ooo, 1},
                      batch_case{backend_kind::ooo, 2},
                      batch_case{backend_kind::ooo, 7},
                      batch_case{backend_kind::ooo, 64}));

struct fuzz_case {
  const char* name;
  backend_kind kind;
  micro_arch_config config;
};

class BatchSimFuzz : public ::testing::TestWithParam<fuzz_case> {};

TEST_P(BatchSimFuzz, SurvivingLanesMatchPerTraceOnRandomPrograms) {
  const backend_kind kind = GetParam().kind;
  const micro_arch_config& config = GetParam().config;
  constexpr std::size_t lanes = 8;

  util::xoshiro256 rng(0xf022ba11);
  for (int round = 0; round < 12; ++round) {
    const asmx::program prog = random_program(rng, 50);
    const program_image image(prog);
    const std::uint32_t buffer = *prog.symbol("buffer");

    // Random per-lane register files: conditional flows diverge freely.
    std::array<std::array<std::uint32_t, 8>, lanes> init{};
    for (auto& regs : init) {
      for (std::uint32_t& v : regs) {
        v = rng.next_u32();
      }
    }

    const std::unique_ptr<batch_backend> batch =
        make_batch_backend(kind, image, config, lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      for (int r = 0; r < 8; ++r) {
        batch->state(l).regs[static_cast<std::size_t>(r)] = init[l][r];
      }
      batch->state(l).set_reg(reg::r10, buffer);
    }
    batch->warm_caches();
    batch->run();

    // The leader defines the schedule; it must never eject.
    EXPECT_FALSE(batch->lane_diverged(0));

    const std::unique_ptr<backend> core = make_backend(kind, image, config);
    for (std::size_t l = 0; l < lanes; ++l) {
      if (batch->lane_diverged(l)) {
        continue;
      }
      SCOPED_TRACE(l);
      core->reset();
      for (int r = 0; r < 8; ++r) {
        core->state().regs[static_cast<std::size_t>(r)] = init[l][r];
      }
      core->state().set_reg(reg::r10, buffer);
      core->warm_caches();
      core->run();
      EXPECT_EQ(batch->cycles(), core->cycles());
      EXPECT_EQ(batch->activity(l), core->activity());
      EXPECT_EQ(batch->state(l).regs, core->state().regs);
      EXPECT_EQ(batch->state(l).f, core->state().f);
    }
  }
}

// The OoO configs are ooo_equivalence_fuzz_test's: the paper-facing
// default, a tiny machine (4-entry ROB, scalar rename/retire/CDB, 2 RS
// entries) that reaches every structural stall and wraps the age ring at
// minimal occupancy, and a wide one at the 64-entry sizing cap with
// 4-wide rename/retire/CDB — full-ring occupancy and multi-lane CDB
// arbitration in the shared control.
INSTANTIATE_TEST_SUITE_P(
    Backends, BatchSimFuzz,
    ::testing::Values(
        fuzz_case{"inorder", backend_kind::inorder, cortex_a7()},
        fuzz_case{"ooo", backend_kind::ooo, cortex_a7_ooo()},
        fuzz_case{"ooo_tiny", backend_kind::ooo,
                  cortex_a7_ooo(ooo_config{4, 1, 1, 2, 24, 1, 1})},
        fuzz_case{"ooo_wide", backend_kind::ooo,
                  cortex_a7_ooo(ooo_config{64, 4, 4, 32, 128, 4, 8})}),
    [](const ::testing::TestParamInfo<fuzz_case>& info) {
      return info.param.name;
    });

// Deterministic ejection coverage: a conditional branch whose outcome is
// steered by a per-lane register value MUST eject exactly the lanes that
// disagree with the leader — and the survivors (leader included) must
// still match per-trace bit-for-bit.
TEST_P(BatchSimFuzz, ConditionalBranchEjectsDisagreeingLanes) {
  const backend_kind kind = GetParam().kind;
  const micro_arch_config& config = GetParam().config;
  namespace mk = isa::ins;

  asmx::program_builder b;
  b.emit(mk::cmp_imm(reg::r0, 0));
  b.emit(mk::b(2, isa::condition::eq)); // taken only when r0 == 0
  b.emit(mk::eor(reg::r1, reg::r1, reg::r2));
  b.emit(mk::add(reg::r3, reg::r1, reg::r2));
  b.emit(mk::str(reg::r3, reg::r10, 0));
  b.emit(mk::halt());
  b.define_symbol("buffer", b.data_block(16, 4));
  const asmx::program prog = b.build();
  const program_image image(prog);
  const std::uint32_t buffer = *prog.symbol("buffer");

  constexpr std::size_t lanes = 4;
  // Lanes 0 and 2 take the branch (r0 == 0); lanes 1 and 3 disagree.
  const std::array<std::uint32_t, lanes> r0 = {0, 7, 0, 9};

  const std::unique_ptr<batch_backend> batch =
      make_batch_backend(kind, image, config, lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    batch->state(l).set_reg(reg::r0, r0[l]);
    batch->state(l).set_reg(reg::r1, 0x1111u * (static_cast<std::uint32_t>(l) + 1));
    batch->state(l).set_reg(reg::r2, 0xa5a5a5a5u);
    batch->state(l).set_reg(reg::r10, buffer);
  }
  batch->warm_caches();
  batch->run();

  EXPECT_FALSE(batch->lane_diverged(0));
  EXPECT_TRUE(batch->lane_diverged(1));
  EXPECT_FALSE(batch->lane_diverged(2));
  EXPECT_TRUE(batch->lane_diverged(3));
  EXPECT_TRUE(batch->any_lane_diverged());

  const std::unique_ptr<backend> core = make_backend(kind, image, config);
  for (const std::size_t l : {std::size_t{0}, std::size_t{2}}) {
    SCOPED_TRACE(l);
    core->reset();
    core->state().set_reg(reg::r0, r0[l]);
    core->state().set_reg(reg::r1,
                          0x1111u * (static_cast<std::uint32_t>(l) + 1));
    core->state().set_reg(reg::r2, 0xa5a5a5a5u);
    core->state().set_reg(reg::r10, buffer);
    core->warm_caches();
    core->run();
    EXPECT_EQ(batch->cycles(), core->cycles());
    EXPECT_EQ(batch->activity(l), core->activity());
    EXPECT_EQ(batch->state(l).regs, core->state().regs);
    EXPECT_EQ(batch->state(l).f, core->state().f);
  }
}

// A run that exceeds its cycle budget throws mid-program; every lane's
// architectural state must still be the per-trace core's at the same
// budget — the batch may keep state elsewhere during a run, but it must
// hand it back on every exit of run(), the throw included.
class BatchSimCycleBudget : public ::testing::TestWithParam<backend_kind> {};

TEST_P(BatchSimCycleBudget, ThrowLeavesEveryLaneInPerTraceState) {
  const backend_kind kind = GetParam();
  const crypto::aes_program_layout layout =
      crypto::generate_aes128_program();
  const program_image image(layout.prog);
  const micro_arch_config config = config_for(kind);
  const crypto::aes_round_keys round_keys = crypto::expand_key(
      {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15,
       0x88, 0x09, 0xcf, 0x4f, 0x3c});
  constexpr std::size_t lanes = 8;

  util::xoshiro256 rng(0xb0d6e7);
  std::vector<crypto::aes_block> plaintexts(lanes);
  for (crypto::aes_block& pt : plaintexts) {
    for (std::uint8_t& b : pt) {
      b = static_cast<std::uint8_t>(rng.next_u32());
    }
  }

  const std::unique_ptr<backend> core = make_backend(kind, image, config);
  const std::unique_ptr<batch_backend> batch =
      make_batch_backend(kind, image, config, lanes);
  for (const std::uint64_t budget : {100U, 333U, 1000U}) {
    SCOPED_TRACE(budget);
    batch->reset();
    for (std::size_t l = 0; l < lanes; ++l) {
      crypto::install_aes_inputs(batch->memory(l), layout, round_keys,
                                 plaintexts[l]);
    }
    batch->warm_caches();
    EXPECT_THROW(batch->run(budget), util::simulation_error);
    ASSERT_FALSE(batch->any_lane_diverged());
    for (std::size_t l = 0; l < lanes; ++l) {
      SCOPED_TRACE(l);
      core->reset();
      crypto::install_aes_inputs(core->memory(), layout, round_keys,
                                 plaintexts[l]);
      core->warm_caches();
      EXPECT_THROW(core->run(budget), util::simulation_error);
      EXPECT_EQ(batch->state(l).regs, core->state().regs);
      EXPECT_EQ(batch->state(l).f, core->state().f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, BatchSimCycleBudget,
                         ::testing::Values(backend_kind::inorder,
                                           backend_kind::ooo));

// The `sim_batch_lanes` config field alone sets the lane count: -1 the
// default, 0 the per-trace path, N up to the 64-lane cap.
TEST(BatchSimLanes, ResolvesTheConfigField) {
  EXPECT_EQ(resolve_sim_batch_lanes(-1), default_sim_batch_lanes);
  EXPECT_EQ(resolve_sim_batch_lanes(0), 0u);
  EXPECT_EQ(resolve_sim_batch_lanes(5), 5u);
  EXPECT_EQ(resolve_sim_batch_lanes(1000), max_batch_lanes);
}

TEST(BatchSimLaneView, SimulationEntryPointsThrow) {
  const crypto::aes_program_layout layout =
      crypto::generate_aes128_program();
  const program_image image(layout.prog);
  const std::unique_ptr<batch_backend> batch =
      make_batch_backend(backend_kind::inorder, image, cortex_a7(), 2);
  batch_lane_view view(*batch, 1);
  EXPECT_EQ(&view.state(), &batch->state(1));
  EXPECT_EQ(&view.memory(), &batch->memory(1));
  EXPECT_EQ(view.kind(), backend_kind::inorder);
  EXPECT_THROW(view.run(), util::simulation_error);
  EXPECT_THROW(view.reset(), util::simulation_error);
  EXPECT_THROW(view.step_cycle(), util::simulation_error);
  EXPECT_THROW(view.warm_caches(), util::simulation_error);
}

TEST(BatchSimPartialGroup, LimitedLanesMatchAndKeepLimitAcrossReset) {
  const crypto::aes_program_layout layout =
      crypto::generate_aes128_program();
  const program_image image(layout.prog);
  const crypto::aes_round_keys round_keys =
      crypto::expand_key({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                          14, 15});
  const crypto::aes_block plaintext = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a,
                                       0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2,
                                       0xe0, 0x37, 0x07, 0x34};

  const std::unique_ptr<backend> core =
      make_backend(backend_kind::ooo, image, cortex_a7_ooo());
  crypto::install_aes_inputs(core->memory(), layout, round_keys, plaintext);
  core->warm_caches();
  core->run();

  const std::unique_ptr<batch_backend> batch =
      make_batch_backend(backend_kind::ooo, image, cortex_a7_ooo(), 16);
  batch->limit_active_lanes(3);
  EXPECT_EQ(batch->active_lanes(), 3u);
  batch->reset();
  EXPECT_EQ(batch->active_lanes(), 3u);
  for (std::size_t l = 0; l < 3; ++l) {
    crypto::install_aes_inputs(batch->memory(l), layout, round_keys,
                               plaintext);
  }
  batch->warm_caches();
  batch->run();
  for (std::size_t l = 0; l < 3; ++l) {
    SCOPED_TRACE(l);
    EXPECT_EQ(batch->activity(l), core->activity());
  }
}

} // namespace
} // namespace usca::sim
