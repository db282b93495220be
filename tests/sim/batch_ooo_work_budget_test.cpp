// Work-budget golden for the OoO idle-cycle skip: the exact number of
// simulated and skipped cycles one AES round-1 run costs.
//
// The runs start from cold caches.  With warm caches the AES schedule
// never idles, so the skip would have nothing to do; cold I-cache and
// D-cache misses stall fetch and loads long enough to leave the whole
// machine idle for ~300 cycles of a ~4000-cycle run.
//
// The skip changes no bit of any result — the equivalence suites compare
// activity streams, marks and cycle counts, all of which the skip leaves
// alone — so a refactor that silently lost it would pass every one of
// them while simulating each idle cycle again.  This suite pins the work
// itself, read from the `sim.ooo.cycles` and `sim.ooo.idle_skipped`
// telemetry counters around one run:
//
//   * the per-trace fast scheduler, run to halt and window-bounded (ended
//     at mark_round1_end);
//   * the per-trace reference scheduler, which never skips;
//   * one 32-lane batched run, whose shared control must do exactly the
//     per-trace fast run's work.  Every lane encrypts the same block: cold
//     D-caches miss at data-dependent S-box addresses, so lanes with other
//     plaintexts would be ejected at their first disagreeing load.
//
// The constants were recorded once by printing the deltas below.  They
// change only with a change that deliberately changes the simulated
// work, and the change log must say so.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "crypto/aes128.h"
#include "crypto/aes_codegen.h"
#include "sim/batch_sim.h"
#include "sim/ooo/ooo_core.h"
#include "util/telemetry.h"

namespace usca::sim {
namespace {

constexpr crypto::aes_key budget_key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                                        0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                                        0x09, 0xcf, 0x4f, 0x3c};
constexpr crypto::aes_block budget_plaintext = {
    0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
    0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};

// --------------------------------------------------------------- golden
constexpr std::uint64_t golden_whole_cycles = 4056;
constexpr std::uint64_t golden_whole_skipped = 312;
constexpr std::uint64_t golden_window_cycles = 481;
constexpr std::uint64_t golden_window_skipped = 63;

struct work {
  std::uint64_t cycles = 0;
  std::uint64_t skipped = 0;
};

/// The counter deltas `body` adds.
template <typename Body>
work measure(Body&& body) {
  static const telem::counter cycles{"sim.ooo.cycles", "cycles", "sim"};
  static const telem::counter skipped{"sim.ooo.idle_skipped", "cycles",
                                      "sim"};
  const std::uint64_t cycles_before = cycles.value();
  const std::uint64_t skipped_before = skipped.value();
  body();
  return {cycles.value() - cycles_before, skipped.value() - skipped_before};
}

work per_trace_run(const micro_arch_config& config, bool window_bounded) {
  const crypto::aes_program_layout layout = crypto::generate_aes128_program();
  ooo_core core(layout.prog, config);
  crypto::install_aes_inputs(core.memory(), layout,
                             crypto::expand_key(budget_key),
                             budget_plaintext);
  if (window_bounded) {
    core.set_activity_cutoff_mark(crypto::mark_round1_end, true);
  }
  return measure([&] { core.run(); });
}

TEST(OooWorkBudget, FastSchedulerWholeRunIsPinned) {
  const work got = per_trace_run(cortex_a7_ooo(), false);
  EXPECT_EQ(got.cycles, golden_whole_cycles);
  EXPECT_EQ(got.skipped, golden_whole_skipped);
}

TEST(OooWorkBudget, FastSchedulerWindowBoundedRunIsPinned) {
  const work got = per_trace_run(cortex_a7_ooo(), true);
  EXPECT_EQ(got.cycles, golden_window_cycles);
  EXPECT_EQ(got.skipped, golden_window_skipped);
}

TEST(OooWorkBudget, ReferenceSchedulerNeverSkips) {
  micro_arch_config config = cortex_a7_ooo();
  config.ooo.scheduler = ooo_scheduler::reference;
  const work got = per_trace_run(config, false);
  EXPECT_EQ(got.cycles, golden_whole_cycles);
  EXPECT_EQ(got.skipped, 0u);
}

TEST(OooWorkBudget, BatchedRunDoesThePerTraceFastRunsWork) {
  const crypto::aes_program_layout layout = crypto::generate_aes128_program();
  const program_image image(layout.prog);
  const crypto::aes_round_keys round_keys = crypto::expand_key(budget_key);
  constexpr std::size_t lanes = 32;
  const std::unique_ptr<batch_backend> batch =
      make_batch_backend(backend_kind::ooo, image, cortex_a7_ooo(), lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    crypto::install_aes_inputs(batch->memory(l), layout, round_keys,
                               budget_plaintext);
  }
  const work got = measure([&] { batch->run(); });
  EXPECT_FALSE(batch->any_lane_diverged());
  EXPECT_EQ(got.cycles, golden_whole_cycles);
  EXPECT_EQ(got.skipped, golden_whole_skipped);
}

} // namespace
} // namespace usca::sim
