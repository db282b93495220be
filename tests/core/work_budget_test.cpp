// Work-budget golden for the in-order AES campaign: the exact number of
// simulated cycles one round-1 trace costs, read from the
// `campaign.cycles` telemetry counter around a whole campaign.
//
// Two consumers, two budgets:
//
//   * whole-run — engine().run(sink) delivers whole records (cycles and
//     marks of the entire encryption), so every trace simulates to halt;
//   * window-bounded — trace_campaign::run(pass) streams labels and
//     samples only, so every trace ends when the window's end mark
//     (mark_round1_end) commits.
//
// Each is pinned per-trace (sim_batch_lanes 0) and 32-lane batched; the
// campaign has a partial final group.  Batching and window bounding
// change no sample (the equivalence and golden suites pin that), so a
// change that silently simulated past the window, or ran a consumer to
// halt that needs only the window, would pass all of them; this suite
// pins the work itself, deterministically on any host.
//
// The noise layer has a budget too: `synth.gaussian_deviates` (one
// Gaussian deviate per window sample, at any averaging: the bare-metal
// mean of N executions is drawn as one deviate of N times less variance)
// and `synth.gaussian_candidates` (the Marsaglia-polar (u, v) pairs drawn
// up to each trace's last accepted one).  Both depend only on the
// per-trace noise seeds and the window length, so they are pinned at
// averaging 1 and 16, per-trace and 32-lane batched, against the same
// constants: however the noise is drawn, it must consume the same
// streams.
//
// The batched cores' lane memory has one too: a window-bounded AES
// campaign makes no lane access outside the data window
// (`sim.batch.outside_window_accesses` stays 0).
//
// Restoring the fresh lane state between traces has a budget as well:
// `sim.lane.bytes_restored` (memory bytes reset() zeroed) and
// `sim.lane.cache_sets_restored` (cache sets it cleared).  Each reset
// restores what the run before it touched, not whole pages or caches, so
// both are pinned per lane and per reset at lanes 0 and 32.
//
// The constants were recorded once by printing the per-trace deltas
// below.  They change only with a change that deliberately changes the
// simulated work, and the change log must say so.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>

#include "core/analysis_sinks.h"
#include "core/campaign.h"
#include "crypto/aes128.h"
#include "crypto/aes_codegen.h"
#include "mem/memory.h"
#include "sim/backend.h"
#include "sim/micro_arch_config.h"
#include "sim/pipeline.h"
#include "util/rng.h"
#include "util/telemetry.h"

namespace usca::core {
namespace {

// --------------------------------------------------------------- golden
constexpr std::uint64_t golden_whole_cycles_per_trace = 5181;
constexpr std::uint64_t golden_window_cycles_per_trace = 560;
constexpr std::uint64_t golden_window_deviates_per_trace = 544;
/// Candidates vary per trace; this is the total of the 40-trace campaign.
constexpr std::uint64_t golden_window_candidates = 13910;
/// D-cache accesses of one window-bounded trace on the per-trace
/// pipeline, the warm-up of the data image included.
constexpr std::uint64_t golden_window_dcache_hits = 194;
constexpr std::uint64_t golden_window_dcache_misses = 8;

/// Memory one lane's reset() zeroes: the data image's eight 64-byte
/// blocks.  The AES writes only inside its image, so a traced lane and a
/// lane that only loaded the image at construction restore the same.
constexpr std::uint64_t golden_restored_bytes_per_lane = 512;
/// Cache sets one reset() clears after a window-bounded trace: the sets
/// of the code lines the I-cache warm-up loads (256 sets, so one line
/// each) and of the data image's lines in the D-cache.
constexpr std::uint64_t golden_restored_icache_sets = 183;
constexpr std::uint64_t golden_restored_dcache_sets_per_lane = 8;

constexpr std::size_t budget_traces = 40;

const crypto::aes_key kKey = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                              0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                              0x09, 0xcf, 0x4f, 0x3c};

campaign_config budget_config(int lanes, int averaging = 1) {
  campaign_config config;
  config.traces = budget_traces;
  config.threads = 1;
  config.seed = 0xb0d6e7;
  config.averaging = averaging;
  config.window = {crypto::mark_encrypt_begin, crypto::mark_round1_end};
  config.sim_batch_lanes = lanes;
  return config;
}

/// The delta `body` adds to `counter`.
template <typename Body>
std::uint64_t counter_delta(const telem::counter& counter, Body&& body) {
  const std::uint64_t before = counter.value();
  body();
  return counter.value() - before;
}

/// The `campaign.cycles` delta `body` adds.
template <typename Body>
std::uint64_t campaign_cycles(Body&& body) {
  static const telem::counter cycles{"campaign.cycles", "cycles",
                                     "campaign"};
  return counter_delta(cycles, body);
}

std::uint64_t whole_run_cycles(int lanes) {
  trace_campaign campaign(budget_config(lanes), kKey);
  std::size_t delivered = 0;
  const std::uint64_t cycles = campaign_cycles([&] {
    campaign.engine().run([&](acquisition_record&&) { ++delivered; });
  });
  EXPECT_EQ(delivered, budget_traces);
  return cycles;
}

std::uint64_t window_bounded_cycles(int lanes) {
  trace_campaign campaign(budget_config(lanes), kKey);
  cpa_sink cpa(0);
  const std::uint64_t cycles =
      campaign_cycles([&] { campaign.run(cpa); });
  EXPECT_EQ(cpa.cpa().traces(), budget_traces);
  return cycles;
}

TEST(InorderWorkBudget, WholeRunPerTraceIsPinned) {
  EXPECT_EQ(whole_run_cycles(0),
            budget_traces * golden_whole_cycles_per_trace);
}

TEST(InorderWorkBudget, WholeRunBatchedIsPinned) {
  EXPECT_EQ(whole_run_cycles(32),
            budget_traces * golden_whole_cycles_per_trace);
}

TEST(InorderWorkBudget, WindowBoundedPerTraceIsPinned) {
  EXPECT_EQ(window_bounded_cycles(0),
            budget_traces * golden_window_cycles_per_trace);
}

TEST(InorderWorkBudget, WindowBoundedBatchedIsPinned) {
  EXPECT_EQ(window_bounded_cycles(32),
            budget_traces * golden_window_cycles_per_trace);
}

// The D-cache sees the same accesses on every window-bounded trace, on a
// fresh pipeline and on one reset between traces: warming the data image
// misses once per line, and every access after it hits.  A reset that
// left a line valid, or dropped one the warm-up loaded, moves these.
TEST(InorderWorkBudget, WindowBoundedDcacheAccessesArePinned) {
  const crypto::aes_program_layout layout = crypto::generate_aes128_program();
  const crypto::aes_round_keys keys = crypto::expand_key(kKey);
  util::xoshiro256 rng(0xdcace);
  sim::pipeline reused(sim::program_image(layout.prog), sim::cortex_a7());
  reused.set_activity_cutoff_mark(crypto::mark_round1_end, true);
  for (int trace = 0; trace < 6; ++trace) {
    crypto::aes_block pt;
    for (auto& b : pt) {
      b = rng.next_u8();
    }
    sim::pipeline fresh(sim::program_image(layout.prog), sim::cortex_a7());
    fresh.set_activity_cutoff_mark(crypto::mark_round1_end, true);
    if (trace > 0) {
      reused.reset();
    }
    for (sim::pipeline* p : {&fresh, &reused}) {
      crypto::install_aes_inputs(p->memory(), layout, keys, pt);
      p->warm_caches();
      p->run();
      EXPECT_EQ(p->cycles(), golden_window_cycles_per_trace);
      EXPECT_EQ(p->dcache().hits(), golden_window_dcache_hits)
          << "trace " << trace;
      EXPECT_EQ(p->dcache().misses(), golden_window_dcache_misses)
          << "trace " << trace;
    }
  }
}

struct restore_work {
  std::uint64_t bytes = 0;
  std::uint64_t cache_sets = 0;
};

/// The restore counters' deltas over a window-bounded campaign.
restore_work window_bounded_restore(int lanes) {
  static const telem::counter bytes{"sim.lane.bytes_restored", "bytes",
                                    "sim"};
  static const telem::counter sets{"sim.lane.cache_sets_restored", "sets",
                                   "sim"};
  trace_campaign campaign(budget_config(lanes), kKey);
  cpa_sink cpa(0);
  restore_work work;
  work.cache_sets = counter_delta(sets, [&] {
    work.bytes = counter_delta(bytes, [&] { campaign.run(cpa); });
  });
  EXPECT_EQ(cpa.cpa().traces(), budget_traces);
  return work;
}

// Per trace, one core is reset before every trace but the first, and
// each reset restores the one trace before it.
TEST(LaneRestoreBudget, PerTraceIsPinned) {
  const restore_work work = window_bounded_restore(0);
  const std::uint64_t resets = budget_traces - 1;
  EXPECT_EQ(work.bytes, resets * golden_restored_bytes_per_lane);
  EXPECT_EQ(work.cache_sets,
            resets * (golden_restored_icache_sets +
                      golden_restored_dcache_sets_per_lane));
  EXPECT_LT(work.bytes / resets, mem::memory::page_size);
}

// Batched, the 40 traces are two groups of 32 lanes (the second has 8
// active), and the batch resets all 32 lanes before each group: before
// the first, the lanes hold the data image the constructor loaded and
// untouched caches; before the second, 32 traced lanes and one shared
// I-cache.
TEST(LaneRestoreBudget, BatchedIsPinned) {
  const restore_work work = window_bounded_restore(32);
  const std::uint64_t lane_resets = 2 * 32;
  EXPECT_EQ(work.bytes, lane_resets * golden_restored_bytes_per_lane);
  EXPECT_EQ(work.cache_sets,
            golden_restored_icache_sets +
                32 * golden_restored_dcache_sets_per_lane);
  EXPECT_LT(work.bytes / lane_resets, mem::memory::page_size);
}

// The batched cores serve the AES campaign's loads and stores from the
// rows of its data window (sim/lane_memory.h): no lane access of a
// window-bounded campaign falls back to the per-lane page map, on either
// core.  A window that missed the stack block or a table would move this.
TEST(LaneMemoryBudget, WindowBoundedCampaignsStayInsideTheDataWindow) {
  static const telem::counter outside{"sim.batch.outside_window_accesses",
                                      "accesses", "sim"};
  for (const sim::backend_kind kind :
       {sim::backend_kind::inorder, sim::backend_kind::ooo}) {
    SCOPED_TRACE(sim::backend_kind_name(kind));
    campaign_config config = budget_config(32);
    config.backend = kind;
    config.uarch = kind == sim::backend_kind::ooo ? sim::cortex_a7_ooo()
                                                  : sim::cortex_a7();
    trace_campaign campaign(config, kKey);
    cpa_sink cpa(0);
    EXPECT_EQ(counter_delta(outside, [&] { campaign.run(cpa); }), 0u);
    EXPECT_EQ(cpa.cpa().traces(), budget_traces);
  }
}

struct noise_work {
  std::uint64_t deviates = 0;
  std::uint64_t candidates = 0;
};

/// The noise-layer counters' deltas over a window-bounded campaign.
noise_work window_bounded_noise(int lanes, int averaging) {
  static const telem::counter deviates{"synth.gaussian_deviates",
                                       "deviates", "synth"};
  static const telem::counter candidates{"synth.gaussian_candidates",
                                         "pairs", "synth"};
  trace_campaign campaign(budget_config(lanes, averaging), kKey);
  cpa_sink cpa(0);
  noise_work work;
  work.candidates = counter_delta(candidates, [&] {
    work.deviates = counter_delta(deviates, [&] { campaign.run(cpa); });
  });
  EXPECT_EQ(cpa.cpa().traces(), budget_traces);
  return work;
}

class NoiseWorkBudget
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(NoiseWorkBudget, WindowBoundedIsPinned) {
  const auto [lanes, averaging] = GetParam();
  const noise_work work = window_bounded_noise(lanes, averaging);
  EXPECT_EQ(work.deviates,
            budget_traces * golden_window_deviates_per_trace);
  EXPECT_EQ(work.candidates, golden_window_candidates);
}

INSTANTIATE_TEST_SUITE_P(
    LanesAndAveraging, NoiseWorkBudget,
    ::testing::Combine(::testing::Values(0, 32), ::testing::Values(1, 16)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "lanes" + std::to_string(std::get<0>(info.param)) +
             "_averaging" + std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace usca::core
