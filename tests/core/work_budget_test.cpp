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
// The constants were recorded once by printing the per-trace deltas
// below.  They change only with a change that deliberately changes the
// simulated work, and the change log must say so.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/analysis_sinks.h"
#include "core/campaign.h"
#include "crypto/aes_codegen.h"
#include "util/telemetry.h"

namespace usca::core {
namespace {

// --------------------------------------------------------------- golden
constexpr std::uint64_t golden_whole_cycles_per_trace = 5181;
constexpr std::uint64_t golden_window_cycles_per_trace = 560;

constexpr std::size_t budget_traces = 40;

const crypto::aes_key kKey = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                              0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                              0x09, 0xcf, 0x4f, 0x3c};

campaign_config budget_config(int lanes) {
  campaign_config config;
  config.traces = budget_traces;
  config.threads = 1;
  config.seed = 0xb0d6e7;
  config.averaging = 1;
  config.window = {crypto::mark_encrypt_begin, crypto::mark_round1_end};
  config.sim_batch_lanes = lanes;
  return config;
}

/// The `campaign.cycles` delta `body` adds.
template <typename Body>
std::uint64_t campaign_cycles(Body&& body) {
  static const telem::counter cycles{"campaign.cycles", "cycles",
                                     "campaign"};
  const std::uint64_t before = cycles.value();
  body();
  return cycles.value() - before;
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

} // namespace
} // namespace usca::core
