// Fused window synthesis.  A batch engine in fused mode adds each
// emission's weighted toggle count straight into a cycle-major clean-power
// tile instead of recording activity events.  Every sample must receive
// the additions the synthesizer's event walk would make, in the same
// order and from the same baseline, so a surviving lane's tile column is
// bitwise the synthesize_clean rendering of the same lane's event run.
// These tests pin that on both batch engines, across lane counts, partial
// groups, predicated (masked) lanes and ejections, and under weights that
// punish any shortcut (zero, -0.0, negative, huge and infinite weights,
// baselines 0.0 and -0.0).  At the acquisition level they pin that
// fused source rows equal produce() and that the telemetry counters say
// which synthesis ran.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/acquisition.h"
#include "core/campaign.h"
#include "crypto/aes128.h"
#include "crypto/aes_codegen.h"
#include "power/synthesizer.h"
#include "sim/batch_sim.h"
#include "sim/micro_arch_config.h"
#include "util/telemetry.h"

namespace usca {
namespace {

const crypto::aes_key kKey = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                              0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                              0x09, 0xcf, 0x4f, 0x3c};

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](double x, double y) {
                      return std::bit_cast<std::uint64_t>(x) ==
                             std::bit_cast<std::uint64_t>(y);
                    });
}

crypto::aes_block plaintext_of(std::size_t trial) {
  crypto::aes_block pt{};
  for (std::size_t b = 0; b < pt.size(); ++b) {
    pt[b] = static_cast<std::uint8_t>(0x35 * trial + 11 * b + 1);
  }
  return pt;
}

/// Synthesis configs whose weights break every shortcut a fused kernel
/// could take: adding weight * 0 for an untoggled lane turns a -0.0
/// sample into +0.0 and an infinite weight into NaN.
std::vector<power::synthesis_config> hostile_configs() {
  power::synthesis_config hostile;
  hostile.weights.weight = {0.0,  -0.0,   -1.25, 1e300, 0.12, -1e300,
                            3.5,  1.5,    0.8,   -0.0,  0.9,  0.4,
                            -2.0, 7e-310, 0.3,   0.8};
  hostile.baseline = 0.0;
  power::synthesis_config negative_zero = hostile;
  negative_zero.baseline = -0.0;
  negative_zero.weights[sim::component::alu_out] =
      std::numeric_limits<double>::infinity();
  return {power::synthesis_config{}, hostile, negative_zero};
}

struct batch_case {
  sim::backend_kind kind;
  bool branchy;
  std::size_t lanes;
  std::size_t active;
};

std::string name_of(const batch_case& c) {
  return std::string(sim::backend_kind_name(c.kind)) +
         (c.branchy ? " branchy" : " aes") + " lanes=" +
         std::to_string(c.lanes) + " active=" + std::to_string(c.active);
}

std::vector<batch_case> batch_cases() {
  std::vector<batch_case> cases;
  for (const sim::backend_kind kind :
       {sim::backend_kind::inorder, sim::backend_kind::ooo}) {
    for (const bool branchy : {false, true}) {
      for (const std::size_t lanes : {1, 2, 7, 32, 64}) {
        cases.push_back({kind, branchy, lanes, lanes});
      }
      cases.push_back({kind, branchy, 32, 29}); // partial final group
      cases.push_back({kind, branchy, 64, 37});
    }
  }
  return cases;
}

/// Runs trials 0..active-1 of the (branchy) AES on one batch, to halt or
/// to the round-1 end mark.
void run_batch(sim::batch_backend& batch,
               const crypto::aes_program_layout& layout, std::size_t active) {
  batch.limit_active_lanes(active);
  batch.reset();
  for (std::size_t l = 0; l < active; ++l) {
    crypto::install_aes_inputs(batch.memory(l), layout,
                               crypto::expand_key(kKey), plaintext_of(l));
  }
  batch.warm_caches();
  batch.run();
}

// The tile column of every surviving lane equals synthesize_clean of the
// same lane's event run over the whole tile, bitwise.
TEST(FusedSynthesis, TileColumnsMatchEventWalk) {
  const crypto::aes_program_layout aes = crypto::generate_aes128_program();
  const crypto::aes_program_layout branchy =
      crypto::generate_aes128_branchy_program();
  const std::vector<power::synthesis_config> configs = hostile_configs();
  bool saw_ejection = false;
  for (const batch_case& c : batch_cases()) {
    const crypto::aes_program_layout& layout = c.branchy ? branchy : aes;
    const sim::micro_arch_config uarch = c.kind == sim::backend_kind::ooo
                                             ? sim::cortex_a7_ooo()
                                             : sim::cortex_a7();
    for (const bool end_run : {false, true}) {
      // One engine for both modes: switching between them must not leak
      // state from one run into the next.
      std::unique_ptr<sim::batch_backend> batch = sim::make_batch_backend(
          c.kind, sim::program_image(layout.prog), uarch, c.lanes);
      if (end_run) {
        batch->set_activity_cutoff_mark(crypto::mark_round1_end, true);
      }
      for (const power::synthesis_config& config : configs) {
        const std::string what =
            name_of(c) + (end_run ? " window-bounded" : " to halt") +
            " baseline=" + std::to_string(config.baseline);
        batch->unfuse_synthesis();
        run_batch(*batch, layout, c.active);
        const std::uint64_t cycles = batch->cycles();
        std::vector<sim::activity_trace> events(c.active);
        std::uint64_t diverged = 0;
        for (std::size_t l = 0; l < c.active; ++l) {
          events[l] = batch->activity(l);
          diverged |= std::uint64_t{batch->lane_diverged(l)} << l;
        }
        saw_ejection |= diverged != 0;

        batch->fuse_synthesis(config.weights.weight, config.baseline);
        run_batch(*batch, layout, c.active);
        ASSERT_EQ(batch->cycles(), cycles) << what;
        const power::trace_synthesizer synth(config, 0);
        // Past the last cycle: write-backs stamped after the final cycle
        // land there, and untouched rows must read as baseline.
        const auto rows = static_cast<std::uint32_t>(cycles + 8);
        const double* tile = batch->clean_tile(rows);
        for (std::size_t l = 0; l < c.active; ++l) {
          ASSERT_EQ(batch->lane_diverged(l), ((diverged >> l) & 1U) != 0)
              << what;
          if (batch->lane_diverged(l)) {
            continue;
          }
          EXPECT_TRUE(batch->activity(l).empty()) << what;
          std::vector<double> column(rows);
          for (std::size_t r = 0; r < rows; ++r) {
            column[r] = tile[r * c.lanes + l];
          }
          EXPECT_TRUE(same_bits(
              column, synth.synthesize_clean(events[l], 0, rows)))
              << what << " lane " << l;
        }
      }
    }
  }
  EXPECT_TRUE(saw_ejection) << "the branchy AES must exercise ejected lanes";
}

// A reused synthesizer renders a tile column exactly as it renders the
// event record, single and averaged, bare metal and with OS noise.
TEST(FusedSynthesis, ColumnRenderingMatchesEventRendering) {
  const crypto::aes_program_layout layout = crypto::generate_aes128_program();
  constexpr std::size_t lanes = 4;
  std::unique_ptr<sim::batch_backend> batch =
      sim::make_batch_backend(sim::backend_kind::inorder,
                              sim::program_image(layout.prog),
                              sim::cortex_a7(), lanes);
  for (const bool os_noise : {false, true}) {
    power::synthesis_config config;
    config.os_noise.enabled = os_noise;
    batch->unfuse_synthesis();
    run_batch(*batch, layout, lanes);
    std::vector<sim::activity_trace> events;
    for (std::size_t l = 0; l < lanes; ++l) {
      events.push_back(batch->activity(l));
    }
    batch->fuse_synthesis(config.weights.weight, config.baseline);
    run_batch(*batch, layout, lanes);
    const std::uint32_t first = 40;
    const auto last = static_cast<std::uint32_t>(batch->cycles() / 2);
    const double* tile = batch->clean_tile(last);
    power::trace_synthesizer from_events(config, 0);
    power::trace_synthesizer from_tile(config, 0);
    for (const int executions : {1, 2, 16}) {
      for (std::size_t l = 0; l < lanes; ++l) {
        const std::uint64_t seed = 0x5eed + l + 100U * executions;
        from_events.reseed(seed);
        from_tile.reseed(seed);
        const power::trace expected =
            executions > 1 ? from_events.synthesize_averaged(
                                 events[l], first, last, executions)
                           : from_events.synthesize(events[l], first, last);
        EXPECT_TRUE(same_bits(
            from_tile.synthesize_column(tile + first * lanes + l, lanes,
                                        last - first, executions),
            expected))
            << "os_noise=" << os_noise << " executions=" << executions
            << " lane " << l;
      }
    }
  }
}

// ------------------------------------------------------------ campaigns

std::vector<std::vector<double>> source_samples(core::trace_source& source) {
  std::vector<std::vector<double>> rows;
  source.for_each_batch(5, [&rows](const core::trace_batch_view& view) {
    for (std::size_t r = 0; r < view.count; ++r) {
      const std::span<const double> s = view.samples_row(r);
      rows.emplace_back(s.begin(), s.end());
    }
  });
  return rows;
}

std::uint64_t counter_value(const char* name) {
  const telem::counter c{name, "traces", "synth"};
  return c.value();
}

struct synth_counts {
  std::uint64_t fused = 0;
  std::uint64_t events = 0;
};

synth_counts synth_counters() {
  return {counter_value("synth.fused_traces"),
          counter_value("synth.event_traces")};
}

/// Rows a source fuses: those of every batch whose first record is at or
/// past `keep_activity_first` (none on the per-trace path).
std::uint64_t expected_fused(const core::acquisition_config& config) {
  const std::size_t lanes =
      sim::resolve_sim_batch_lanes(config.sim_batch_lanes);
  if (lanes == 0) {
    return 0;
  }
  std::uint64_t fused = 0;
  for (std::size_t first = 0; first < config.traces; first += lanes) {
    if (config.first_index + first >= config.keep_activity_first) {
      fused += std::min(lanes, config.traces - first);
    }
  }
  return fused;
}

/// Streams the campaign's source rows, checks them against produce(i)
/// bitwise, and returns how many rows each synthesis produced.
synth_counts expect_source_matches_produce(core::acquisition_campaign& engine,
                                           const std::string& what) {
  const core::acquisition_config& config = engine.config();
  const synth_counts before = synth_counters();
  core::acquisition_source source(engine);
  const std::vector<std::vector<double>> rows = source_samples(source);
  const synth_counts after = synth_counters();
  EXPECT_EQ(rows.size(), config.traces) << what;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const core::acquisition_record rec =
        engine.produce(config.first_index + i);
    EXPECT_FALSE(rec.samples.empty()) << what;
    EXPECT_TRUE(same_bits(rows[i], rec.samples)) << what << " row " << i;
  }
  return {after.fused - before.fused, after.events - before.events};
}

core::acquisition_config aes_config() {
  core::acquisition_config config;
  config.traces = 40;
  config.threads = 2;
  config.seed = 0xf05ed;
  config.sim_batch_lanes = 8;
  return config;
}

/// The AES campaign as a bare acquisition (trace_campaign exposes no
/// full-run window or activity retention).
core::acquisition_campaign aes_engine(const core::acquisition_config& config) {
  auto layout = std::make_shared<const crypto::aes_program_layout>(
      crypto::generate_aes128_program());
  core::acquisition_campaign engine(sim::program_image(layout->prog), config);
  engine.set_setup([layout, round_keys = crypto::expand_key(kKey)](
                       std::size_t, util::xoshiro256& rng, sim::backend& core,
                       std::vector<double>& labels) {
    crypto::aes_block pt;
    for (auto& b : pt) {
      b = rng.next_u8();
    }
    crypto::install_aes_inputs(core.memory(), *layout, round_keys, pt);
    labels.assign(pt.begin(), pt.end());
  });
  return engine;
}

TEST(FusedSynthesis, SourceRowsMatchProduceForAveragingAndFullRunWindows) {
  for (const int averaging : {1, 16}) {
    for (const bool full_run : {false, true}) {
      core::acquisition_config config = aes_config();
      config.averaging = averaging;
      config.full_run_window = full_run;
      core::acquisition_campaign engine = aes_engine(config);
      const synth_counts n = expect_source_matches_produce(
          engine, "averaging=" + std::to_string(averaging) +
                      (full_run ? " full run" : " marker window"));
      EXPECT_EQ(n.fused, expected_fused(config));
      EXPECT_EQ(n.fused + n.events, config.traces);
    }
  }
}

// The Figure-4 environment: OS noise plus the simulated second core.
TEST(FusedSynthesis, SourceRowsMatchProduceWithSecondCore) {
  core::campaign_config config;
  config.traces = 21;
  config.threads = 2;
  config.seed = 0x5ec07d;
  config.sim_batch_lanes = 8;
  config.power.os_noise.enabled = true;
  config.simulated_second_core = true;
  config.second_core_cycles = 2048;
  core::trace_campaign campaign(config, kKey);
  const synth_counts n =
      expect_source_matches_produce(campaign.engine(), "second core");
  EXPECT_EQ(n.fused, expected_fused(campaign.engine().config()));
  EXPECT_EQ(n.fused + n.events, config.traces);
}

// Records below keep_activity_first need their window events, so every
// batch holding one stays on events; the batches after it fuse.  With 8
// lanes and the bound at 13, batches [0, 8) and [8, 16) keep events.
TEST(FusedSynthesis, KeepActivityFirstStraddlingABatch) {
  core::acquisition_config config = aes_config();
  config.averaging = 4;
  config.keep_activity_first = 13;
  core::acquisition_campaign engine = aes_engine(config);
  const synth_counts n =
      expect_source_matches_produce(engine, "keep_activity_first=13");
  EXPECT_EQ(n.fused, expected_fused(config));
  EXPECT_EQ(n.fused + n.events, config.traces);
  EXPECT_EQ(n.fused, 40U - 16U);

  // Whole records (run(sink)) never fuse, and keep their activity.
  std::size_t kept = 0;
  const synth_counts before = synth_counters();
  engine.run([&kept](core::acquisition_record&& rec) {
    kept += rec.window_activity.empty() ? 0 : 1;
  });
  EXPECT_EQ(kept, 13U);
  EXPECT_EQ(synth_counters().fused, before.fused);
  EXPECT_EQ(synth_counters().events, before.events + config.traces);
}

} // namespace
} // namespace usca
