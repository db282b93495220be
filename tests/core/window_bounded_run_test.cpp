// Window-bounded runs.  A consumer that reads only labels and samples —
// acquisition_source, and through it pump(), trace_campaign::run(pass)
// and the archive writers — ends every simulation when the window's end
// mark commits, while run(sink) and produce() still simulate to halt.
// Every event of a window ending at the mark is recorded before the mark
// commits, so the rows must be bit-identical to produce()'s.  These tests
// pin that across backends, lane counts, thread counts, batch ejections
// and trace populations; they also pin that the runs really stop at the
// end mark on all four cores, and that full-run and timing-only
// campaigns still run to halt.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/acquisition.h"
#include "core/campaign.h"
#include "core/trace_archive.h"
#include "crypto/aes128.h"
#include "crypto/aes_codegen.h"
#include "power/trace_store_reader.h"
#include "sim/batch_sim.h"
#include "util/telemetry.h"

namespace usca::core {
namespace {

const crypto::aes_key kKey = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                              0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                              0x09, 0xcf, 0x4f, 0x3c};

/// Round 1's AddRoundKey to round 2's ShiftRows: a constant-length window
/// that lies after the branchy AES's first data-dependent xtime branches,
/// so lanes are ejected (and re-simulated per-trace) before its end mark.
const campaign_window kAfterBranches{
    crypto::aes_round_phase_mark(1, crypto::aes_round_phase::add_round_key),
    crypto::aes_round_phase_mark(2, crypto::aes_round_phase::shift_rows)};

/// Round 1 up to ShiftRows: the branchy AES's branches all come after it,
/// so lanes that a run to halt would eject finish inside the batch.
const campaign_window kBeforeBranches{crypto::mark_encrypt_begin,
                                      crypto::mark_shr1_end};

struct row {
  std::size_t index = 0;
  std::vector<double> labels;
  std::vector<double> samples;
};

void copy_rows(const trace_batch_view& batch, std::vector<row>& rows) {
  for (std::size_t r = 0; r < batch.count; ++r) {
    const std::span<const double> labels = batch.labels_row(r);
    const std::span<const double> samples = batch.samples_row(r);
    rows.push_back({batch.index(r),
                    std::vector<double>(labels.begin(), labels.end()),
                    std::vector<double>(samples.begin(), samples.end())});
  }
}

/// Every row the source delivers, in order (odd tiles: rows straddle
/// batch and tile boundaries).
std::vector<row> stream_rows(trace_source& source) {
  std::vector<row> rows;
  source.for_each_batch(5, [&rows](const trace_batch_view& batch) {
    copy_rows(batch, rows);
  });
  return rows;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](double x, double y) {
                      return std::bit_cast<std::uint64_t>(x) ==
                             std::bit_cast<std::uint64_t>(y);
                    });
}

/// produce(i) for every index of the campaign: whole runs, to halt.
std::vector<acquisition_record> oracle_of(const acquisition_campaign& engine) {
  std::vector<acquisition_record> oracle;
  for (std::size_t i = 0; i < engine.config().traces; ++i) {
    oracle.push_back(engine.produce(engine.config().first_index + i));
  }
  return oracle;
}

void expect_rows_match(const std::vector<row>& rows,
                       const std::vector<acquisition_record>& oracle,
                       const std::string& what) {
  ASSERT_EQ(rows.size(), oracle.size()) << what;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].index, oracle[i].index) << what << " row " << i;
    EXPECT_TRUE(same_bits(rows[i].labels, oracle[i].labels))
        << what << " labels of row " << i;
    EXPECT_FALSE(oracle[i].samples.empty()) << what;
    EXPECT_TRUE(same_bits(rows[i].samples, oracle[i].samples))
        << what << " samples of row " << i;
  }
}

/// The AES setup on an arbitrary layout (the branchy program has no
/// trace_campaign of its own).
acquisition_campaign::setup_fn aes_setup(
    std::shared_ptr<const crypto::aes_program_layout> layout) {
  return [layout, round_keys = crypto::expand_key(kKey)](
             std::size_t, util::xoshiro256& rng, sim::backend& core,
             std::vector<double>& labels) {
    crypto::aes_block pt;
    for (auto& b : pt) {
      b = rng.next_u8();
    }
    crypto::install_aes_inputs(core.memory(), *layout, round_keys, pt);
    labels.assign(pt.begin(), pt.end());
  };
}

campaign_config aes_config(sim::backend_kind backend) {
  campaign_config config;
  config.traces = 70; // a partial final group at 64 lanes
  config.threads = 1;
  config.seed = 0x3d0b0;
  config.averaging = 2;
  config.backend = backend;
  if (backend == sim::backend_kind::ooo) {
    config.uarch = sim::cortex_a7_ooo();
  }
  return config;
}

/// campaign.cycles, the simulated cycles behind every finished record.
std::uint64_t campaign_cycles() {
  static const telem::counter cycles{"campaign.cycles", "cycles",
                                     "campaign"};
  return cycles.value();
}

TEST(WindowBoundedRun, SourceRowsMatchProduceAcrossLanesAndThreads) {
  for (const sim::backend_kind backend :
       {sim::backend_kind::inorder, sim::backend_kind::ooo}) {
    const campaign_config base = aes_config(backend);
    trace_campaign reference(base, kKey);
    const std::vector<acquisition_record> oracle =
        oracle_of(reference.engine());
    for (const int lanes : {0, 1, 2, 7, 32, 64}) {
      for (const unsigned threads : {1U, 3U}) {
        campaign_config config = base;
        config.sim_batch_lanes = lanes;
        config.threads = threads;
        trace_campaign campaign(config, kKey);
        aes_campaign_source source(campaign);
        expect_rows_match(stream_rows(source), oracle,
                          std::string(sim::backend_kind_name(backend)) +
                              " lanes=" + std::to_string(lanes) +
                              " threads=" + std::to_string(threads));
      }
    }
  }
}

// A speculating OoO core runs every trial per-trace; on the branchy AES
// it mispredicts, and wrong-path µops in flight at the end mark must not
// matter either.
TEST(WindowBoundedRun, SpeculatingOooPerTrace) {
  auto layout = std::make_shared<const crypto::aes_program_layout>(
      crypto::generate_aes128_branchy_program());
  sim::speculation_config spec;
  spec.predictor = sim::predictor_kind::bimodal;
  for (const campaign_window window : {kBeforeBranches, kAfterBranches}) {
    acquisition_config config;
    config.traces = 9;
    config.threads = 2;
    config.seed = 0x5bec;
    config.window = window;
    config.backend = sim::backend_kind::ooo;
    config.uarch = sim::cortex_a7_ooo_spec(spec);
    acquisition_campaign campaign(sim::program_image(layout->prog), config);
    campaign.set_setup(aes_setup(layout));
    acquisition_source source(campaign);
    expect_rows_match(stream_rows(source), oracle_of(campaign),
                      "spec window end " +
                          std::to_string(window.end_mark));
  }
}

// The branchy AES on both batch engines: with the window after its
// branches, ejected lanes are re-simulated on the (window-bounded)
// per-trace fallback; with the window before them, no lane is ejected.
TEST(WindowBoundedRun, BranchyAesEjectionsAndFallback) {
  auto layout = std::make_shared<const crypto::aes_program_layout>(
      crypto::generate_aes128_branchy_program());
  for (const sim::backend_kind backend :
       {sim::backend_kind::inorder, sim::backend_kind::ooo}) {
    for (const campaign_window window : {kBeforeBranches, kAfterBranches}) {
      acquisition_config config;
      config.traces = 23;
      config.threads = 2;
      config.seed = 0xb7a9c4;
      config.averaging = 2;
      config.window = window;
      config.backend = backend;
      if (backend == sim::backend_kind::ooo) {
        config.uarch = sim::cortex_a7_ooo();
      }
      config.sim_batch_lanes = 8;
      acquisition_campaign campaign(sim::program_image(layout->prog),
                                    config);
      campaign.set_setup(aes_setup(layout));
      acquisition_source source(campaign);
      expect_rows_match(stream_rows(source), oracle_of(campaign),
                        std::string(sim::backend_kind_name(backend)) +
                            " window end " +
                            std::to_string(window.end_mark));
    }
  }
}

// The Figure-4 environment: OS noise plus the simulated second core.
TEST(WindowBoundedRun, SecondCoreWithOsNoise) {
  campaign_config config = aes_config(sim::backend_kind::inorder);
  config.traces = 21;
  config.threads = 2;
  config.power.os_noise.enabled = true;
  config.simulated_second_core = true;
  config.second_core_cycles = 2048;
  trace_campaign campaign(config, kKey);
  aes_campaign_source source(campaign);
  expect_rows_match(stream_rows(source), oracle_of(campaign.engine()),
                    "second core");
}

// The TVLA fixed-vs-random split through trace_campaign::run(pass).
TEST(WindowBoundedRun, FixedVsRandomPolicyThroughPass) {
  campaign_config config = aes_config(sim::backend_kind::inorder);
  config.traces = 21;
  config.averaging = 1;
  trace_campaign campaign(config, kKey);
  const crypto::aes_block fixed = {0xda, 0x39, 0xa3, 0xee, 0x5e, 0x6b,
                                   0x4b, 0x0d, 0x32, 0x55, 0xbf, 0xef,
                                   0x95, 0x60, 0x18, 0x90};
  campaign.set_plaintext_policy(
      [fixed](std::size_t index, util::xoshiro256& rng) {
        if (index % 2 == 0) {
          return fixed;
        }
        crypto::aes_block pt;
        for (auto& b : pt) {
          b = rng.next_u8();
        }
        return pt;
      });

  struct collect final : analysis_pass {
    std::vector<row> rows;
    void consume_batch(const trace_batch_view& batch) override {
      copy_rows(batch, rows);
    }
  } pass;
  campaign.run(pass);
  expect_rows_match(pass.rows, oracle_of(campaign.engine()),
                    "fixed-vs-random");
}

// Both archive writers route through the source; their rows must be the
// records produce() builds from whole runs.
TEST(WindowBoundedRun, ArchiveRowsMatchProduce) {
  auto layout = std::make_shared<const crypto::aes_program_layout>(
      crypto::generate_aes128_branchy_program());
  acquisition_config config;
  config.traces = 19;
  config.first_index = 4;
  config.threads = 2;
  config.seed = 0xa4c817e;
  config.window = kAfterBranches;
  const std::string path =
      ::testing::TempDir() + "window_bounded_archive.trc";
  std::remove(path.c_str());
  archive_options options;
  options.chunk_traces = 8;
  EXPECT_EQ(archive_acquisition(sim::program_image(layout->prog), config,
                                aes_setup(layout), path, options)
                .simulated,
            config.traces);

  acquisition_campaign campaign(sim::program_image(layout->prog), config);
  campaign.set_setup(aes_setup(layout));
  {
    const power::trace_store_reader reader(path);
    archive_source source(reader);
    expect_rows_match(stream_rows(source), oracle_of(campaign),
                      "archive_acquisition");
  }
  std::remove(path.c_str());

  campaign_config aes = aes_config(sim::backend_kind::ooo);
  aes.traces = 13;
  EXPECT_EQ(archive_aes_campaign(aes, kKey, path, options).simulated,
            aes.traces);
  trace_campaign reference(aes, kKey);
  {
    const power::trace_store_reader reader(path);
    archive_source source(reader);
    expect_rows_match(stream_rows(source), oracle_of(reference.engine()),
                      "archive_aes_campaign");
  }
  std::remove(path.c_str());
}

// campaign.cycles counts simulated cycles: a window-bounded row costs its
// end mark's cycle plus one, a whole record its run to halt.  On the
// branchy AES this also pins that the per-trace fallback for ejected
// lanes ends at the end mark too.
TEST(WindowBoundedRun, CampaignCyclesCountSimulatedCycles) {
  for (const bool branchy : {false, true}) {
    auto layout = std::make_shared<const crypto::aes_program_layout>(
        branchy ? crypto::generate_aes128_branchy_program()
                : crypto::generate_aes128_program());
    acquisition_config config;
    config.traces = 21;
    config.threads = 2;
    config.seed = 0xc1c1e5;
    config.sim_batch_lanes = 8;
    if (branchy) {
      config.window = kAfterBranches;
    }
    acquisition_campaign campaign(sim::program_image(layout->prog), config);
    campaign.set_setup(aes_setup(layout));
    std::uint64_t bounded = 0;
    std::uint64_t whole = 0;
    for (const acquisition_record& rec : oracle_of(campaign)) {
      std::uint64_t begin = 0;
      std::uint64_t end = 0;
      ASSERT_TRUE(find_campaign_window(rec.marks, config.window, begin, end));
      bounded += end + 1;
      whole += rec.cycles;
    }
    ASSERT_LT(bounded, whole);

    const std::uint64_t before = campaign_cycles();
    acquisition_source source(campaign);
    stream_rows(source);
    EXPECT_EQ(campaign_cycles() - before, bounded) << "branchy=" << branchy;

    const std::uint64_t before_sink = campaign_cycles();
    campaign.run([](acquisition_record&&) {});
    EXPECT_EQ(campaign_cycles() - before_sink, whole)
        << "branchy=" << branchy;
  }
}

// Full-run windows cover the whole run and timing-only campaigns have no
// window: neither may stop early, even behind a source.
TEST(WindowBoundedRun, FullRunAndTimingOnlyRunToHalt) {
  auto layout = std::make_shared<const crypto::aes_program_layout>(
      crypto::generate_aes128_program());
  for (const bool synthesize : {true, false}) {
    acquisition_config config;
    config.traces = 11;
    config.threads = 2;
    config.seed = 0xf011;
    config.full_run_window = synthesize;
    config.synthesize = synthesize;
    acquisition_campaign campaign(sim::program_image(layout->prog), config);
    campaign.set_setup(aes_setup(layout));
    const std::vector<acquisition_record> oracle = oracle_of(campaign);
    std::uint64_t whole = 0;
    for (const acquisition_record& rec : oracle) {
      whole += rec.cycles;
      EXPECT_EQ(rec.marks.back().id, crypto::mark_encrypt_end);
    }

    const std::uint64_t before = campaign_cycles();
    acquisition_source source(campaign);
    const std::vector<row> rows = stream_rows(source);
    EXPECT_EQ(campaign_cycles() - before, whole)
        << "synthesize=" << synthesize;
    ASSERT_EQ(rows.size(), oracle.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_TRUE(same_bits(rows[i].samples, oracle[i].samples));
      EXPECT_EQ(rows[i].samples.empty(), !synthesize);
    }
  }
}

// ----------------------------------------------------------- the cores

/// Plaintext of lane/trial `l`.
crypto::aes_block plaintext_of(std::size_t l) {
  crypto::aes_block pt{};
  for (std::size_t b = 0; b < pt.size(); ++b) {
    pt[b] = static_cast<std::uint8_t>(0x11 * l + 7 * b + 3);
  }
  return pt;
}

/// Runs one per-trace core on trial `trial` of the AES with the cutoff
/// at `end_mark`.
std::unique_ptr<sim::backend> run_core(const crypto::aes_program_layout& layout,
                                       const sim::micro_arch_config& uarch,
                                       sim::backend_kind kind,
                                       std::uint16_t end_mark, bool end_run,
                                       std::size_t trial = 0) {
  std::unique_ptr<sim::backend> core =
      sim::make_backend(kind, sim::program_image(layout.prog), uarch);
  core->set_activity_cutoff_mark(end_mark, end_run);
  crypto::install_aes_inputs(core->memory(), layout,
                             crypto::expand_key(kKey), plaintext_of(trial));
  core->warm_caches();
  core->run();
  return core;
}

/// Same for a 4-lane batch engine running trials 0..3.
std::unique_ptr<sim::batch_backend>
run_batch(const crypto::aes_program_layout& layout,
          const sim::micro_arch_config& uarch, sim::backend_kind kind,
          std::uint16_t end_mark, bool end_run) {
  constexpr std::size_t lanes = 4;
  std::unique_ptr<sim::batch_backend> batch = sim::make_batch_backend(
      kind, sim::program_image(layout.prog), uarch, lanes);
  batch->set_activity_cutoff_mark(end_mark, end_run);
  for (std::size_t l = 0; l < lanes; ++l) {
    sim::batch_lane_view lane(*batch, l);
    crypto::install_aes_inputs(lane.memory(), layout,
                               crypto::expand_key(kKey), plaintext_of(l));
  }
  batch->warm_caches();
  batch->run();
  return batch;
}

void expect_same_activity(const sim::activity_trace& a,
                          const sim::activity_trace& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].cycle == b[i].cycle && a[i].comp == b[i].comp &&
                a[i].lane == b[i].lane && a[i].toggles == b[i].toggles)
        << what << " event " << i;
  }
}

struct core_case {
  sim::backend_kind kind;
  sim::micro_arch_config uarch;
  const char* name;
};

std::vector<core_case> core_cases() {
  sim::speculation_config spec;
  spec.predictor = sim::predictor_kind::gshare;
  return {{sim::backend_kind::inorder, sim::cortex_a7(), "inorder"},
          {sim::backend_kind::ooo, sim::cortex_a7_ooo(), "ooo"},
          {sim::backend_kind::ooo, sim::cortex_a7_ooo_spec(spec), "spec"}};
}

// Each per-trace core halts in the cycle its end mark commits, with the
// marks up to it and the recorded activity unchanged.
TEST(WindowBoundedRun, PerTraceCoresStopAtTheEndMark) {
  const crypto::aes_program_layout layout = crypto::generate_aes128_program();
  for (const core_case& c : core_cases()) {
    const auto full = run_core(layout, c.uarch, c.kind,
                               crypto::mark_round1_end, false);
    const auto bounded = run_core(layout, c.uarch, c.kind,
                                  crypto::mark_round1_end, true);
    ASSERT_FALSE(bounded->marks().empty()) << c.name;
    const sim::mark_stamp& last = bounded->marks().back();
    EXPECT_EQ(last.id, crypto::mark_round1_end) << c.name;
    EXPECT_EQ(bounded->cycles(), last.cycle + 1) << c.name;
    EXPECT_LT(bounded->cycles(), full->cycles()) << c.name;
    EXPECT_TRUE(bounded->state().halted) << c.name;
    ASSERT_LE(bounded->marks().size(), full->marks().size());
    for (std::size_t m = 0; m < bounded->marks().size(); ++m) {
      EXPECT_EQ(bounded->marks()[m].id, full->marks()[m].id) << c.name;
      EXPECT_EQ(bounded->marks()[m].cycle, full->marks()[m].cycle) << c.name;
    }
    expect_same_activity(bounded->activity(), full->activity(), c.name);

    // reset() keeps the setting; clear_activity_cutoff_mark() drops both.
    bounded->reset();
    bounded->clear_activity_cutoff_mark();
    crypto::install_aes_inputs(bounded->memory(), layout,
                               crypto::expand_key(kKey), plaintext_of(0));
    bounded->warm_caches();
    bounded->run();
    EXPECT_EQ(bounded->cycles(), full->cycles()) << c.name;
  }
}

// Both batch engines halt the whole batch at the end mark, with each
// lane's recorded activity unchanged.
TEST(WindowBoundedRun, BatchCoresStopAtTheEndMark) {
  const crypto::aes_program_layout layout = crypto::generate_aes128_program();
  for (const core_case& c : core_cases()) {
    if (sim::speculation_active(c.uarch)) {
      continue; // no batched speculating core
    }
    const auto full = run_batch(layout, c.uarch, c.kind,
                                crypto::mark_round1_end, false);
    const auto bounded = run_batch(layout, c.uarch, c.kind,
                                   crypto::mark_round1_end, true);
    const sim::mark_stamp& last = bounded->marks().back();
    EXPECT_EQ(last.id, crypto::mark_round1_end) << c.name;
    EXPECT_EQ(bounded->cycles(), last.cycle + 1) << c.name;
    EXPECT_LT(bounded->cycles(), full->cycles()) << c.name;
    EXPECT_FALSE(bounded->any_lane_diverged()) << c.name;
    for (std::size_t l = 0; l < bounded->lanes(); ++l) {
      EXPECT_TRUE(bounded->state(l).halted) << c.name;
      expect_same_activity(bounded->activity(l), full->activity(l),
                           std::string(c.name) + " lane " +
                               std::to_string(l));
    }
  }
}

// On the branchy AES, lanes a run to halt ejects after the end mark stay
// in a batch that ends there; a later end mark still ejects them.
TEST(WindowBoundedRun, BatchEjectsOnlyBeforeTheEndMark) {
  const crypto::aes_program_layout layout =
      crypto::generate_aes128_branchy_program();
  for (const core_case& c : core_cases()) {
    if (sim::speculation_active(c.uarch)) {
      continue;
    }
    const auto full = run_batch(layout, c.uarch, c.kind,
                                kBeforeBranches.end_mark, false);
    const auto bounded = run_batch(layout, c.uarch, c.kind,
                                   kBeforeBranches.end_mark, true);
    EXPECT_TRUE(full->any_lane_diverged()) << c.name;
    EXPECT_FALSE(bounded->any_lane_diverged()) << c.name;
    EXPECT_TRUE(run_batch(layout, c.uarch, c.kind, kAfterBranches.end_mark,
                          true)
                    ->any_lane_diverged())
        << c.name;
    for (std::size_t l = 0; l < bounded->lanes(); ++l) {
      const auto reference = run_core(layout, c.uarch, c.kind,
                                      kBeforeBranches.end_mark, false, l);
      expect_same_activity(bounded->activity(l), reference->activity(),
                           std::string(c.name) + " lane " +
                               std::to_string(l));
    }
  }
}

} // namespace
} // namespace usca::core
