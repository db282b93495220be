// Campaign-engine tests on the OoO backend: the determinism contract
// (bit-identical records at any thread count, produce == run with
// worker-owned reset backends) must hold for every backend kind, and the
// backend selector must actually change the simulated machine.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <vector>

#include "core/acquisition.h"
#include "core/campaign.h"
#include "crypto/aes_codegen.h"
#include "stats/cpa.h"
#include "util/bitops.h"

namespace usca {
namespace {

sim::program_image marked_program() {
  asmx::program_builder b;
  b.emit(isa::ins::mark(1));
  b.emit(isa::ins::eor(isa::reg::r1, isa::reg::r2, isa::reg::r3));
  b.emit(isa::ins::add(isa::reg::r4, isa::reg::r1, isa::reg::r2));
  b.emit(isa::ins::lsl(isa::reg::r5, isa::reg::r4, 2));
  b.emit(isa::ins::str(isa::reg::r5, isa::reg::r10, 0));
  b.emit(isa::ins::mark(2));
  b.emit(isa::ins::halt());
  b.define_symbol("buffer", b.data_block(16, 4));
  return sim::program_image(b.build());
}

core::acquisition_campaign::setup_fn random_registers() {
  return [](std::size_t, util::xoshiro256& rng, sim::backend& core,
            std::vector<double>& labels) {
    const std::uint32_t a = rng.next_u32();
    const std::uint32_t b = rng.next_u32();
    core.state().set_reg(isa::reg::r2, a);
    core.state().set_reg(isa::reg::r3, b);
    core.state().set_reg(isa::reg::r10,
                         *core.program().symbol("buffer"));
    labels.assign({static_cast<double>(a & 0xff),
                   static_cast<double>(b & 0xff)});
  };
}

std::vector<core::acquisition_record>
collect(const core::acquisition_config& config) {
  core::acquisition_campaign campaign(marked_program(), config);
  campaign.set_setup(random_registers());
  std::vector<core::acquisition_record> records;
  campaign.run([&](core::acquisition_record&& rec) {
    records.push_back(std::move(rec));
  });
  return records;
}

TEST(OooAcquisition, BitIdenticalAcrossThreadCounts) {
  core::acquisition_config config;
  config.traces = 9;
  config.seed = 0xace;
  config.averaging = 4;
  config.window = core::campaign_window{1, 2};
  config.backend = sim::backend_kind::ooo;
  config.uarch = sim::cortex_a7_ooo();

  config.threads = 1;
  const auto serial = collect(config);
  config.threads = 4;
  const auto parallel = collect(config);

  ASSERT_EQ(serial.size(), 9u);
  ASSERT_EQ(parallel.size(), 9u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].labels, parallel[i].labels);
    EXPECT_EQ(serial[i].window_begin, parallel[i].window_begin);
    EXPECT_EQ(serial[i].window_end, parallel[i].window_end);
    ASSERT_EQ(serial[i].samples.size(), parallel[i].samples.size());
    for (std::size_t s = 0; s < serial[i].samples.size(); ++s) {
      EXPECT_EQ(serial[i].samples[s], parallel[i].samples[s]);
    }
  }
}

TEST(OooAcquisition, RunMatchesProduceThroughWorkerReset) {
  core::acquisition_config config;
  config.traces = 6;
  config.threads = 2;
  config.seed = 0xbead;
  config.window = core::campaign_window{1, 2};
  config.backend = sim::backend_kind::ooo;
  config.uarch = sim::cortex_a7_ooo();
  core::acquisition_campaign campaign(marked_program(), config);
  campaign.set_setup(random_registers());

  std::vector<core::acquisition_record> from_run;
  campaign.run([&](core::acquisition_record&& rec) {
    from_run.push_back(std::move(rec));
  });
  ASSERT_EQ(from_run.size(), 6u);
  for (std::size_t i = 0; i < from_run.size(); ++i) {
    // produce() builds a fresh backend; run() reused a reset one.
    const core::acquisition_record direct = campaign.produce(i);
    EXPECT_EQ(direct.labels, from_run[i].labels);
    ASSERT_EQ(direct.samples.size(), from_run[i].samples.size());
    for (std::size_t s = 0; s < direct.samples.size(); ++s) {
      EXPECT_EQ(direct.samples[s], from_run[i].samples[s]);
    }
  }
}

TEST(OooAcquisition, BackendSelectionChangesTimingAndLeakage) {
  core::acquisition_config config;
  config.traces = 1;
  config.threads = 1;
  config.seed = 0xf00d;
  config.window = core::campaign_window{1, 2};

  core::acquisition_campaign inorder(marked_program(), config);
  inorder.set_setup(random_registers());
  config.backend = sim::backend_kind::ooo;
  config.uarch = sim::cortex_a7_ooo();
  core::acquisition_campaign ooo(marked_program(), config);
  ooo.set_setup(random_registers());

  const auto in_rec = inorder.produce(0);
  const auto ooo_rec = ooo.produce(0);
  // Same per-index seed, same labels...
  EXPECT_EQ(in_rec.labels, ooo_rec.labels);
  // ...different machine: the power traces must differ.
  EXPECT_NE(in_rec.samples, ooo_rec.samples);
}

TEST(OooTraceCampaign, AesWindowIsStableAndDeterministic) {
  const crypto::aes_key key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                               0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                               0x09, 0xcf, 0x4f, 0x3c};
  core::campaign_config config;
  config.traces = 6;
  config.seed = 0x7077;
  config.averaging = 2;
  config.backend = sim::backend_kind::ooo;
  config.uarch = sim::cortex_a7_ooo();

  config.threads = 1;
  core::trace_campaign serial(config, key);
  std::vector<core::acquisition_record> records;
  serial.engine().run([&](core::acquisition_record&& rec) {
    records.push_back(std::move(rec));
  });
  ASSERT_EQ(records.size(), 6u);
  const std::size_t samples = records.front().samples.size();
  EXPECT_GT(samples, 0u);
  for (const auto& rec : records) {
    // Warm caches + input-independent schedule: every trace sees the
    // same marker window (the property the CPA matrix relies on).
    EXPECT_EQ(rec.samples.size(), samples);
  }

  config.threads = 3;
  core::trace_campaign parallel(config, key);
  std::size_t index = 0;
  parallel.engine().run([&](core::acquisition_record&& rec) {
    ASSERT_EQ(rec.labels, records[index].labels);
    ASSERT_EQ(rec.samples, records[index].samples);
    ++index;
  });
  EXPECT_EQ(index, 6u);
}

/// Per-byte CPA outcome of a small OoO campaign: the winning guess and
/// the rank of the true key byte, plus the raw trace matrix fingerprint
/// (sample vectors) for byte-level comparison.
struct cpa_outcome {
  std::array<std::size_t, 16> best_guess{};
  std::array<std::size_t, 16> true_rank{};
  std::vector<std::vector<double>> samples;
};

cpa_outcome run_cpa_campaign(const crypto::aes_key& key,
                             core::campaign_config config) {
  core::trace_campaign campaign(config, key);
  std::vector<stats::partitioned_cpa> cpa;
  cpa_outcome out;
  campaign.engine().run([&](core::acquisition_record&& rec) {
    if (cpa.empty()) {
      cpa.assign(16, stats::partitioned_cpa(rec.samples.size()));
    }
    for (std::size_t b = 0; b < 16; ++b) {
      cpa[b].add_trace(static_cast<std::uint8_t>(rec.labels[b]),
                       rec.samples);
    }
    out.samples.push_back(std::move(rec.samples));
  });
  const auto model = [](std::size_t guess, std::size_t pt_byte) {
    return static_cast<double>(util::hamming_weight(
        crypto::subbytes_hypothesis(static_cast<std::uint8_t>(pt_byte),
                                    static_cast<std::uint8_t>(guess))));
  };
  for (std::size_t b = 0; b < 16; ++b) {
    const stats::cpa_result result = cpa[b].solve(model, 256);
    out.best_guess[b] = result.best().guess;
    out.true_rank[b] = result.rank_of(key[b]);
  }
  return out;
}

// The end-to-end security claim for the scheduler rewrite: the attack
// statistics computed from OoO traces — every per-byte CPA rank and
// winning guess — are byte-identical whether the traces came from the
// fast scheduler, the reference scan scheduler, or a multi-threaded
// fast campaign.  A cycle-level divergence between the schedulers would
// desynchronize the trace matrices and move the correlation peaks; this
// pins the leakage-analysis results themselves, not just the activity
// stream they derive from.
TEST(OooTraceCampaign, CpaRanksInvariantAcrossSchedulerAndThreads) {
  const crypto::aes_key key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                               0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                               0x09, 0xcf, 0x4f, 0x3c};
  core::campaign_config config;
  // Not enough traces for full key recovery (that is the integration
  // suite's job) — enough for non-trivial, seed-stable rank structure.
  config.traces = 150;
  config.threads = 1;
  config.seed = 0x7077;
  config.averaging = 4;
  config.backend = sim::backend_kind::ooo;
  config.uarch = sim::cortex_a7_ooo();

  const cpa_outcome fast = run_cpa_campaign(key, config);

  core::campaign_config ref_config = config;
  ref_config.uarch.ooo.scheduler = sim::ooo_scheduler::reference;
  const cpa_outcome reference = run_cpa_campaign(key, ref_config);

  core::campaign_config threaded_config = config;
  threaded_config.threads = 3;
  const cpa_outcome threaded = run_cpa_campaign(key, threaded_config);

  ASSERT_EQ(fast.samples.size(), 150u);
  // Trace matrices are bit-identical, so every statistic downstream is.
  ASSERT_EQ(fast.samples, reference.samples);
  ASSERT_EQ(fast.samples, threaded.samples);
  EXPECT_EQ(fast.best_guess, reference.best_guess);
  EXPECT_EQ(fast.true_rank, reference.true_rank);
  EXPECT_EQ(fast.best_guess, threaded.best_guess);
  EXPECT_EQ(fast.true_rank, threaded.true_rank);
}

} // namespace
} // namespace usca
