// Campaign-level contract of batched SoA simulation: a campaign batched
// at ANY lane count, on either backend, at any thread count, streams
// records bit-identical to the per-trace path — samples, plaintexts,
// marks, windows, cycle counts, and the CPA statistics computed from
// them.  This is what makes sim_batch a pure performance knob: flipping
// it can never change a published number.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/acquisition.h"
#include "core/campaign.h"
#include "crypto/aes128.h"
#include "crypto/aes_codegen.h"
#include "stats/cpa.h"
#include "util/bitops.h"

namespace usca::core {
namespace {

const crypto::aes_key kKey = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                              0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                              0x09, 0xcf, 0x4f, 0x3c};

double hw_model(std::size_t guess, std::size_t pt_byte) {
  return static_cast<double>(util::hamming_weight(
      crypto::subbytes_hypothesis(static_cast<std::uint8_t>(pt_byte),
                                  static_cast<std::uint8_t>(guess))));
}

// 13 traces: a partial final group at every tested lane count.
campaign_config base_config(sim::backend_kind backend) {
  campaign_config config;
  config.traces = 13;
  config.threads = 1;
  config.seed = 0x51b47c4;
  config.averaging = 2;
  config.backend = backend;
  if (backend == sim::backend_kind::ooo) {
    config.uarch = sim::cortex_a7_ooo();
  }
  return config;
}

std::vector<acquisition_record> collect(trace_campaign& campaign) {
  std::vector<acquisition_record> records;
  campaign.engine().run([&records](acquisition_record&& rec) {
    records.push_back(std::move(rec));
  });
  return records;
}

void expect_records_identical(const acquisition_record& got,
                              const acquisition_record& want,
                              const std::string& what) {
  EXPECT_EQ(got.index, want.index) << what;
  EXPECT_EQ(got.labels, want.labels) << what;
  EXPECT_EQ(got.cycles, want.cycles) << what;
  EXPECT_EQ(got.window_begin, want.window_begin) << what;
  EXPECT_EQ(got.window_end, want.window_end) << what;
  ASSERT_EQ(got.marks.size(), want.marks.size()) << what;
  for (std::size_t m = 0; m < got.marks.size(); ++m) {
    EXPECT_EQ(got.marks[m].id, want.marks[m].id) << what;
    EXPECT_EQ(got.marks[m].cycle, want.marks[m].cycle) << what;
  }
  ASSERT_EQ(got.samples.size(), want.samples.size()) << what;
  if (!got.samples.empty()) {
    // memcmp: bit-identity, not approximate floating-point equality.
    EXPECT_EQ(std::memcmp(got.samples.data(), want.samples.data(),
                          got.samples.size() * sizeof(double)),
              0)
        << what;
  }
}

struct sim_batch_param {
  sim::backend_kind backend;
  int lanes;
  unsigned threads;
};

std::string param_name(
    const ::testing::TestParamInfo<sim_batch_param>& info) {
  const char* backend =
      info.param.backend == sim::backend_kind::ooo ? "ooo" : "inorder";
  return std::string(backend) + "_lanes" +
         std::to_string(info.param.lanes) + "_threads" +
         std::to_string(info.param.threads);
}

class CampaignSimBatch : public ::testing::TestWithParam<sim_batch_param> {};

// run() batched at the parametrized width delivers exactly the records
// produce() builds one at a time on a fresh per-trace core.
TEST_P(CampaignSimBatch, RunMatchesPerTraceProduce) {
  const sim_batch_param p = GetParam();
  campaign_config config = base_config(p.backend);
  config.threads = p.threads;
  config.sim_batch_lanes = p.lanes;
  config.first_index = 3; // exercise the index offset in lane derivation
  trace_campaign campaign(config, kKey);

  const std::vector<acquisition_record> records = collect(campaign);
  ASSERT_EQ(records.size(), config.traces);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const acquisition_record want =
        campaign.engine().produce(config.first_index + i);
    expect_records_identical(records[i], want,
                             "trace " + std::to_string(i));
  }
}

INSTANTIATE_TEST_SUITE_P(
    LaneSweep, CampaignSimBatch,
    ::testing::Values(
        sim_batch_param{sim::backend_kind::inorder, 1, 1},
        sim_batch_param{sim::backend_kind::inorder, 2, 3},
        sim_batch_param{sim::backend_kind::inorder, 7, 1},
        sim_batch_param{sim::backend_kind::inorder, 64, 3},
        sim_batch_param{sim::backend_kind::ooo, 1, 3},
        sim_batch_param{sim::backend_kind::ooo, 2, 1},
        sim_batch_param{sim::backend_kind::ooo, 7, 3},
        sim_batch_param{sim::backend_kind::ooo, 64, 1}),
    param_name);

// The CPA statistics — the numbers the paper publishes — are byte-equal
// between a batched and a per-trace campaign: same correlation matrix,
// same key-byte ranks.
TEST(CampaignSimBatchCpa, RanksAndCorrelationsMatchPerTrace) {
  campaign_config config = base_config(sim::backend_kind::inorder);
  config.traces = 24;
  config.threads = 2;

  config.sim_batch_lanes = 0; // per-trace reference
  trace_campaign per_trace(config, kKey);
  config.sim_batch_lanes = 7; // three groups of 7 plus a partial 3
  trace_campaign batched(config, kKey);

  stats::partitioned_cpa ref_cpa(0);
  stats::partitioned_cpa batch_cpa(0);
  bool sized = false;
  per_trace.engine().run([&](acquisition_record&& rec) {
    if (!sized) {
      ref_cpa = stats::partitioned_cpa(rec.samples.size());
      batch_cpa = stats::partitioned_cpa(rec.samples.size());
      sized = true;
    }
    ref_cpa.add_trace(static_cast<std::uint8_t>(rec.labels[0]), rec.samples);
  });
  batched.engine().run([&](acquisition_record&& rec) {
    batch_cpa.add_trace(static_cast<std::uint8_t>(rec.labels[0]),
                        rec.samples);
  });

  const stats::cpa_result want = ref_cpa.solve(hw_model, 256);
  const stats::cpa_result got = batch_cpa.solve(hw_model, 256);
  ASSERT_EQ(got.traces, want.traces);
  ASSERT_EQ(got.corr.size(), want.corr.size());
  for (std::size_t g = 0; g < got.corr.size(); ++g) {
    ASSERT_EQ(got.corr[g].size(), want.corr[g].size());
    if (!got.corr[g].empty()) {
      EXPECT_EQ(std::memcmp(got.corr[g].data(), want.corr[g].data(),
                            got.corr[g].size() * sizeof(double)),
                0)
          << "guess " << g;
    }
  }
  EXPECT_EQ(got.best().guess, want.best().guess);
  EXPECT_EQ(got.rank_of(kKey[0]), want.rank_of(kKey[0]));
}

// The OoO reference scheduler has no batched counterpart: the campaign
// must transparently run it per-trace (and still match produce()).
TEST(CampaignSimBatchFallback, ReferenceSchedulerRunsPerTrace) {
  campaign_config config = base_config(sim::backend_kind::ooo);
  config.traces = 4;
  config.uarch.ooo.scheduler = sim::ooo_scheduler::reference;
  config.sim_batch_lanes = 8;
  trace_campaign campaign(config, kKey);

  const std::vector<acquisition_record> records = collect(campaign);
  ASSERT_EQ(records.size(), config.traces);
  for (std::size_t i = 0; i < records.size(); ++i) {
    expect_records_identical(records[i], campaign.engine().produce(i),
                             "trace " + std::to_string(i));
  }
}

// ------------------------------------------------------ record reuse
//
// The engine may hand a record object it delivered before back to a
// producer, so every field of every record must be rebuilt from scratch:
// a label vector the setup appends to, window activity that only some
// indices keep, samples a sink moved out, and lanes ejected mid-batch and
// re-produced on the fallback core.  Both consumers — run(sink) and the
// trace source — must still deliver exactly produce(i).

/// An AES setup that appends its labels one at a time: a per-index number
/// of them when `varying`, else three (a tile's rows share one label
/// count).
acquisition_campaign::setup_fn appending_setup(
    std::shared_ptr<const crypto::aes_program_layout> layout, bool varying) {
  return [layout, varying, round_keys = crypto::expand_key(kKey)](
             std::size_t index, util::xoshiro256& rng, sim::backend& core,
             std::vector<double>& labels) {
    crypto::aes_block pt;
    for (auto& b : pt) {
      b = rng.next_u8();
    }
    crypto::install_aes_inputs(core.memory(), *layout, round_keys, pt);
    for (std::size_t k = 0; k < (varying ? 1 + index % 5 : 3); ++k) {
      labels.push_back(pt[k]);
    }
  };
}

void expect_same_activity(const sim::activity_trace& got,
                          const sim::activity_trace& want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t e = 0; e < got.size(); ++e) {
    EXPECT_TRUE(got[e].cycle == want[e].cycle && got[e].comp == want[e].comp &&
                got[e].lane == want[e].lane &&
                got[e].toggles == want[e].toggles)
        << what << " event " << e;
  }
}

enum class sink_kind { copy, move_samples, move_record };

TEST(CampaignRecordReuse, EveryFieldIsRebuiltForEveryConsumer) {
  for (const bool branchy : {false, true}) {
    auto layout = std::make_shared<const crypto::aes_program_layout>(
        branchy ? crypto::generate_aes128_branchy_program()
                : crypto::generate_aes128_program());
    acquisition_config base;
    base.traces = 45; // partial final groups at 7 and 32 lanes
    base.seed = 0x7ec7c1e;
    base.averaging = 2;
    // Round 1's AddRoundKey to round 2's ShiftRows: on the branchy AES
    // the window-bounded runs eject lanes too, not only runs to halt.
    base.window = {
        crypto::aes_round_phase_mark(1, crypto::aes_round_phase::add_round_key),
        crypto::aes_round_phase_mark(2, crypto::aes_round_phase::shift_rows)};
    base.keep_activity_first = 10; // inside the second group of 7
    const auto oracle_of = [&](bool varying) {
      acquisition_campaign reference(sim::program_image(layout->prog), base);
      reference.set_setup(appending_setup(layout, varying));
      std::vector<acquisition_record> oracle;
      for (std::size_t i = 0; i < base.traces; ++i) {
        oracle.push_back(reference.produce(i));
      }
      return oracle;
    };
    const std::vector<acquisition_record> oracle = oracle_of(true);
    const std::vector<acquisition_record> rows_oracle = oracle_of(false);
    ASSERT_FALSE(oracle[9].window_activity.empty());
    ASSERT_TRUE(oracle[10].window_activity.empty());

    for (const int lanes : {0, 7, 32}) {
      for (const unsigned threads : {1U, 3U}) {
        const std::string what = std::string(branchy ? "branchy" : "aes") +
                                 " lanes=" + std::to_string(lanes) +
                                 " threads=" + std::to_string(threads);
        acquisition_config config = base;
        config.sim_batch_lanes = lanes;
        config.threads = threads;
        acquisition_campaign campaign(sim::program_image(layout->prog),
                                      config);
        campaign.set_setup(appending_setup(layout, true));

        for (const sink_kind kind :
             {sink_kind::copy, sink_kind::move_samples,
              sink_kind::move_record}) {
          std::vector<acquisition_record> got;
          campaign.run([&got, kind](acquisition_record&& rec) {
            switch (kind) {
            case sink_kind::copy:
              got.push_back(rec);
              break;
            case sink_kind::move_samples: {
              acquisition_record copy;
              copy.samples = std::move(rec.samples);
              copy.index = rec.index;
              copy.window_begin = rec.window_begin;
              copy.window_end = rec.window_end;
              copy.cycles = rec.cycles;
              copy.instructions = rec.instructions;
              copy.marks = rec.marks;
              copy.labels = rec.labels;
              copy.window_activity = rec.window_activity;
              got.push_back(std::move(copy));
              break;
            }
            case sink_kind::move_record:
              got.push_back(std::move(rec));
              break;
            }
          });
          ASSERT_EQ(got.size(), oracle.size()) << what;
          for (std::size_t i = 0; i < got.size(); ++i) {
            const std::string at = what + " sink " +
                                   std::to_string(static_cast<int>(kind)) +
                                   " trace " + std::to_string(i);
            expect_records_identical(got[i], oracle[i], at);
            EXPECT_EQ(got[i].instructions, oracle[i].instructions) << at;
            expect_same_activity(got[i].window_activity,
                                 oracle[i].window_activity, at);
          }
        }

        campaign.set_setup(appending_setup(layout, false));
        acquisition_source source(campaign);
        std::size_t row = 0;
        source.for_each_batch(6, [&](const trace_batch_view& batch) {
          for (std::size_t r = 0; r < batch.count; ++r, ++row) {
            ASSERT_LT(row, rows_oracle.size()) << what;
            const acquisition_record& want = rows_oracle[row];
            const std::span<const double> labels = batch.labels_row(r);
            const std::span<const double> samples = batch.samples_row(r);
            EXPECT_EQ(batch.index(r), want.index) << what;
            EXPECT_EQ(std::vector<double>(labels.begin(), labels.end()),
                      want.labels)
                << what << " source row " << row;
            ASSERT_EQ(samples.size(), want.samples.size()) << what;
            EXPECT_EQ(std::memcmp(samples.data(), want.samples.data(),
                                  samples.size() * sizeof(double)),
                      0)
                << what << " source row " << row;
          }
        });
        EXPECT_EQ(row, rows_oracle.size()) << what;
      }
    }
  }
}

} // namespace
} // namespace usca::core
