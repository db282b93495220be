// Campaign-level contract of batched SoA simulation: a campaign batched
// at ANY lane count, on either backend, at any thread count, streams
// records bit-identical to the per-trace path — samples, plaintexts,
// marks, windows, cycle counts, and the CPA statistics computed from
// them.  This is what makes sim_batch a pure performance knob: flipping
// it can never change a published number.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "crypto/aes128.h"
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

} // namespace
} // namespace usca::core
