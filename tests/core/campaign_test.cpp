// Tests for the parallel trace-campaign engine: the determinism contract
// (same seed => bit-identical traces, across runs AND across thread
// counts), shard-boundary correctness, the prefix/extension property, and
// end-to-end CPA key recovery through the campaign API.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/campaign.h"
#include "crypto/aes_codegen.h"
#include "stats/cpa.h"
#include "stats/ttest.h"
#include "util/bitops.h"
#include "util/error.h"

namespace usca {
namespace {

const crypto::aes_key kKey = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                              0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                              0x09, 0xcf, 0x4f, 0x3c};

core::campaign_config small_config(std::size_t traces, unsigned threads,
                                   std::uint64_t seed) {
  core::campaign_config config;
  config.traces = traces;
  config.threads = threads;
  config.seed = seed;
  config.averaging = 2;
  config.window = {crypto::mark_ark0_end, crypto::mark_sb1_end};
  return config;
}

std::vector<core::acquisition_record>
collect(const core::campaign_config& config) {
  core::trace_campaign campaign(config, kKey);
  std::vector<core::acquisition_record> records;
  campaign.engine().run([&](core::acquisition_record&& rec) {
    records.push_back(std::move(rec));
  });
  return records;
}

void expect_identical(const std::vector<core::acquisition_record>& a,
                      const std::vector<core::acquisition_record>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].labels, b[i].labels);
    EXPECT_EQ(a[i].window_begin, b[i].window_begin);
    EXPECT_EQ(a[i].window_end, b[i].window_end);
    ASSERT_EQ(a[i].samples.size(), b[i].samples.size());
    for (std::size_t s = 0; s < a[i].samples.size(); ++s) {
      // Bit-identical, not approximately equal: the determinism guarantee
      // is exact reproducibility.
      EXPECT_EQ(a[i].samples[s], b[i].samples[s])
          << "trace " << i << " sample " << s;
    }
  }
}

TEST(TraceCampaign, SameSeedSameTracesAcrossRuns) {
  const auto first = collect(small_config(12, 2, 0xabcd));
  const auto second = collect(small_config(12, 2, 0xabcd));
  expect_identical(first, second);
}

TEST(TraceCampaign, TracesIndependentOfThreadCount) {
  const auto serial = collect(small_config(13, 1, 0x5eed));
  const auto parallel = collect(small_config(13, 4, 0x5eed));
  expect_identical(serial, parallel);
}

TEST(TraceCampaign, DifferentSeedsDifferentNoise) {
  const auto a = collect(small_config(1, 1, 1));
  const auto b = collect(small_config(1, 1, 2));
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  bool any_difference = a[0].labels != b[0].labels;
  for (std::size_t s = 0;
       !any_difference && s < a[0].samples.size(); ++s) {
    any_difference = a[0].samples[s] != b[0].samples[s];
  }
  EXPECT_TRUE(any_difference);
}

TEST(TraceCampaign, ShardBoundaryDeliversEveryIndexInOrder) {
  // 7 traces over 4 workers: trace count not divisible by the thread
  // count, some workers get fewer items, delivery stays 0..6 exactly.
  const auto records = collect(small_config(7, 4, 0x77));
  ASSERT_EQ(records.size(), 7u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].index, i);
  }
}

TEST(TraceCampaign, MoreThreadsThanTraces) {
  const auto records = collect(small_config(3, 8, 0x88));
  ASSERT_EQ(records.size(), 3u);
  expect_identical(records, collect(small_config(3, 1, 0x88)));
}

TEST(TraceCampaign, EmptyCampaignIsANoOp) {
  std::size_t delivered = 0;
  core::trace_campaign campaign(small_config(0, 4, 0x99), kKey);
  campaign.engine().run([&](core::acquisition_record&&) { ++delivered; });
  EXPECT_EQ(delivered, 0u);
}

TEST(TraceCampaign, PrefixPropertyAndDisjointExtension) {
  // A longer campaign equals a shorter one plus an extension batch over
  // the remaining index range, under the same master seed.
  const auto full = collect(small_config(6, 2, 0x1234));

  auto head_config = small_config(4, 2, 0x1234);
  const auto head = collect(head_config);

  auto tail_config = small_config(2, 2, 0x1234);
  tail_config.first_index = 4;
  const auto tail = collect(tail_config);

  std::vector<core::acquisition_record> stitched = head;
  for (const auto& rec : tail) {
    stitched.push_back(rec);
  }
  expect_identical(full, stitched);
}

TEST(TraceCampaign, RunMatchesProduce) {
  auto config = small_config(5, 2, 0x4242);
  core::trace_campaign campaign(config, kKey);
  std::vector<core::acquisition_record> from_run;
  campaign.engine().run([&](core::acquisition_record&& rec) {
    from_run.push_back(std::move(rec));
  });
  ASSERT_EQ(from_run.size(), 5u);
  for (std::size_t i = 0; i < from_run.size(); ++i) {
    const core::trace_record direct = campaign.produce(i);
    EXPECT_EQ(std::vector<double>(direct.plaintext.begin(),
                                  direct.plaintext.end()),
              from_run[i].labels);
    ASSERT_EQ(direct.samples.size(), from_run[i].samples.size());
    for (std::size_t s = 0; s < direct.samples.size(); ++s) {
      EXPECT_EQ(direct.samples[s], from_run[i].samples[s]);
    }
  }
}

TEST(TraceCampaign, PlaintextPolicyControlsPopulations) {
  const crypto::aes_block fixed_pt = {1, 2, 3, 4, 5, 6, 7, 8,
                                      9, 10, 11, 12, 13, 14, 15, 16};
  core::trace_campaign campaign(small_config(8, 2, 0x1111), kKey);
  campaign.set_plaintext_policy(
      [fixed_pt](std::size_t index, util::xoshiro256& rng) {
        if (index % 2 == 0) {
          return fixed_pt;
        }
        crypto::aes_block pt;
        for (auto& b : pt) {
          b = rng.next_u8();
        }
        return pt;
      });
  const std::vector<double> fixed_labels(fixed_pt.begin(), fixed_pt.end());
  std::size_t fixed_count = 0;
  campaign.engine().run([&](core::acquisition_record&& rec) {
    if (rec.labels == fixed_labels) {
      ++fixed_count;
    } else {
      EXPECT_EQ(rec.index % 2, 1u);
    }
  });
  EXPECT_EQ(fixed_count, 4u);
}

TEST(TraceCampaign, SinkExceptionAbortsAndRethrows) {
  core::trace_campaign campaign(small_config(20, 4, 0x2222), kKey);
  std::size_t delivered = 0;
  EXPECT_THROW(campaign.engine().run([&](core::acquisition_record&&) {
                 if (++delivered == 3) {
                   throw std::runtime_error("stop");
                 }
               }),
               std::runtime_error);
  EXPECT_EQ(delivered, 3u);
}

TEST(TraceCampaign, MissingWindowMarkThrows) {
  auto config = small_config(2, 2, 0x3333);
  config.window = {9999, crypto::mark_sb1_end}; // no such marker id
  core::trace_campaign campaign(config, kKey);
  EXPECT_THROW(campaign.engine().run([](core::acquisition_record&&) {}),
               util::analysis_error);
}

TEST(TraceCampaign, PerTraceSeedsAreStable) {
  // The seed derivation scheme is load-bearing for reproducing archived
  // campaign results; pin it.
  EXPECT_EQ(core::trace_campaign::trace_seed(0, 0),
            core::trace_campaign::trace_seed(0, 0));
  EXPECT_NE(core::trace_campaign::trace_seed(0, 0),
            core::trace_campaign::trace_seed(0, 1));
  EXPECT_NE(core::trace_campaign::trace_seed(0, 0),
            core::trace_campaign::trace_seed(1, 0));
  // Golden value of the scheme (splitmix64 over a golden-ratio stride);
  // changing it silently would invalidate recorded experiment outputs.
  std::uint64_t state = 0 + 0x9e3779b97f4a7c15ULL;
  EXPECT_EQ(core::trace_campaign::trace_seed(0, 0),
            util::splitmix64(state));
}

TEST(TraceCampaign, CpaRecoversKeyThroughCampaignApi) {
  // End-to-end: the synthetic leaky AES gadget simulated and synthesized
  // by the campaign engine yields a CPA that ranks the true key byte
  // first, exactly like the hand-rolled serial loop it replaced.
  core::campaign_config config;
  config.traces = 400;
  config.threads = 4;
  config.seed = 11;
  config.averaging = 4;
  config.window = {crypto::mark_encrypt_begin, crypto::mark_round1_end};
  core::trace_campaign campaign(config, kKey);

  stats::partitioned_cpa cpa(0);
  bool ready = false;
  campaign.engine().run([&](core::acquisition_record&& rec) {
    if (!ready) {
      cpa = stats::partitioned_cpa(rec.samples.size());
      ready = true;
    }
    cpa.add_trace(static_cast<std::uint8_t>(rec.labels[0]), rec.samples);
  });

  const stats::cpa_result result = cpa.solve(
      [](std::size_t guess, std::size_t pt_byte) {
        return static_cast<double>(
            util::hamming_weight(crypto::subbytes_hypothesis(
                static_cast<std::uint8_t>(pt_byte),
                static_cast<std::uint8_t>(guess))));
      },
      256);
  EXPECT_EQ(result.best().guess, kKey[0]);
  EXPECT_EQ(result.rank_of(kKey[0]), 0u);
}

TEST(TraceCampaign, StatisticsIdenticalAcrossThreadCounts) {
  // In-order delivery fixes the floating-point accumulation order, so
  // even the reduced statistics match bit-for-bit between a serial and a
  // parallel campaign.
  const auto run_tvla = [&](unsigned threads) {
    auto config = small_config(16, threads, 0xdead);
    core::trace_campaign campaign(config, kKey);
    stats::tvla_accumulator acc(0);
    bool ready = false;
    campaign.engine().run([&](core::acquisition_record&& rec) {
      if (!ready) {
        acc = stats::tvla_accumulator(rec.samples.size());
        ready = true;
      }
      if (rec.index % 2 == 0) {
        acc.add_fixed(rec.samples);
      } else {
        acc.add_random(rec.samples);
      }
    });
    return acc.abs_t();
  };
  const std::vector<double> serial = run_tvla(1);
  const std::vector<double> parallel = run_tvla(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t s = 0; s < serial.size(); ++s) {
    EXPECT_EQ(serial[s], parallel[s]);
  }
}

} // namespace
} // namespace usca
