// Tests for the generic acquisition engine: the campaign determinism
// contract (bit-identical records at any thread count, produce == run),
// label delivery, window modes (marker / full-run / timing-only) and the
// attribution-activity retention bound.
#include <gtest/gtest.h>

#include <vector>

#include "core/acquisition.h"
#include "util/error.h"

namespace usca {
namespace {

/// mark(1); eor; add; lsl; mark(2); add — a small two-marker program.
sim::program_image marked_program() {
  asmx::program_builder b;
  b.emit(isa::ins::mark(1));
  b.emit(isa::ins::eor(isa::reg::r1, isa::reg::r2, isa::reg::r3));
  b.emit(isa::ins::add(isa::reg::r4, isa::reg::r1, isa::reg::r2));
  b.emit(isa::ins::lsl(isa::reg::r5, isa::reg::r4, 2));
  b.emit(isa::ins::mark(2));
  b.emit(isa::ins::add(isa::reg::r6, isa::reg::r5, isa::reg::r4));
  return sim::program_image(b.build());
}

core::acquisition_campaign::setup_fn random_registers() {
  return [](std::size_t, util::xoshiro256& rng, sim::backend& pipe,
            std::vector<double>& labels) {
    const std::uint32_t a = rng.next_u32();
    const std::uint32_t b = rng.next_u32();
    pipe.state().set_reg(isa::reg::r2, a);
    pipe.state().set_reg(isa::reg::r3, b);
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

TEST(AcquisitionCampaign, BitIdenticalAcrossThreadCounts) {
  core::acquisition_config config;
  config.traces = 9;
  config.seed = 0xace;
  config.averaging = 4;
  config.window = core::campaign_window{1, 2};

  config.threads = 1;
  const auto serial = collect(config);
  config.threads = 4;
  const auto parallel = collect(config);

  ASSERT_EQ(serial.size(), 9u);
  ASSERT_EQ(parallel.size(), 9u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].index, i);
    EXPECT_EQ(parallel[i].index, i);
    EXPECT_EQ(serial[i].labels, parallel[i].labels);
    EXPECT_EQ(serial[i].window_begin, parallel[i].window_begin);
    EXPECT_EQ(serial[i].window_end, parallel[i].window_end);
    ASSERT_EQ(serial[i].samples.size(), parallel[i].samples.size());
    for (std::size_t s = 0; s < serial[i].samples.size(); ++s) {
      EXPECT_EQ(serial[i].samples[s], parallel[i].samples[s]);
    }
  }
}

TEST(AcquisitionCampaign, RunMatchesProduce) {
  core::acquisition_config config;
  config.traces = 5;
  config.threads = 2;
  config.seed = 0xbead;
  config.window = core::campaign_window{1, 2};
  core::acquisition_campaign campaign(marked_program(), config);
  campaign.set_setup(random_registers());

  std::vector<core::acquisition_record> from_run;
  campaign.run([&](core::acquisition_record&& rec) {
    from_run.push_back(std::move(rec));
  });
  ASSERT_EQ(from_run.size(), 5u);
  for (std::size_t i = 0; i < from_run.size(); ++i) {
    const core::acquisition_record direct = campaign.produce(i);
    EXPECT_EQ(direct.labels, from_run[i].labels);
    ASSERT_EQ(direct.samples.size(), from_run[i].samples.size());
    for (std::size_t s = 0; s < direct.samples.size(); ++s) {
      EXPECT_EQ(direct.samples[s], from_run[i].samples[s]);
    }
  }
}

TEST(AcquisitionCampaign, FullRunWindowCoversWholeRun) {
  core::acquisition_config config;
  config.traces = 2;
  config.threads = 1;
  config.full_run_window = true;
  const auto records = collect(config);
  ASSERT_EQ(records.size(), 2u);
  for (const auto& rec : records) {
    EXPECT_EQ(rec.window_begin, 0u);
    EXPECT_EQ(rec.window_end, rec.cycles + core::full_run_tail_pad);
    EXPECT_EQ(rec.samples.size(), rec.window_end);
  }
}

TEST(AcquisitionCampaign, TimingOnlyModeSkipsSynthesis) {
  core::acquisition_config config;
  config.traces = 3;
  config.threads = 2;
  config.synthesize = false;
  config.window = core::campaign_window{1, 2};
  const auto records = collect(config);
  ASSERT_EQ(records.size(), 3u);
  for (const auto& rec : records) {
    EXPECT_TRUE(rec.samples.empty());
    EXPECT_GT(rec.cycles, 0u);
    EXPECT_GT(rec.instructions, 0u);
    EXPECT_LT(rec.window_begin, rec.window_end);
  }
}

TEST(AcquisitionCampaign, KeepsWindowActivityOnlyForRequestedPrefix) {
  core::acquisition_config config;
  config.traces = 6;
  config.threads = 3;
  config.keep_activity_first = 2;
  config.window = core::campaign_window{1, 2};
  const auto records = collect(config);
  ASSERT_EQ(records.size(), 6u);
  for (const auto& rec : records) {
    if (rec.index < 2) {
      EXPECT_FALSE(rec.window_activity.empty());
      for (const sim::activity_event& ev : rec.window_activity) {
        EXPECT_GE(ev.cycle, rec.window_begin);
        EXPECT_LT(ev.cycle, rec.window_end);
      }
    } else {
      EXPECT_TRUE(rec.window_activity.empty());
    }
  }
}

TEST(AcquisitionCampaign, MissingWindowMarkThrows) {
  core::acquisition_config config;
  config.traces = 1;
  config.threads = 1;
  config.window = core::campaign_window{1, 999};
  core::acquisition_campaign campaign(marked_program(), config);
  EXPECT_THROW(campaign.run([](core::acquisition_record&&) {}),
               util::analysis_error);
}

} // namespace
} // namespace usca
