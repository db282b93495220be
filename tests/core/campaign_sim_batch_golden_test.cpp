// Golden digests of campaign output.  Each test folds every byte a
// campaign delivers — indices, plaintexts/labels, cycle counts, windows,
// marks, samples (bit patterns), retained activity — or every byte of an
// archive file into one FNV-1a value and compares it with a constant.
// The constants must never be edited: they pin the records across engine
// refactors.  The noise-bearing ones were re-recorded once, when the
// Gaussian's log moved from the host's libm into util::polar_log, which
// the *CleanSource digests held through.  The *Source tests pin the rows of
// the window-bounded trace source at the paper's averaging of 16, the
// path every batched analysis pass reads.  Batching is a pure performance
// knob, so every test runs at sim_batch_lanes -1 (the default lane
// count), 0 (the per-trace path) and 1 (1-lane batches) against the same
// constant; CI also reruns the suite with USCA_TELEMETRY=1.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/acquisition.h"
#include "core/campaign.h"
#include "core/trace_stream.h"
#include "core/trace_archive.h"
#include "crypto/aes128.h"
#include "crypto/aes_codegen.h"

namespace usca::core {
namespace {

const crypto::aes_key kKey = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                              0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                              0x09, 0xcf, 0x4f, 0x3c};

class fnv1a {
public:
  void byte(std::uint8_t b) noexcept {
    hash_ ^= b;
    hash_ *= 0x100000001b3ULL;
  }
  void u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void f64(double v) noexcept { u64(std::bit_cast<std::uint64_t>(v)); }
  void marks(const std::vector<sim::mark_stamp>& marks) noexcept {
    u64(marks.size());
    for (const sim::mark_stamp& m : marks) {
      u64(m.id);
      u64(m.cycle);
    }
  }
  void samples(const power::trace& samples) noexcept {
    u64(samples.size());
    for (const double s : samples) {
      f64(s);
    }
  }
  std::uint64_t value() const noexcept { return hash_; }

private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Every golden holds at each of these `sim_batch_lanes` values.
class CampaignGolden : public ::testing::TestWithParam<int> {
protected:
  campaign_config aes_config(sim::backend_kind backend) const {
    campaign_config config;
    config.traces = 21; // a partial final group at the default lane count
    config.threads = 2;
    config.seed = 0x601de5;
    config.averaging = 3;
    config.backend = backend;
    if (backend == sim::backend_kind::ooo) {
      config.uarch = sim::cortex_a7_ooo();
    }
    config.sim_batch_lanes = GetParam();
    return config;
  }
};

std::uint64_t aes_digest(trace_campaign& campaign) {
  fnv1a h;
  std::size_t delivered = 0;
  campaign.engine().run([&](acquisition_record&& rec) {
    EXPECT_EQ(rec.index, campaign.config().first_index + delivered);
    ++delivered;
    h.u64(rec.index);
    for (const double b : rec.labels) {
      h.byte(static_cast<std::uint8_t>(b));
    }
    h.u64(rec.cycles);
    h.u64(rec.window_begin);
    h.u64(rec.window_end);
    h.marks(rec.marks);
    h.samples(rec.samples);
  });
  EXPECT_EQ(delivered, campaign.config().traces);
  return h.value();
}

TEST_P(CampaignGolden, Inorder) {
  trace_campaign campaign(aes_config(sim::backend_kind::inorder), kKey);
  EXPECT_EQ(aes_digest(campaign), 0xc590cb8eda59b65aULL);
}

/// Folds every row a trace source delivers — index, labels, sample bit
/// patterns — into one digest.
class digest_pass final : public analysis_pass {
public:
  void consume_batch(const trace_batch_view& batch) override {
    for (std::size_t r = 0; r < batch.count; ++r) {
      EXPECT_EQ(batch.index(r), next_index_);
      ++next_index_;
      h_.u64(batch.index(r));
      h_.u64(batch.n_labels);
      for (const double label : batch.labels_row(r)) {
        h_.f64(label);
      }
      h_.u64(batch.n_samples);
      for (const double sample : batch.samples_row(r)) {
        h_.f64(sample);
      }
    }
  }
  std::size_t rows() const noexcept { return next_index_; }
  std::uint64_t value() const noexcept { return h_.value(); }

private:
  fnv1a h_;
  std::size_t next_index_ = 0;
};

/// The window-bounded source at the paper's averaging of 16: the rows
/// every batched analysis pass reads, pinned apart from the whole records.
std::uint64_t source_digest(trace_campaign& campaign) {
  aes_campaign_source source(campaign);
  digest_pass digest;
  pump(source, digest);
  EXPECT_EQ(digest.rows(), campaign.config().traces);
  return digest.value();
}

TEST_P(CampaignGolden, InorderSource) {
  campaign_config config = aes_config(sim::backend_kind::inorder);
  config.averaging = 16;
  trace_campaign campaign(config, kKey);
  EXPECT_EQ(source_digest(campaign), 0x56be43e1ae1ca98dULL);
}

TEST_P(CampaignGolden, OooSource) {
  campaign_config config = aes_config(sim::backend_kind::ooo);
  config.averaging = 16;
  trace_campaign campaign(config, kKey);
  EXPECT_EQ(source_digest(campaign), 0x5c21408f3d152d64ULL);
}

// The same sources with the Gaussian sigma at 0: each row is the clean
// power of its window (the fused tile column on the batched paths, the
// event walk on the per-trace one), with every noise draw still made but
// scaled to nothing.  These pin the simulation and the clean sum apart
// from the noise, so a change to the noise alone leaves them as they are.
TEST_P(CampaignGolden, InorderCleanSource) {
  campaign_config config = aes_config(sim::backend_kind::inorder);
  config.averaging = 16;
  config.power.gaussian_sigma = 0.0;
  trace_campaign campaign(config, kKey);
  EXPECT_EQ(source_digest(campaign), 0x407568a239ad2c89ULL);
}

TEST_P(CampaignGolden, OooCleanSource) {
  campaign_config config = aes_config(sim::backend_kind::ooo);
  config.averaging = 16;
  config.power.gaussian_sigma = 0.0;
  trace_campaign campaign(config, kKey);
  EXPECT_EQ(source_digest(campaign), 0x0919549a0fcc20ecULL);
}

TEST_P(CampaignGolden, Ooo) {
  campaign_config config = aes_config(sim::backend_kind::ooo);
  config.first_index = 5;
  trace_campaign campaign(config, kKey);
  EXPECT_EQ(aes_digest(campaign), 0x916903fef2bbb7cbULL);
}

// The Figure-4 environment: OS noise plus the simulated interfering core.
TEST_P(CampaignGolden, SecondCoreWithOsNoise) {
  campaign_config config = aes_config(sim::backend_kind::inorder);
  config.power.os_noise.enabled = true;
  config.simulated_second_core = true;
  config.second_core_cycles = 2048;
  trace_campaign campaign(config, kKey);
  EXPECT_EQ(aes_digest(campaign), 0x42f5abc0e8978e52ULL);
}

// The TVLA fixed-vs-random split, one execution per acquisition.
TEST_P(CampaignGolden, FixedVsRandomPolicy) {
  campaign_config config = aes_config(sim::backend_kind::inorder);
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
  EXPECT_EQ(aes_digest(campaign), 0x08c93dbe8b824d0aULL);
}

// Archive bytes pin the record content, the label layout and the stored
// config hash (a changed hash would orphan existing archives).
TEST_P(CampaignGolden, AesArchiveBytes) {
  campaign_config config = aes_config(sim::backend_kind::inorder);
  config.traces = 70;
  config.averaging = 2;
  archive_options options;
  options.chunk_traces = 32; // two full chunks and a short one
  const std::string path =
      ::testing::TempDir() + "campaign_golden_archive.trc";
  std::remove(path.c_str());
  const archive_result result = archive_aes_campaign(config, kKey, path,
                                                     options);
  EXPECT_EQ(result.total, config.traces);

  std::ifstream in(path, std::ios::binary);
  const std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>()};
  std::remove(path.c_str());
  fnv1a h;
  for (const char c : bytes) {
    h.byte(static_cast<std::uint8_t>(c));
  }
  EXPECT_EQ(bytes.size(), 313760u);
  EXPECT_EQ(h.value(), 0x49b848f96f5d5edaULL);
}

// The generic engine on the branchy AES: its key-dependent xtime branch
// ejects most lanes of every in-order batch, so the per-trace fallback
// for ejected lanes runs too.
// Labels and the retained window activity are part of the digest.
TEST_P(CampaignGolden, AcquisitionLabelsAndActivity) {
  const crypto::aes_program_layout layout =
      crypto::generate_aes128_branchy_program();
  const crypto::aes_round_keys round_keys = crypto::expand_key(kKey);

  acquisition_config config;
  config.traces = 19;
  config.threads = 2;
  config.seed = 0xacc601d;
  config.averaging = 2;
  config.window = {crypto::mark_encrypt_begin, crypto::mark_round1_end};
  config.keep_activity_first = 4;
  config.sim_batch_lanes = GetParam();
  acquisition_campaign campaign(sim::program_image(layout.prog), config);
  campaign.set_setup([&layout, &round_keys](
                         std::size_t, util::xoshiro256& rng,
                         sim::backend& core, std::vector<double>& labels) {
    crypto::aes_block pt;
    for (auto& b : pt) {
      b = rng.next_u8();
    }
    crypto::install_aes_inputs(core.memory(), layout, round_keys, pt);
    labels.assign(pt.begin(), pt.end());
  });

  fnv1a h;
  std::size_t delivered = 0;
  campaign.run([&](acquisition_record&& rec) {
    EXPECT_EQ(rec.index, delivered);
    EXPECT_EQ(rec.window_activity.empty(), rec.index >= 4);
    ++delivered;
    h.u64(rec.index);
    h.u64(rec.labels.size());
    for (const double label : rec.labels) {
      h.f64(label);
    }
    h.u64(rec.cycles);
    h.u64(rec.instructions);
    h.u64(rec.window_begin);
    h.u64(rec.window_end);
    h.marks(rec.marks);
    h.samples(rec.samples);
    h.u64(rec.window_activity.size());
    for (const sim::activity_event& ev : rec.window_activity) {
      h.u64(ev.cycle);
      h.byte(static_cast<std::uint8_t>(ev.comp));
      h.byte(ev.lane);
      h.byte(ev.toggles);
    }
  });
  EXPECT_EQ(delivered, config.traces);
  EXPECT_EQ(h.value(), 0xab7de10fddb45796ULL);
}

INSTANTIATE_TEST_SUITE_P(
    LaneCounts, CampaignGolden, ::testing::Values(-1, 0, 1),
    [](const ::testing::TestParamInfo<int>& info) {
      switch (info.param) {
      case -1:
        return std::string("default_lanes");
      case 0:
        return std::string("per_trace");
      default:
        return std::to_string(info.param) + "_lane";
      }
    });

} // namespace
} // namespace usca::core
