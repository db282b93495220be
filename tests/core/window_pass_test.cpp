// The windowed analysis-pass pump: one read of an archived store must be
// able to feed N passes over N distinct sample windows concurrently,
// with every windowed CPA/TVLA result bit-identical to the equivalent
// per-trace single-window run (manual sample slicing) — the
// simulate-once/analyse-many multi-window contract.  Also pins the
// empty-stream semantics (shape-aware sources begin their passes even
// when zero records are delivered) and window_spec validation.
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/analysis_sinks.h"
#include "core/trace_archive.h"
#include "crypto/aes128.h"
#include "power/trace_store_reader.h"
#include "util/bitops.h"
#include "../scratch_path.h"

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

campaign_config small_config(std::size_t traces) {
  campaign_config config;
  config.traces = traces;
  config.threads = 1;
  config.seed = 0x51de;
  config.averaging = 2;
  config.window = {crypto::mark_encrypt_begin, crypto::mark_round1_end};
  return config;
}

std::string archive_small_campaign(const campaign_config& config,
                                   const std::string& name) {
  const std::string path = tests::scratch_path("window_" + name + ".trc");
  std::remove(path.c_str());
  archive_options store;
  store.chunk_traces = 64;
  archive_aes_campaign(config, kKey, path, store);
  return path;
}

TEST(WindowedPasses, ThreeWindowsOneReplayMatchPerTraceSliced) {
  const campaign_config config = small_config(120);
  const std::string path = archive_small_campaign(config, "three");
  const power::trace_store_reader reader(path);
  const std::size_t samples = reader.samples();
  ASSERT_GE(samples, 12u);

  // Three distinct windows plus the full trace, all from ONE pump.
  const window_spec windows[] = {
      window_spec::range(0, samples / 3),
      window_spec::range(samples / 3, 2 * samples / 3),
      window_spec::range(samples / 4, samples),
      window_spec::all(),
  };
  std::vector<cpa_sink> cpa_storage;
  std::vector<tvla_sink> tvla_storage;
  for (const window_spec& w : windows) {
    cpa_storage.emplace_back(0, w);
    tvla_storage.emplace_back(tvla_sink::classifier_fn{}, w);
  }
  std::vector<analysis_pass*> passes;
  for (auto& sink : cpa_storage) {
    passes.push_back(&sink);
  }
  for (auto& sink : tvla_storage) {
    passes.push_back(&sink);
  }
  archive_source source(reader);
  pump(source, passes);

  // Equivalent per-trace single-window runs: manual slicing of each
  // record, one accumulator per window, straight from the reader.
  for (std::size_t w = 0; w < std::size(windows); ++w) {
    const std::size_t first = windows[w].first;
    const std::size_t length = windows[w].resolve(samples);
    stats::partitioned_cpa cpa(length);
    stats::tvla_accumulator tvla(length);
    reader.stream([&](std::size_t index, std::span<const double> labels,
                      std::span<const double> row) {
      const std::span<const double> slice = row.subspan(first, length);
      cpa.add_trace(static_cast<std::uint8_t>(labels[0]), slice);
      if (index % 2 == 0) {
        tvla.add_fixed(slice);
      } else {
        tvla.add_random(slice);
      }
    });
    const stats::cpa_result expected = cpa.solve(hw_model, 256);
    const stats::cpa_result got = cpa_storage[w].cpa().solve(hw_model, 256);
    ASSERT_EQ(expected.samples, got.samples) << "window " << w;
    for (std::size_t g = 0; g < 256; ++g) {
      for (std::size_t s = 0; s < length; ++s) {
        ASSERT_EQ(expected.corr[g][s], got.corr[g][s])
            << "window " << w << " guess " << g << " sample " << s;
      }
    }
    for (std::size_t s = 0; s < length; ++s) {
      ASSERT_EQ(tvla.at(s).t, tvla_storage[w].tvla().at(s).t)
          << "window " << w << " sample " << s;
    }
  }
  std::remove(path.c_str());
}

TEST(WindowedPasses, EmptyArchiveStillBeginsShapeAwarePasses) {
  // A header-only store (known shape, zero records) is a valid archive;
  // replaying it must yield sized, zero-trace analyses — not a throw.
  const std::string path = tests::scratch_path("window_empty.trc");
  std::remove(path.c_str());
  power::trace_store_descriptor desc;
  desc.samples = 40;
  desc.labels = 3;
  {
    auto writer = power::trace_store_writer::create(path, desc);
    writer.close();
  }
  const power::trace_store_reader reader(path);
  ASSERT_EQ(reader.traces(), 0u);

  archive_source source(reader);
  const std::optional<stream_shape> shape = source.shape();
  ASSERT_TRUE(shape.has_value());
  EXPECT_EQ(shape->samples, 40u);
  EXPECT_EQ(shape->labels, 3u);

  cpa_sink cpa(1);
  tvla_sink tvla;
  analysis_pass* passes[] = {&cpa, &tvla};
  pump(source, passes);
  EXPECT_EQ(cpa.cpa().traces(), 0u);
  EXPECT_EQ(cpa.cpa().samples(), 40u);
  EXPECT_EQ(tvla.tvla().max_abs_t(), 0.0);
  std::remove(path.c_str());
}

TEST(WindowedPasses, InvalidWindowsAreRejectedAtBegin) {
  const campaign_config config = small_config(4);
  const std::string path = archive_small_campaign(config, "invalid");
  const power::trace_store_reader reader(path);
  const std::size_t samples = reader.samples();

  {
    archive_source source(reader);
    cpa_sink beyond(0, window_spec::range(0, samples + 1));
    EXPECT_ANY_THROW(pump(source, beyond));
  }
  {
    archive_source source(reader);
    cpa_sink empty(0, window_spec::range(7, 7));
    EXPECT_ANY_THROW(pump(source, empty));
  }
  std::remove(path.c_str());
}

TEST(WindowedPasses, RepumpingAccumulatesAcrossArchiveShards) {
  // Disjoint [first_index, first_index+n) shards of one logical campaign
  // (the distributed-archiving primitive) must analyse as ONE population:
  // pumping the same sink over shard after shard accumulates; it never
  // silently resets.
  campaign_config config = small_config(40);
  const std::string shard_a = archive_small_campaign(config, "shard_a");
  config.first_index = 40;
  const std::string shard_b = tests::scratch_path("window_shard_b.trc");
  std::remove(shard_b.c_str());
  archive_options store;
  store.chunk_traces = 64;
  archive_aes_campaign(config, kKey, shard_b, store);

  // Reference: the whole campaign in one archive.
  campaign_config whole_config = small_config(80);
  const std::string whole = archive_small_campaign(whole_config, "whole");

  const power::trace_store_reader reader_a(shard_a);
  const power::trace_store_reader reader_b(shard_b);
  const power::trace_store_reader reader_whole(whole);
  cpa_sink sharded(0);
  {
    archive_source source(reader_a);
    pump(source, sharded);
  }
  {
    archive_source source(reader_b);
    pump(source, sharded);
  }
  cpa_sink reference(0);
  {
    archive_source source(reader_whole);
    pump(source, reference);
  }
  ASSERT_EQ(sharded.cpa().traces(), 80u);
  const stats::cpa_result expected = reference.cpa().solve(hw_model, 256);
  const stats::cpa_result got = sharded.cpa().solve(hw_model, 256);
  for (std::size_t g = 0; g < 256; ++g) {
    for (std::size_t s = 0; s < expected.samples; ++s) {
      ASSERT_EQ(expected.corr[g][s], got.corr[g][s])
          << "guess " << g << " sample " << s;
    }
  }

  // A shape mismatch between pumps throws instead of mixing windows.
  cpa_sink again(0);
  again.begin(stream_shape{0, 20, 16, 0});
  EXPECT_NO_THROW(again.begin(stream_shape{0, 20, 16, 0}));
  EXPECT_ANY_THROW(again.begin(stream_shape{0, 30, 16, 0}));
  tvla_sink tvla_again;
  tvla_again.begin(stream_shape{0, 20, 16, 0});
  EXPECT_ANY_THROW(tvla_again.begin(stream_shape{0, 30, 16, 0}));

  std::remove(shard_a.c_str());
  std::remove(shard_b.c_str());
  std::remove(whole.c_str());
}

TEST(WindowedPasses, StoreSinkRefusesSecondPump) {
  const campaign_config config = small_config(10);
  const std::string src_path = archive_small_campaign(config, "resink_src");
  const power::trace_store_reader reader(src_path);
  const std::string out_path = tests::scratch_path("window_resink_out.trc");
  std::remove(out_path.c_str());
  store_sink sink(out_path, power::trace_store_descriptor{});
  {
    archive_source source(reader);
    pump(source, sink);
  }
  {
    archive_source source(reader);
    EXPECT_ANY_THROW(pump(source, sink));
  }
  std::remove(src_path.c_str());
  std::remove(out_path.c_str());
}

TEST(WindowedPasses, LiveCampaignSupportsWindowedPasses) {
  // Windows work on live (shape-discovered) sources too: first/last
  // halves plus full window in one acquisition run.
  campaign_config config = small_config(60);
  trace_campaign campaign(config, kKey);
  cpa_sink full(0);
  trace_campaign probe(config, kKey);
  const std::size_t samples = probe.produce(0).samples.size();
  cpa_sink head(0, window_spec::range(0, samples / 2));
  cpa_sink tail(0, window_spec::range(samples / 2, samples));
  analysis_pass* passes[] = {&full, &head, &tail};
  aes_campaign_source source(campaign);
  pump(source, passes);
  EXPECT_EQ(full.cpa().traces(), 60u);
  EXPECT_EQ(head.cpa().samples(), samples / 2);
  EXPECT_EQ(tail.cpa().samples(), samples - samples / 2);
}

} // namespace
} // namespace usca::core
