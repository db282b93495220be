// Batch-size invariance of the streaming analysis layer: pumping one AES
// campaign — live or replayed from its archive — through the CPA and
// TVLA passes must produce BIT-identical results at every batch size
// ({1, 7, 256, whole-chunk}) and bit-identical to the hand-rolled
// per-trace accumulation, on both core models.  This is the contract
// that makes the batched API a pure performance layer: tiles never
// change any number.
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
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

campaign_config small_config(sim::backend_kind backend, std::size_t traces) {
  campaign_config config;
  config.traces = traces;
  config.threads = 1;
  config.seed = 0xba7c;
  config.averaging = 2;
  config.window = {crypto::mark_encrypt_begin, crypto::mark_round1_end};
  config.backend = backend;
  if (backend == sim::backend_kind::ooo) {
    config.uarch = sim::cortex_a7_ooo();
  }
  return config;
}

struct reference_analyses {
  std::optional<stats::partitioned_cpa> cpa;
  std::optional<stats::tvla_accumulator> tvla;
};

/// The per-trace ground truth: add_trace / add_fixed / add_random, one
/// record at a time, straight from the campaign's record stream.
reference_analyses per_trace_reference(trace_campaign& campaign) {
  reference_analyses ref;
  campaign.engine().run([&ref](acquisition_record&& rec) {
    if (!ref.cpa) {
      ref.cpa.emplace(rec.samples.size());
      ref.tvla.emplace(rec.samples.size());
    }
    ref.cpa->add_trace(static_cast<std::uint8_t>(rec.labels[0]),
                       rec.samples);
    if (rec.index % 2 == 0) {
      ref.tvla->add_fixed(rec.samples);
    } else {
      ref.tvla->add_random(rec.samples);
    }
  });
  return ref;
}

void expect_identical(const reference_analyses& ref, const cpa_sink& cpa,
                      const tvla_sink& tvla, const std::string& what) {
  ASSERT_EQ(ref.cpa->traces(), cpa.cpa().traces()) << what;
  const stats::cpa_result expected = ref.cpa->solve(hw_model, 256);
  const stats::cpa_result got = cpa.cpa().solve(hw_model, 256);
  for (std::size_t g = 0; g < 256; ++g) {
    for (std::size_t s = 0; s < expected.samples; ++s) {
      ASSERT_EQ(expected.corr[g][s], got.corr[g][s])
          << what << ": guess " << g << " sample " << s;
    }
  }
  for (std::size_t s = 0; s < ref.tvla->samples(); ++s) {
    ASSERT_EQ(ref.tvla->at(s).t, tvla.tvla().at(s).t)
        << what << ": sample " << s;
  }
}

class BatchIdentity
    : public ::testing::TestWithParam<sim::backend_kind> {};

TEST_P(BatchIdentity, LiveAndReplayMatchPerTraceAtEveryBatchSize) {
  const sim::backend_kind backend = GetParam();
  const std::size_t traces =
      backend == sim::backend_kind::ooo ? 60 : 150;
  campaign_config config = small_config(backend, traces);

  trace_campaign reference_campaign(config, kKey);
  const reference_analyses ref = per_trace_reference(reference_campaign);

  // Archive once; chunk size 32 so multi-chunk geometry is exercised.
  const std::string path = tests::scratch_path(
      "batch_identity_" + std::to_string(static_cast<int>(backend)) + ".trc");
  std::remove(path.c_str());
  archive_options store;
  store.chunk_traces = 32;
  archive_aes_campaign(config, kKey, path, store);
  const power::trace_store_reader reader(path);
  ASSERT_EQ(reader.traces(), traces);

  const std::size_t batch_sizes[] = {1, 7, 256,
                                     reader.descriptor().chunk_traces};
  for (const std::size_t batch : batch_sizes) {
    pump_options options;
    options.batch_traces = batch;
    {
      trace_campaign campaign(config, kKey);
      aes_campaign_source source(campaign);
      cpa_sink cpa(0);
      tvla_sink tvla;
      analysis_pass* passes[] = {&cpa, &tvla};
      pump(source, passes, options);
      expect_identical(ref, cpa, tvla,
                       "live batch=" + std::to_string(batch));
    }
    {
      archive_source source(reader);
      cpa_sink cpa(0);
      tvla_sink tvla;
      analysis_pass* passes[] = {&cpa, &tvla};
      pump(source, passes, options);
      expect_identical(ref, cpa, tvla,
                       "replay batch=" + std::to_string(batch));
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(BothBackends, BatchIdentity,
                         ::testing::Values(sim::backend_kind::inorder,
                                           sim::backend_kind::ooo),
                         [](const auto& info) {
                           return info.param == sim::backend_kind::ooo
                                      ? "ooo"
                                      : "inorder";
                         });

TEST(BatchSources, BatchBuilderRejectsGapsAtTileBoundariesToo) {
  batch_builder builder(2);
  const double label = 1.0;
  const double sample = 2.0;
  const auto deliver = [](const trace_batch_view&) {};
  builder.push(0, {&label, 1}, {&sample, 1}, deliver);
  builder.push(1, {&label, 1}, {&sample, 1}, deliver); // tile flushed
  // Index 3 skips 2 exactly at the tile boundary — must still throw.
  EXPECT_ANY_THROW(builder.push(3, {&label, 1}, {&sample, 1}, deliver));
  builder.push(2, {&label, 1}, {&sample, 1}, deliver);
  EXPECT_ANY_THROW(builder.append(4, {&label, 1}, {&sample, 1}));
}

TEST(BatchSources, ArchiveSourceServesWholeChunksZeroCopy) {
  campaign_config config = small_config(sim::backend_kind::inorder, 70);
  const std::string path = tests::scratch_path("batch_chunks.trc");
  std::remove(path.c_str());
  archive_options store;
  store.chunk_traces = 32;
  archive_aes_campaign(config, kKey, path, store);
  const power::trace_store_reader reader(path);

  archive_source source(reader);
  std::vector<std::size_t> batch_counts;
  source.for_each_batch(1'000'000, [&](const trace_batch_view& batch) {
    // f64 store: the tile must alias the mapping (no copies) — row 0 of
    // the batch is exactly the reader's zero-copy chunk view.
    EXPECT_EQ(batch.samples_row(0).data(),
              reader.chunk_rows(batch_counts.size()).samples);
    batch_counts.push_back(batch.count);
  });
  ASSERT_EQ(batch_counts.size(), reader.chunk_count());
  EXPECT_EQ(batch_counts[0], 32u);
  EXPECT_EQ(batch_counts.back(), 70u % 32u);
  std::remove(path.c_str());
}

} // namespace
} // namespace usca::core
