// Tests for resumable campaign archiving and source/sink replay: a
// killed-and-resumed campaign produces a byte-identical archive to an
// uninterrupted one (both core models), archive bytes are invariant to
// the worker thread count, and analyses replayed from the archive match
// the live campaign bit for bit.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/analysis_sinks.h"
#include "core/trace_archive.h"
#include "core/trace_stream.h"
#include "power/trace_store_reader.h"
#include "util/error.h"
#include "../scratch_path.h"

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

core::acquisition_config small_config(sim::backend_kind backend) {
  core::acquisition_config config;
  config.traces = 37;
  config.threads = 1;
  config.seed = 0xa5c1;
  config.averaging = 2;
  config.window = core::campaign_window{1, 2};
  config.backend = backend;
  config.uarch = backend == sim::backend_kind::ooo ? sim::cortex_a7_ooo()
                                                   : sim::cortex_a7();
  return config;
}

core::archive_options small_chunks() {
  core::archive_options options;
  options.chunk_traces = 8;
  return options;
}

std::string temp_path(const char* name) {
  return tests::scratch_path(std::string("trace_archive_test_") + name +
                             ".trc");
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

class ArchiveBothBackends
    : public ::testing::TestWithParam<sim::backend_kind> {};

INSTANTIATE_TEST_SUITE_P(Backends, ArchiveBothBackends,
                         ::testing::Values(sim::backend_kind::inorder,
                                           sim::backend_kind::ooo),
                         [](const auto& info) {
                           return info.param == sim::backend_kind::ooo
                                      ? "ooo"
                                      : "inorder";
                         });

TEST_P(ArchiveBothBackends, ResumedArchiveIsByteIdentical) {
  const sim::program_image image = marked_program();
  const core::acquisition_config config = small_config(GetParam());
  const std::string full_path = temp_path("full");
  const std::string part_path = temp_path("part");
  std::remove(full_path.c_str());
  std::remove(part_path.c_str());

  // Uninterrupted run.
  const core::archive_result full = core::archive_acquisition(
      image, config, random_registers(), full_path, small_chunks());
  EXPECT_EQ(full.simulated, config.traces);
  EXPECT_EQ(full.total, config.traces);

  // "Killed" run: only the first 19 of 37 traces made it to disk.
  core::acquisition_config partial = config;
  partial.traces = 19;
  core::archive_acquisition(image, partial, random_registers(), part_path,
                            small_chunks());

  // Restart with the full target: the driver re-simulates only the
  // missing suffix (the interrupted run's short tail chunk is kept).
  const core::archive_result resumed = core::archive_acquisition(
      image, config, random_registers(), part_path, small_chunks());
  EXPECT_EQ(resumed.total, config.traces);
  EXPECT_EQ(resumed.simulated, config.traces - 19);
  EXPECT_EQ(file_bytes(part_path), file_bytes(full_path));

  // Archiving an already-complete range simulates nothing.
  const core::archive_result noop = core::archive_acquisition(
      image, config, random_registers(), full_path, small_chunks());
  EXPECT_EQ(noop.simulated, 0u);
  EXPECT_EQ(noop.total, config.traces);
  EXPECT_EQ(file_bytes(part_path), file_bytes(full_path));

  std::remove(full_path.c_str());
  std::remove(part_path.c_str());
}

TEST(TraceArchive, ArchiveBytesAreThreadCountInvariant) {
  const sim::program_image image = marked_program();
  const std::string serial_path = temp_path("serial");
  const std::string parallel_path = temp_path("parallel");
  std::remove(serial_path.c_str());
  std::remove(parallel_path.c_str());

  core::acquisition_config config = small_config(sim::backend_kind::inorder);
  config.threads = 1;
  core::archive_acquisition(image, config, random_registers(), serial_path,
                            small_chunks());
  config.threads = 4;
  core::archive_acquisition(image, config, random_registers(),
                            parallel_path, small_chunks());
  EXPECT_EQ(file_bytes(serial_path), file_bytes(parallel_path));
  std::remove(serial_path.c_str());
  std::remove(parallel_path.c_str());
}

TEST(TraceArchive, RefusesForeignArchive) {
  const sim::program_image image = marked_program();
  const std::string path = temp_path("foreign");
  std::remove(path.c_str());
  core::acquisition_config config = small_config(sim::backend_kind::inorder);
  core::archive_acquisition(image, config, random_registers(), path,
                            small_chunks());
  // A different averaging changes record content => different hash.
  core::acquisition_config other = config;
  other.averaging = 4;
  EXPECT_THROW(core::archive_acquisition(image, other, random_registers(),
                                         path, small_chunks()),
               util::analysis_error);
  std::remove(path.c_str());
}

TEST(TraceArchive, ReplayedRecordsMatchLiveCampaignExactly) {
  const sim::program_image image = marked_program();
  const std::string path = temp_path("replay");
  std::remove(path.c_str());
  const core::acquisition_config config =
      small_config(sim::backend_kind::inorder);
  core::archive_acquisition(image, config, random_registers(), path,
                            small_chunks());

  // Collect the live records.
  core::acquisition_campaign campaign(image, config);
  campaign.set_setup(random_registers());
  std::vector<core::acquisition_record> live;
  campaign.run([&](core::acquisition_record&& rec) {
    live.push_back(std::move(rec));
  });

  power::trace_store_reader reader(path);
  EXPECT_EQ(reader.descriptor().config_hash,
            core::salted_config_hash(core::acquisition_config_hash(config),
                                     0));
  core::archive_source source(reader);
  std::size_t seen = 0;
  source.for_each_batch(
      core::trace_source::default_batch_traces,
      [&](const core::trace_batch_view& batch) {
        for (std::size_t r = 0; r < batch.count; ++r) {
          ASSERT_LT(batch.index(r), live.size());
          const auto& rec = live[batch.index(r)];
          ASSERT_EQ(batch.labels_row(r).size(), rec.labels.size());
          ASSERT_EQ(batch.samples_row(r).size(), rec.samples.size());
          for (std::size_t l = 0; l < rec.labels.size(); ++l) {
            EXPECT_EQ(batch.labels_row(r)[l], rec.labels[l]);
          }
          for (std::size_t s = 0; s < rec.samples.size(); ++s) {
            EXPECT_EQ(batch.samples_row(r)[s], rec.samples[s]);
          }
          ++seen;
        }
      });
  EXPECT_EQ(seen, live.size());
  std::remove(path.c_str());
}

TEST(TraceArchive, TvlaFromArchiveMatchesLiveAccumulation) {
  const sim::program_image image = marked_program();
  const std::string path = temp_path("tvla");
  std::remove(path.c_str());
  const core::acquisition_config config =
      small_config(sim::backend_kind::inorder);
  core::archive_acquisition(image, config, random_registers(), path,
                            small_chunks());

  // Live TVLA (index parity split) through the sink interface.
  core::acquisition_campaign campaign(image, config);
  campaign.set_setup(random_registers());
  core::tvla_sink live;
  campaign.run(live);

  // Replayed TVLA from the archive.
  power::trace_store_reader reader(path);
  core::archive_source source(reader);
  core::tvla_sink replayed;
  core::pump(source, replayed);

  ASSERT_EQ(live.tvla().samples(), replayed.tvla().samples());
  for (std::size_t s = 0; s < live.tvla().samples(); ++s) {
    EXPECT_EQ(live.tvla().at(s).t, replayed.tvla().at(s).t);
  }
  std::remove(path.c_str());
}

} // namespace
} // namespace usca
