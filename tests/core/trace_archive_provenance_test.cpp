// Tests for what guards and repairs an archive: the config hashes that
// bind it to its producing configuration (pinned, so no non-speculating
// archive's hash can move unnoticed, and covering the speculation block
// of a speculating core), and the quarantine of a torn tail on resume.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "core/trace_archive.h"
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

core::acquisition_config small_config() {
  core::acquisition_config config;
  config.traces = 37;
  config.threads = 1;
  config.seed = 0xa5c1;
  config.averaging = 2;
  config.window = core::campaign_window{1, 2};
  return config;
}

core::archive_options small_chunks() {
  core::archive_options options;
  options.chunk_traces = 8;
  return options;
}

std::string temp_path(const char* name) {
  return tests::scratch_path(std::string("trace_archive_provenance_test_") +
                             name + ".trc");
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

sim::micro_arch_config gshare_core() {
  return sim::cortex_a7_ooo_spec(
      {.predictor = sim::predictor_kind::gshare});
}

TEST(ArchiveProvenance, DefaultConfigHashesArePinned) {
  EXPECT_EQ(core::acquisition_config_hash(core::acquisition_config{}),
            0x2fe8fbc821ce0042ULL);
  EXPECT_EQ(core::aes_campaign_config_hash(core::campaign_config{},
                                           crypto::aes_key{}),
            0x403b777da2ae7835ULL);
}

TEST(ArchiveProvenance, NonSpeculatingOooHashesArePinned) {
  core::acquisition_config acquisition;
  acquisition.backend = sim::backend_kind::ooo;
  acquisition.uarch = sim::cortex_a7_ooo();
  EXPECT_EQ(core::acquisition_config_hash(acquisition),
            0x494982b343b48363ULL);
  core::campaign_config campaign;
  campaign.backend = sim::backend_kind::ooo;
  campaign.uarch = sim::cortex_a7_ooo();
  EXPECT_EQ(core::aes_campaign_config_hash(campaign, crypto::aes_key{}),
            0xe2af84c5e1d8de3cULL);
}

TEST(ArchiveProvenance, SpeculatingCoreHashesDifferently) {
  core::acquisition_config perfect;
  perfect.uarch = sim::cortex_a7_ooo();
  core::acquisition_config gshare = perfect;
  gshare.uarch = gshare_core();
  EXPECT_NE(core::acquisition_config_hash(gshare),
            core::acquisition_config_hash(perfect));

  core::campaign_config aes_perfect;
  aes_perfect.uarch = sim::cortex_a7_ooo();
  core::campaign_config aes_gshare = aes_perfect;
  aes_gshare.uarch = gshare_core();
  EXPECT_NE(core::aes_campaign_config_hash(aes_gshare, crypto::aes_key{}),
            core::aes_campaign_config_hash(aes_perfect, crypto::aes_key{}));

  // Each predictor design point is its own population.
  core::acquisition_config bimodal = perfect;
  bimodal.uarch =
      sim::cortex_a7_ooo_spec({.predictor = sim::predictor_kind::bimodal});
  EXPECT_NE(core::acquisition_config_hash(bimodal),
            core::acquisition_config_hash(gshare));
}

TEST(ArchiveProvenance, GshareArchiveRefusesAPerfectPredictorResume) {
  const sim::program_image image = marked_program();
  const std::string path = temp_path("gshare");
  std::remove(path.c_str());
  core::acquisition_config config = small_config();
  config.traces = 9;
  config.backend = sim::backend_kind::ooo;
  config.uarch = gshare_core();
  core::archive_acquisition(image, config, random_registers(), path,
                            small_chunks());
  const std::string archived = file_bytes(path);

  config.traces = 20;
  config.uarch = sim::cortex_a7_ooo();
  EXPECT_THROW(core::archive_acquisition(image, config, random_registers(),
                                         path, small_chunks()),
               util::analysis_error);
  EXPECT_EQ(file_bytes(path), archived);
  std::remove(path.c_str());
}

TEST(ArchiveProvenance, TornTailIsQuarantinedAndReSimulated) {
  const sim::program_image image = marked_program();
  const core::acquisition_config config = small_config();
  const std::string full_path = temp_path("quarantine_full");
  const std::string torn_path = temp_path("quarantine_torn");
  const std::string quarantine = torn_path + ".quarantine";
  std::remove(full_path.c_str());
  std::remove(torn_path.c_str());
  std::remove(quarantine.c_str());

  const core::archive_result fresh = core::archive_acquisition(
      image, config, random_registers(), full_path, small_chunks());
  EXPECT_EQ(fresh.quarantined_bytes, 0u);
  EXPECT_EQ(fresh.quarantine_path, "");
  const std::string full = file_bytes(full_path);

  // Tear the archive 100 bytes into chunk 2's payload, as a writer killed
  // mid-chunk would leave it.
  std::uint64_t chunk2 = 0;
  {
    const power::trace_store_reader reader(full_path);
    chunk2 = reader.extent(2).offset;
  }
  const std::uint64_t cut = chunk2 + 32 + 100;
  std::ofstream(torn_path, std::ios::binary) << full.substr(0, cut);

  const core::archive_result resumed = core::archive_acquisition(
      image, config, random_registers(), torn_path, small_chunks());
  EXPECT_EQ(resumed.quarantined_bytes, cut - chunk2);
  EXPECT_EQ(resumed.quarantine_path, quarantine);
  EXPECT_EQ(file_bytes(quarantine), full.substr(chunk2, cut - chunk2));
  EXPECT_EQ(resumed.simulated, config.traces - 16);
  EXPECT_EQ(resumed.total, config.traces);
  EXPECT_EQ(file_bytes(torn_path), full);

  // A resume that refuses the store (another campaign's seed) touches
  // neither it nor the quarantine.
  power::trace_store_descriptor foreign =
      power::trace_store_reader::read_header(torn_path);
  foreign.seed ^= 1;
  EXPECT_THROW(power::trace_store_writer::resume(torn_path, foreign),
               util::analysis_error);
  EXPECT_EQ(file_bytes(torn_path), full);
  EXPECT_EQ(file_bytes(quarantine), full.substr(chunk2, cut - chunk2));

  // Re-archiving the repaired store cuts nothing, so the quarantine of
  // the earlier repair goes: the file only ever holds the last resume's
  // cut.
  const core::archive_result clean = core::archive_acquisition(
      image, config, random_registers(), torn_path, small_chunks());
  EXPECT_EQ(clean.quarantined_bytes, 0u);
  EXPECT_EQ(clean.quarantine_path, "");
  EXPECT_EQ(clean.simulated, 0u);
  EXPECT_EQ(file_bytes(torn_path), full);
  EXPECT_FALSE(std::filesystem::exists(quarantine));

  std::remove(full_path.c_str());
  std::remove(torn_path.c_str());
  std::remove(quarantine.c_str());
}

} // namespace
} // namespace usca
