// The acceptance pin for the trace source/sink architecture: a CPA key
// recovery over an archived trace store (mmap replay path) produces
// bit-identical correlations — and therefore identical ranks — to the
// live-simulation path, and a killed-and-resumed AES campaign archive is
// byte-identical to an uninterrupted one.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "core/analysis_sinks.h"
#include "core/trace_archive.h"
#include "crypto/aes128.h"
#include "power/trace_store_reader.h"
#include "util/bitops.h"
#include "../scratch_path.h"

namespace usca {
namespace {

const crypto::aes_key test_key = {0xde, 0xad, 0xbe, 0xef, 0x01, 0x23,
                                  0x45, 0x67, 0x89, 0xab, 0xcd, 0xef,
                                  0x10, 0x32, 0x54, 0x76};

core::campaign_config demo_config() {
  core::campaign_config config;
  config.traces = 900;
  config.threads = 2;
  config.seed = 0x5eed;
  config.averaging = 8;
  config.window = {crypto::mark_encrypt_begin, crypto::mark_round1_end};
  return config;
}

double subbytes_hw_model(std::size_t guess, std::size_t pt_byte) {
  return static_cast<double>(util::hamming_weight(
      crypto::subbytes_hypothesis(static_cast<std::uint8_t>(pt_byte),
                                  static_cast<std::uint8_t>(guess))));
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(ReplayEndToEnd, ArchivedCpaIsBitIdenticalToLive) {
  const std::string path = tests::scratch_path("replay_e2e.trc");
  std::remove(path.c_str());
  const core::campaign_config config = demo_config();

  // Live path: campaign -> cpa_sink (the paper's attack on key byte 0).
  core::trace_campaign campaign(config, test_key);
  core::cpa_sink live(0);
  campaign.run(live);

  // Archive once, replay through the mmap reader into the same sink.
  const core::archive_result archived =
      core::archive_aes_campaign(config, test_key, path);
  EXPECT_EQ(archived.total, config.traces);
  power::trace_store_reader reader(path);
  EXPECT_EQ(reader.traces(), config.traces);
  core::archive_source source(reader);
  core::cpa_sink replayed(0);
  core::pump(source, replayed);

  const stats::cpa_result live_result = live.cpa().solve(subbytes_hw_model,
                                                         256);
  const stats::cpa_result replay_result =
      replayed.cpa().solve(subbytes_hw_model, 256);

  // Bit-identical correlation matrices => identical ranks.
  ASSERT_EQ(live_result.samples, replay_result.samples);
  for (std::size_t g = 0; g < 256; ++g) {
    for (std::size_t s = 0; s < live_result.samples; ++s) {
      ASSERT_EQ(live_result.corr[g][s], replay_result.corr[g][s])
          << "guess " << g << " sample " << s;
    }
    EXPECT_EQ(live_result.rank_of(g), replay_result.rank_of(g));
  }

  // And the attack actually works from the archive alone.
  EXPECT_EQ(replay_result.best().guess, std::size_t{test_key[0]});
  std::remove(path.c_str());
}

TEST(ReplayEndToEnd, ResumedAesArchiveIsByteIdentical) {
  const std::string full_path = tests::scratch_path("replay_e2e_full.trc");
  const std::string part_path = tests::scratch_path("replay_e2e_part.trc");
  std::remove(full_path.c_str());
  std::remove(part_path.c_str());

  core::campaign_config config = demo_config();
  config.traces = 700;

  core::archive_aes_campaign(config, test_key, full_path);

  // Interrupted after 300 traces, then restarted with the full target.
  core::campaign_config partial = config;
  partial.traces = 300;
  core::archive_aes_campaign(partial, test_key, part_path);
  const core::archive_result resumed =
      core::archive_aes_campaign(config, test_key, part_path);
  EXPECT_EQ(resumed.total, config.traces);
  EXPECT_LT(resumed.simulated, config.traces); // kept the archived prefix
  EXPECT_EQ(file_bytes(part_path), file_bytes(full_path));

  // Wrong key => different config hash => refuse to resume.
  crypto::aes_key other_key = test_key;
  other_key[0] ^= 0x80;
  EXPECT_THROW(core::archive_aes_campaign(config, other_key, part_path),
               util::analysis_error);

  std::remove(full_path.c_str());
  std::remove(part_path.c_str());
}

} // namespace
} // namespace usca
