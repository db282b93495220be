// End-to-end integration on the out-of-order backend: the full attack
// chain of the paper's Section 5 re-run on a different design point —
// generated AES executes on the OoO core through core::trace_campaign,
// the synthesizer renders traces from the OoO activity stream (rename,
// PRF, CDB, retirement-port leakage included), and CPA recovers the
// complete 16-byte key.  This is the acceptance experiment for the
// "leakage is micro-architectural, not architectural" claim: the same
// program with the same semantics leaks enough on a machine with a
// completely different issue engine.
#include <gtest/gtest.h>

#include "core/campaign.h"
#include "crypto/aes_codegen.h"
#include "stats/cpa.h"
#include "util/bitops.h"

namespace usca {
namespace {

TEST(OooEndToEnd, CpaRecoversTheFullAesKey) {
  const crypto::aes_key key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                               0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                               0x09, 0xcf, 0x4f, 0x3c};
  core::campaign_config config;
  // The empirical full-key rank-0 point is ~150 traces (see
  // EXPERIMENTS.md); 600 leaves margin without slowing the suite.
  config.traces = 600;
  config.threads = 2;
  config.seed = 0x00051de;
  config.averaging = 4;
  config.backend = sim::backend_kind::ooo;
  config.uarch = sim::cortex_a7_ooo();
  core::trace_campaign campaign(config, key);

  std::vector<stats::partitioned_cpa> cpa;
  campaign.engine().run([&](core::acquisition_record&& rec) {
    if (cpa.empty()) {
      cpa.assign(16, stats::partitioned_cpa(rec.samples.size()));
    }
    for (std::size_t b = 0; b < 16; ++b) {
      cpa[b].add_trace(static_cast<std::uint8_t>(rec.labels[b]),
                       rec.samples);
    }
  });
  ASSERT_EQ(cpa.size(), 16u);

  const auto model = [](std::size_t guess, std::size_t pt_byte) {
    return static_cast<double>(util::hamming_weight(
        crypto::subbytes_hypothesis(static_cast<std::uint8_t>(pt_byte),
                                    static_cast<std::uint8_t>(guess))));
  };
  for (std::size_t b = 0; b < 16; ++b) {
    const stats::cpa_result result = cpa[b].solve(model, 256);
    EXPECT_EQ(result.best().guess, static_cast<std::size_t>(key[b]))
        << "key byte " << b;
    EXPECT_EQ(result.rank_of(key[b]), 0u) << "key byte " << b;
  }
}

} // namespace
} // namespace usca
