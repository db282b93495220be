// Experiment A2 — TVLA (fixed-vs-random Welch t-test) leakage assessment
// of the generated AES on the simulated core, bare metal vs loaded Linux.
//
// The paper detects leakage with model correlations; TVLA is the standard
// model-free complement: two trace populations (a fixed plaintext vs
// random plaintexts) are compared sample-wise, |t| > 4.5 flags leakage.
// The assessment covers the full first round.
//
// Acquisition runs through core::trace_campaign with a fixed-vs-random
// plaintext policy keyed on the trace index parity, into a core::tvla_sink
// that splits the populations the same way; the per-index seeding keeps
// both populations bit-reproducible at any thread count.
//
// Defaults: traces=2000 (1000 fixed + 1000 random), averaging=4,
// threads=hardware.
#include <cstdio>

#include "bench_util.h"
#include "core/analysis_sinks.h"
#include "core/campaign.h"
#include "crypto/aes_codegen.h"
#include "stats/ttest.h"

using namespace usca;

namespace {

struct tvla_outcome {
  double max_t = 0.0;
  std::size_t leaking = 0;
  std::size_t samples = 0;
  double elapsed = 0.0;
};

tvla_outcome run_tvla(bool os_noise, std::size_t traces, int averaging,
                      std::uint64_t seed, unsigned threads) {
  const crypto::aes_key key = {0x0f, 0x15, 0x71, 0xc9, 0x47, 0xd9,
                               0xe8, 0x59, 0x0c, 0xb7, 0xad, 0xd6,
                               0xaf, 0x7f, 0x67, 0x98};
  const crypto::aes_block fixed_pt = {0xda, 0x39, 0xa3, 0xee, 0x5e, 0x6b,
                                      0x4b, 0x0d, 0x32, 0x55, 0xbf, 0xef,
                                      0x95, 0x60, 0x18, 0x90};

  core::campaign_config config;
  config.traces = traces;
  config.threads = threads;
  config.seed = seed;
  config.averaging = averaging;
  config.window = {crypto::mark_encrypt_begin, crypto::mark_round1_end};
  config.power.os_noise.enabled = os_noise;
  core::trace_campaign campaign(config, key);
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

  core::tvla_sink tvla; // even indices are the fixed class
  const bench::stopwatch watch;
  campaign.run(tvla);
  const stats::tvla_accumulator& acc = tvla.tvla();

  tvla_outcome out;
  out.elapsed = watch.seconds();
  out.max_t = acc.max_abs_t();
  out.leaking = acc.leaking_samples(4.5);
  out.samples = acc.samples();
  return out;
}

} // namespace

int main(int argc, char** argv) {
  const bench::arg_map args(
      argc, argv, {"traces", "averaging", "seed", "threads"});
  const std::size_t traces = args.get_size("traces", 2'000);
  const int averaging = static_cast<int>(args.get_size("averaging", 4));
  const std::uint64_t seed = args.get_size("seed", 0x7e57);
  const unsigned threads =
      static_cast<unsigned>(args.get_size("threads", 0));

  std::printf("== A2: TVLA fixed-vs-random t-test on AES round 1 ==\n");
  std::printf("   traces=%zu (half fixed, half random), threshold |t| > "
              "4.5\n\n",
              traces);

  const tvla_outcome bare = run_tvla(false, traces, averaging, seed, threads);
  std::printf("bare metal : max |t| = %7.2f, leaking samples %zu/%zu "
              "(%.2f s)\n",
              bare.max_t, bare.leaking, bare.samples, bare.elapsed);

  const tvla_outcome linux_env =
      run_tvla(true, traces, averaging, seed, threads);
  std::printf("Linux load : max |t| = %7.2f, leaking samples %zu/%zu "
              "(%.2f s)\n",
              linux_env.max_t, linux_env.leaking, linux_env.samples,
              linux_env.elapsed);

  std::printf("\nexpected shape: both environments fail TVLA decisively "
              "(unprotected AES); the loaded environment attenuates but "
              "does not remove the leakage.\n");
  const bool ok = bare.leaking > 0 && linux_env.leaking > 0 &&
                  bare.max_t >= linux_env.max_t;
  std::printf("%s\n", ok ? "OK" : "UNEXPECTED");
  return ok ? 0 : 1;
}
