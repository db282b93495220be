// Experiment P2 — simulate-once/analyse-many: live vs replayed CPA.
//
//   ./build/bench_trace_replay [traces=N] [averaging=M] [threads=T]
//                              [seed=S] [f32=0|1] [keep=0|1] [reps=R]
//
// Measures the phases of the archived workflow on the same AES campaign:
// (1) the live path — acquisition straight into the CPA accumulator;
// (2) archiving — the identical campaign streamed into the chunked trace
// store; (3) per-trace replay — the mmap reader feeding add_trace one
// record at a time (the pre-batch architecture); (4) batched replay —
// whole zero-copy chunks pumped through the batched analysis pass and
// the register-blocked accumulate kernels.  Verifies that BOTH replay
// paths produce correlation ranks bit-identical to the live ones, and
// reports archive size per 10k traces plus pure store read/write
// throughput measured without any simulation in the loop.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "bench_util.h"
#include "core/analysis_sinks.h"
#include "core/trace_archive.h"
#include "crypto/aes128.h"
#include "power/trace_store_reader.h"
#include "util/bitops.h"

using namespace usca;

namespace {

const crypto::aes_key bench_key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                                   0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                                   0x09, 0xcf, 0x4f, 0x3c};

double subbytes_hw_model(std::size_t guess, std::size_t pt_byte) {
  return static_cast<double>(util::hamming_weight(
      crypto::subbytes_hypothesis(static_cast<std::uint8_t>(pt_byte),
                                  static_cast<std::uint8_t>(guess))));
}

double mib(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

} // namespace

int main(int argc, char** argv) {
  const bench::arg_map args(
      argc, argv,
      {"traces", "f32", "keep", "threads", "seed", "averaging", "reps"});
  const std::size_t traces = args.get_size("traces", 5'000);
  const bool f32 = args.get_size("f32", 0) != 0;
  const bool keep = args.get_size("keep", 0) != 0;

  core::campaign_config config;
  config.traces = traces;
  config.threads = static_cast<unsigned>(args.get_size("threads", 1));
  config.seed = args.get_size("seed", 0x9e9);
  config.averaging = static_cast<int>(args.get_size("averaging", 8));
  config.window = {crypto::mark_encrypt_begin, crypto::mark_round1_end};

  core::archive_options store;
  store.scalar = f32 ? power::trace_scalar::f32 : power::trace_scalar::f64;
  const std::string path = "/tmp/usca_bench_replay.trc";
  const std::string copy_path = "/tmp/usca_bench_replay_copy.trc";
  std::remove(path.c_str());

  std::printf("== live vs replayed CPA, %zu traces (averaging %d, "
              "threads %u, %s samples) ==\n\n",
              traces, config.averaging, config.threads,
              f32 ? "f32" : "f64");

  // ---- (1) live: simulate straight into the CPA accumulator ----------
  core::trace_campaign campaign(config, bench_key);
  (void)campaign.produce(0); // warm-up outside the timed region
  core::cpa_sink live(0);
  const bench::stopwatch live_watch;
  campaign.run(live);
  const double live_seconds = live_watch.seconds();
  const stats::cpa_result live_result =
      live.cpa().solve(subbytes_hw_model, 256);

  // ---- (2) archive: the same campaign into the trace store -----------
  const bench::stopwatch archive_watch;
  core::archive_aes_campaign(config, bench_key, path, store);
  const double archive_seconds = archive_watch.seconds();

  // ---- (3) per-trace replay: one add_trace per record (PR4 path) -----
  // The reader is constructed (mmap + full CRC validation) and warmed
  // outside both timed replay regions, so the per-trace vs batched
  // comparison charges each phase only for its own accumulation work;
  // each phase repeats `reps` times (fresh accumulator per repetition)
  // so the sub-10ms analyses time stably.
  const std::size_t reps =
      std::max<std::size_t>(1, args.get_size("reps", 4));
  const power::trace_store_reader reader(path);
  reader.stream([](std::size_t, std::span<const double>,
                   std::span<const double>) {});
  std::optional<stats::partitioned_cpa> per_trace_cpa;
  const bench::stopwatch per_trace_watch;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    per_trace_cpa.emplace(reader.samples());
    reader.stream([&per_trace_cpa](std::size_t,
                                   std::span<const double> labels,
                                   std::span<const double> samples) {
      per_trace_cpa->add_trace(static_cast<std::uint8_t>(labels[0]),
                               samples);
    });
  }
  const double per_trace_seconds =
      per_trace_watch.seconds() / static_cast<double>(reps);
  const stats::cpa_result per_trace_result =
      per_trace_cpa->solve(subbytes_hw_model, 256);

  // ---- (4) batched replay: zero-copy chunks into the batch kernels ---
  std::optional<core::cpa_sink> replayed;
  const bench::stopwatch replay_watch;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    replayed.emplace(0);
    core::archive_source source(reader);
    core::pump(source, *replayed);
  }
  const double replay_seconds =
      replay_watch.seconds() / static_cast<double>(reps);
  const stats::cpa_result replay_result =
      replayed->cpa().solve(subbytes_hw_model, 256);

  // Rank identity check (f64 stores are bit-exact; f32 quantizes).
  bool identical = true;
  for (std::size_t g = 0; g < 256 && identical; ++g) {
    identical = live_result.rank_of(g) == replay_result.rank_of(g) &&
                live_result.rank_of(g) == per_trace_result.rank_of(g);
  }

  // ---- pure store I/O: no simulation in the loop ---------------------
  power::trace_store_descriptor copy_desc = reader.descriptor();
  const bench::stopwatch write_watch;
  {
    auto writer = power::trace_store_writer::create(copy_path, copy_desc);
    reader.stream([&writer](std::size_t, std::span<const double> labels,
                            std::span<const double> samples) {
      writer.append(labels, samples);
    });
    writer.close();
  }
  const double write_seconds = write_watch.seconds();
  std::remove(copy_path.c_str());

  const double payload_mib = mib(reader.payload_bytes());
  const double per_trace = static_cast<double>(reader.payload_bytes()) /
                           static_cast<double>(traces);

  std::printf("  phase              seconds   traces/s\n");
  bench::print_rule(52);
  std::printf("  live CPA           %7.2f   %8.0f\n", live_seconds,
              static_cast<double>(traces) / live_seconds);
  std::printf("  archive            %7.2f   %8.0f   (simulate + write)\n",
              archive_seconds,
              static_cast<double>(traces) / archive_seconds);
  std::printf("  replay per-trace   %7.2f   %8.0f   (%.0fx live)\n",
              per_trace_seconds,
              static_cast<double>(traces) / per_trace_seconds,
              live_seconds / per_trace_seconds);
  std::printf("  replay batched     %7.2f   %8.0f   (%.0fx live, "
              "%.2fx per-trace)\n",
              replay_seconds,
              static_cast<double>(traces) / replay_seconds,
              live_seconds / replay_seconds,
              per_trace_seconds / replay_seconds);
  std::printf("\n  archive: %zu traces x %zu samples = %.1f MiB "
              "(%.1f MiB per 10k traces)\n",
              reader.traces(), reader.samples(), payload_mib,
              per_trace * 10'000.0 / (1024.0 * 1024.0));
  std::printf("  store write %.0f MiB/s, store read (mmap replay) "
              "%.0f MiB/s\n",
              payload_mib / write_seconds, payload_mib / replay_seconds);
  std::printf("\n  replayed CPA ranks %s the live ranks%s\n",
              identical ? "are BIT-IDENTICAL to" : "DIFFER from",
              f32 ? " (f32 store: quantized, small differences expected)"
                  : "");
  std::printf("  recovered key byte: live 0x%02zx, replay 0x%02zx "
              "(true 0x%02x)\n",
              live_result.best().guess, replay_result.best().guess,
              bench_key[0]);

  if (keep) {
    std::printf("  archive kept at %s\n", path.c_str());
  } else {
    std::remove(path.c_str());
  }
  return (identical || f32) ? 0 : 1;
}
