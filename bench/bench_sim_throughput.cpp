// Experiment P1 — engineering throughput of the simulation stack.
//
// Two modes:
//
//  * default: google-benchmark micro-benchmarks of the individual layers
//    (functional executor, pipeline with/without activity, AES run, trace
//    synthesis, CPA accumulation/solve);
//  * --json[=FILE] [traces=N averaging=M threads=T seed=S]: the campaign
//    hot path measured end to end — the acquisition loop every 100k-trace
//    experiment of the paper runs on — reported as machine-readable JSON
//    (traces/sec and simulated cycles/sec for BOTH backends — in-order and
//    OoO, including the speculating OoO front end — the batched in-order
//    campaign pumped through its window-bounded trace source and the share
//    of its traces synthesized from the fused batch tile, its work per
//    trace (simulated cycles, Gaussian deviates, restored lane memory
//    bytes and cache sets) from the telemetry registry, the kernel sets
//    its accumulation, emission and noise ran, accumulator
//    ns/sample and the batch and CRC kernels picked, trace-store
//    write/replay MB/s, and the fabric merge / salvage scan MB/s of the
//    robustness layer)
//    so speedups can be pinned in-repo (BENCH_hotpath.json) and tracked
//    by CI.  Each field's path is pinned by its campaign's config.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

#include "asmx/program.h"
#include "bench_util.h"
#include "core/analysis_sinks.h"
#include "core/campaign.h"
#include "core/campaign_fabric.h"
#include "stats/batch_kernels.h"
#include "crypto/aes_codegen.h"
#include "power/noise_kernels.h"
#include "power/synthesizer.h"
#include "power/trace_io.h"
#include "power/trace_store_reader.h"
#include "sim/batch_sim.h"
#include "sim/functional_executor.h"
#include "sim/pipeline.h"
#include "stats/cpa.h"
#include "stats/ttest.h"
#include "util/bitops.h"
#include "util/crc32.h"
#include "util/json_writer.h"
#include "util/rng.h"
#include "util/telemetry.h"

using namespace usca;

namespace {

asmx::program make_alu_loop(int instructions) {
  asmx::program_builder b;
  for (int i = 0; i < instructions; ++i) {
    b.emit(isa::ins::add(isa::reg::r1, isa::reg::r2, isa::reg::r3));
    b.emit(isa::ins::eor(isa::reg::r4, isa::reg::r5, isa::reg::r6));
  }
  return b.build();
}

void BM_FunctionalExecutorMips(benchmark::State& state) {
  const asmx::program prog = make_alu_loop(2'000);
  for (auto _ : state) {
    sim::functional_executor exec(prog);
    exec.run();
    benchmark::DoNotOptimize(exec.state().regs[1]);
  }
  state.SetItemsProcessed(state.iterations() * 4'001);
}
BENCHMARK(BM_FunctionalExecutorMips);

void BM_PipelineCyclesPerSecond(benchmark::State& state) {
  const sim::program_image image(make_alu_loop(2'000));
  const bool record = state.range(0) != 0;
  sim::pipeline pipe(image, sim::cortex_a7());
  pipe.set_record_activity(record);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    pipe.reset();
    pipe.warm_caches();
    pipe.run();
    cycles += pipe.cycles();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
  state.SetLabel(record ? "activity recorded" : "timing only");
}
BENCHMARK(BM_PipelineCyclesPerSecond)->Arg(0)->Arg(1);

void BM_AesEncryptionOnPipeline(benchmark::State& state) {
  const crypto::aes_program_layout layout = crypto::generate_aes128_program();
  const crypto::aes_round_keys rk = crypto::expand_key(crypto::aes_key{});
  const sim::program_image image(layout.prog);
  const bool reuse = state.range(0) != 0;
  util::xoshiro256 rng(1);
  sim::pipeline reused(image, sim::cortex_a7());
  for (auto _ : state) {
    crypto::aes_block pt;
    for (auto& b : pt) {
      b = rng.next_u8();
    }
    if (reuse) {
      reused.reset();
      crypto::install_aes_inputs(reused.memory(), layout, rk, pt);
      reused.warm_caches();
      reused.run();
      benchmark::DoNotOptimize(reused.cycles());
    } else {
      sim::pipeline pipe(image, sim::cortex_a7());
      crypto::install_aes_inputs(pipe.memory(), layout, rk, pt);
      pipe.warm_caches();
      pipe.run();
      benchmark::DoNotOptimize(pipe.cycles());
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(reuse ? "reset + reuse" : "fresh pipeline per block");
}
BENCHMARK(BM_AesEncryptionOnPipeline)->Arg(0)->Arg(1);

void BM_TraceSynthesis(benchmark::State& state) {
  const crypto::aes_program_layout layout = crypto::generate_aes128_program();
  const crypto::aes_round_keys rk = crypto::expand_key(crypto::aes_key{});
  sim::pipeline pipe(layout.prog, sim::cortex_a7());
  crypto::install_aes_inputs(pipe.memory(), layout, rk, crypto::aes_block{});
  pipe.warm_caches();
  pipe.run();
  power::trace_synthesizer synth(power::synthesis_config{}, 3);
  const auto end = static_cast<std::uint32_t>(pipe.cycles());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        synth.synthesize_averaged(pipe.activity(), 0, end, 16));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSynthesis);

void BM_CpaSolvePartitioned(benchmark::State& state) {
  const std::size_t samples = 300;
  stats::partitioned_cpa cpa(samples);
  util::xoshiro256 rng(4);
  std::vector<double> trace(samples);
  for (int t = 0; t < 2'000; ++t) {
    for (auto& v : trace) {
      v = rng.next_gaussian();
    }
    cpa.add_trace(rng.next_u8(), trace);
  }
  const auto model = [](std::size_t g, std::size_t p) {
    return static_cast<double>(
        util::hamming_weight(static_cast<std::uint32_t>(g ^ p)));
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(cpa.solve(model, 256));
  }
  state.SetLabel("2000 traces x 300 samples x 256 guesses");
}
BENCHMARK(BM_CpaSolvePartitioned);

void BM_CpaAddTraceNaive(benchmark::State& state) {
  const std::size_t samples = 300;
  stats::cpa_engine cpa(samples, 256);
  util::xoshiro256 rng(5);
  std::vector<double> trace(samples);
  std::vector<double> hypotheses(256);
  for (auto& h : hypotheses) {
    h = rng.next_double();
  }
  for (auto& v : trace) {
    v = rng.next_gaussian();
  }
  for (auto _ : state) {
    cpa.add_trace(trace, hypotheses);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CpaAddTraceNaive);

// ---------------------------------------------------------------------------
// --json mode: the campaign hot path, end to end
// ---------------------------------------------------------------------------

struct hot_path_report {
  std::size_t traces = 0;
  int averaging = 0;
  unsigned threads = 0;
  std::size_t samples_per_trace = 0;
  double seconds = 0.0;
  double traces_per_sec = 0.0;
  double sim_cycles_per_sec = 0.0;
  // Same campaign batched through the SoA batch backend
  // (sim/batch_sim.h) — the default production path; the per-trace
  // numbers above are its same-run reference denominator.
  std::size_t sim_batch_lanes = 0;
  double sim_batched_seconds = 0.0;
  double sim_batched_traces_per_sec = 0.0;
  // Same batched campaign pumped through its trace source into a CPA
  // pass.  A source reads only labels and samples, so each run ends at
  // the window's end mark; the batched figure above runs every trace to
  // halt, which makes their ratio a same-run measure of the early stop.
  double source_seconds = 0.0;
  double source_traces_per_sec = 0.0;
  // Share of the source campaign's traces whose clean power the batch
  // summed in its fused tile (synth.fused_traces) rather than through the
  // event walk (synth.event_traces); 1.0 unless the live path fell back.
  double fused_trace_share = 0.0;
  // Work per trace of the source campaign, read from the telemetry
  // registry: simulated cycles, Gaussian deviates drawn, and the lane
  // state the cores' resets restored (memory bytes and cache sets).
  double campaign_cycles_per_trace = 0.0;
  double gaussian_deviates_per_trace = 0.0;
  double bytes_restored_per_trace = 0.0;
  double cache_sets_restored_per_trace = 0.0;
  // Same campaign on the out-of-order backend (sim::ooo_core).
  // The three OoO campaigns below are timed over repeated runs (see
  // time_in_rounds): *_reps counts the runs, *_seconds is their mean.
  std::size_t ooo_samples_per_trace = 0;
  std::size_t ooo_reps = 0;
  double ooo_seconds = 0.0;
  double ooo_traces_per_sec = 0.0;
  double ooo_sim_cycles_per_sec = 0.0;
  std::size_t ooo_sim_batched_reps = 0;
  double ooo_sim_batched_seconds = 0.0;
  double ooo_sim_batched_traces_per_sec = 0.0;
  // Same OoO campaign forced onto the reference scan scheduler
  // (sim::ooo_scheduler::reference).  The fast/reference ratio is a
  // machine-independent speedup measurement — both numbers come from the
  // same run on the same hardware — so CI can assert a hard floor on it
  // where an absolute traces/sec threshold would be hostage to runner
  // noise.
  std::size_t ooo_reference_reps = 0;
  double ooo_reference_seconds = 0.0;
  double ooo_reference_traces_per_sec = 0.0;
  // Same OoO campaign with the speculation front end enabled (bimodal
  // predictor + BTB + RSB, sim/ooo/speculation.h).  Speculating configs
  // have no batched counterpart — the campaign transparently falls back
  // to per-trace lanes — so this number prices the whole subsystem:
  // predictor/BTB lookups, checkpointing, and (on victims with
  // conditional branches) wrong-path rename and recovery.  The ratio
  // against ooo_traces_per_sec is same-run, same-hardware.
  double ooo_spec_seconds = 0.0;
  double ooo_spec_traces_per_sec = 0.0;
  double cpa_accumulate_ns_per_sample = 0.0;
  double tvla_accumulate_ns_per_sample = 0.0;
  // Batched accumulator throughput (stats/batch_kernels.h dispatch).
  const char* batch_kernel = "generic";
  // The kernel sets the source campaign ran: accumulation
  // (stats/batch_kernels.h), fused emission (sim::emit_kernels) and
  // batch-wide noise (power/noise_kernels.h; "scalar" as soon as one of
  // the campaign's traces drew its noise on the scalar path).
  const char* accumulate_kernels = "generic";
  const char* emit_kernels = "baseline";
  const char* noise_kernels = "scalar";
  // Store CRC kernel (util/crc32.h dispatch): "clmul" or "portable".
  const char* crc_kernel = "portable";
  double cpa_batch_accumulate_gb_per_sec = 0.0;
  double tvla_batch_accumulate_gb_per_sec = 0.0;
  // Trace-store throughput (pure I/O, no simulation in the loop).
  double store_write_mb_per_sec = 0.0;
  double store_replay_mb_per_sec = 0.0;
  double store_replay_traces_per_sec = 0.0;
  double store_replay_batched_traces_per_sec = 0.0;
  double store_bytes_per_trace = 0.0;
  // Fabric-layer throughput: shard concatenation (validated
  // reader.stream -> writer.append replay-append) and the salvage-mode
  // structural scan a damaged-store open performs.
  double fabric_merge_mb_per_sec = 0.0;
  double salvage_scan_mb_per_sec = 0.0;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Times whole campaign runs in rounds: each round runs every side once,
/// so host drift hits all sides alike, until each side has spent
/// `min_seconds` in total over at least `min_reps` rounds.  Returns each
/// side's run count and mean seconds per run.  Same-run ratios between
/// sides timed once, over regions well under a second, swung between
/// 1.7x and 2.4x on a shared 4-vCPU host; single runs within one round
/// still swing by 2x, so the mean over all rounds is reported.
struct rep_timing {
  std::size_t reps = 0;
  double seconds = 0.0;
};

std::vector<rep_timing> time_in_rounds(
    const std::vector<std::function<void()>>& sides, double min_seconds,
    std::size_t min_reps) {
  std::vector<double> total(sides.size(), 0.0);
  std::size_t rounds = 0;
  while (rounds < min_reps ||
         *std::min_element(total.begin(), total.end()) < min_seconds) {
    for (std::size_t i = 0; i < sides.size(); ++i) {
      const auto start = std::chrono::steady_clock::now();
      sides[i]();
      total[i] += seconds_since(start);
    }
    ++rounds;
  }
  std::vector<rep_timing> timings;
  for (const double t : total) {
    timings.push_back({rounds, t / static_cast<double>(rounds)});
  }
  return timings;
}

/// ns/sample of streaming `reps` synthetic traces into `add`.
template <typename Add>
double accumulate_ns_per_sample(std::size_t samples, std::size_t reps,
                                Add&& add) {
  util::xoshiro256 rng(0x5eed);
  std::vector<double> trace(samples);
  for (auto& v : trace) {
    v = 5.0 + rng.next_gaussian();
  }
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    add(r, trace);
  }
  const double elapsed = seconds_since(start);
  return 1e9 * elapsed / static_cast<double>(samples * reps);
}

hot_path_report measure_hot_path(const bench::arg_map& args) {
  hot_path_report report;
  report.traces = args.get_size("traces", 600);
  report.averaging = static_cast<int>(args.get_size("averaging", 16));
  report.threads = static_cast<unsigned>(args.get_size("threads", 1));

  const crypto::aes_key key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                               0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                               0x09, 0xcf, 0x4f, 0x3c};
  core::campaign_config config;
  config.traces = report.traces;
  config.threads = report.threads == 0 ? 1 : report.threads;
  config.seed = args.get_size("seed", 0x7077);
  config.averaging = report.averaging;
  config.window = {crypto::mark_encrypt_begin, crypto::mark_round1_end};
  // Per-trace simulation for the baseline numbers; the batched measures
  // below flip only this knob, so each batched/per-trace ratio is a
  // same-run, same-hardware speedup.
  config.sim_batch_lanes = 0;
  core::trace_campaign campaign(config, key);

  // Warm-up outside the timed region (page faults, code paths, caches).
  (void)campaign.produce(0);

  // A bounded prefix of the in-order campaign's records doubles as the
  // workload for the trace-store throughput measurement below (bounded
  // so a 100k-trace hot-path run stays constant-memory).
  const std::size_t store_bench_traces =
      std::min<std::size_t>(report.traces, 2'000);
  std::vector<power::trace> archived_samples;
  std::vector<std::array<double, 16>> archived_labels;
  archived_samples.reserve(store_bench_traces);
  archived_labels.reserve(store_bench_traces);

  std::uint64_t simulated_cycles = 0;
  const auto start = std::chrono::steady_clock::now();
  campaign.engine().run([&](core::acquisition_record&& rec) {
    report.samples_per_trace = rec.samples.size();
    simulated_cycles += rec.cycles;
    if (archived_samples.size() < store_bench_traces) {
      std::array<double, 16> labels;
      std::copy_n(rec.labels.begin(), labels.size(), labels.begin());
      archived_labels.push_back(labels);
      archived_samples.push_back(std::move(rec.samples));
    }
  });
  report.seconds = seconds_since(start);
  report.traces_per_sec =
      static_cast<double>(report.traces) / report.seconds;
  report.sim_cycles_per_sec =
      static_cast<double>(simulated_cycles) / report.seconds;

  // The identical campaign through the batched SoA backend (the default
  // lane count).
  config.sim_batch_lanes = -1;
  report.sim_batch_lanes = sim::resolve_sim_batch_lanes(-1);
  {
    core::trace_campaign batched(config, key);
    (void)batched.produce(0);
    const auto batched_start = std::chrono::steady_clock::now();
    batched.engine().run([](core::acquisition_record&&) {});
    report.sim_batched_seconds = seconds_since(batched_start);
    report.sim_batched_traces_per_sec =
        static_cast<double>(report.traces) / report.sim_batched_seconds;

    core::aes_campaign_source source(batched);
    core::cpa_sink cpa(0);
    const telem::counter fused{"synth.fused_traces", "traces", "synth"};
    const telem::counter events{"synth.event_traces", "traces", "synth"};
    const telem::counter scalar_noise{"synth.scalar_noise_traces", "traces",
                                      "synth"};
    const telem::counter cycles{"campaign.cycles", "cycles", "campaign"};
    const telem::counter deviates{"synth.gaussian_deviates", "deviates",
                                  "synth"};
    const telem::counter bytes{"sim.lane.bytes_restored", "bytes", "sim"};
    const telem::counter sets{"sim.lane.cache_sets_restored", "sets", "sim"};
    const std::uint64_t fused_before = fused.value();
    const std::uint64_t events_before = events.value();
    const std::uint64_t scalar_noise_before = scalar_noise.value();
    const std::uint64_t cycles_before = cycles.value();
    const std::uint64_t deviates_before = deviates.value();
    const std::uint64_t bytes_before = bytes.value();
    const std::uint64_t sets_before = sets.value();
    const auto source_start = std::chrono::steady_clock::now();
    core::pump(source, cpa);
    report.source_seconds = seconds_since(source_start);
    const auto per_trace = [&report](std::uint64_t delta) {
      return static_cast<double>(delta) / static_cast<double>(report.traces);
    };
    report.campaign_cycles_per_trace = per_trace(cycles.value() - cycles_before);
    report.gaussian_deviates_per_trace =
        per_trace(deviates.value() - deviates_before);
    report.bytes_restored_per_trace = per_trace(bytes.value() - bytes_before);
    report.cache_sets_restored_per_trace =
        per_trace(sets.value() - sets_before);
    const auto fused_traces =
        static_cast<double>(fused.value() - fused_before);
    report.fused_trace_share =
        fused_traces /
        (fused_traces + static_cast<double>(events.value() - events_before));
    report.source_traces_per_sec =
        static_cast<double>(report.traces) / report.source_seconds;
    report.accumulate_kernels = stats::active_kernels().name;
    report.emit_kernels = sim::active_emit_kernels().name;
    report.noise_kernels = scalar_noise.value() == scalar_noise_before
                               ? power::active_noise_kernels().name
                               : "scalar";
  }
  config.sim_batch_lanes = 0;

  // The same campaign on the OoO backend, so backend regressions are
  // visible in the same artifact as the in-order number: per-trace on the
  // fast scheduler; batched — the headline number, the OoO core's
  // per-cycle control (rename, wakeup/select, CDB, retire) amortized
  // across the lanes; and per-trace on the reference scan scheduler, the
  // denominator of the fast/reference ratio.  Bit-identical traces are a
  // tested invariant (ctest -L ooo_equiv, sim_batch), so only the clock
  // differs.  CI gates two same-run ratios over these three (fast >= 2x
  // reference, batched >= 1.5x per-trace), so each is timed over repeated
  // runs of at least a second in total, fast and reference alternating
  // run by run (time_in_rounds).
  config.backend = sim::backend_kind::ooo;
  config.uarch = sim::cortex_a7_ooo();
  core::trace_campaign ooo_campaign(config, key);
  config.sim_batch_lanes = -1;
  core::trace_campaign ooo_batched(config, key);
  config.sim_batch_lanes = 0;
  config.uarch.ooo.scheduler = sim::ooo_scheduler::reference;
  core::trace_campaign ooo_ref_campaign(config, key);
  for (const core::trace_campaign* c :
       {&ooo_campaign, &ooo_batched, &ooo_ref_campaign}) {
    (void)c->produce(0);
  }
  std::uint64_t ooo_cycles = 0;
  const std::vector<rep_timing> ooo_timing = time_in_rounds(
      {[&] {
         ooo_cycles = 0;
         ooo_campaign.engine().run([&](core::acquisition_record&& rec) {
           report.ooo_samples_per_trace = rec.samples.size();
           ooo_cycles += rec.cycles;
         });
       },
       [&] {
         ooo_ref_campaign.engine().run([](core::acquisition_record&&) {});
       }},
      1.0, 3);
  const rep_timing batched_timing = time_in_rounds(
      {[&] {
        ooo_batched.engine().run([](core::acquisition_record&&) {});
      }},
      1.0, 3)[0];
  const auto traces = static_cast<double>(report.traces);
  report.ooo_reps = ooo_timing[0].reps;
  report.ooo_seconds = ooo_timing[0].seconds;
  report.ooo_traces_per_sec = traces / report.ooo_seconds;
  report.ooo_sim_cycles_per_sec =
      static_cast<double>(ooo_cycles) / report.ooo_seconds;
  report.ooo_sim_batched_reps = batched_timing.reps;
  report.ooo_sim_batched_seconds = batched_timing.seconds;
  report.ooo_sim_batched_traces_per_sec =
      traces / report.ooo_sim_batched_seconds;
  report.ooo_reference_reps = ooo_timing[1].reps;
  report.ooo_reference_seconds = ooo_timing[1].seconds;
  report.ooo_reference_traces_per_sec =
      traces / report.ooo_reference_seconds;

  // Speculative OoO: fast scheduler again, bimodal front end on.  The
  // campaign detects the speculating config and runs per-trace (the
  // batch core rejects speculation), so this measures the full
  // subsystem cost on the production acquisition path.
  config.uarch = sim::cortex_a7_ooo_spec(
      sim::speculation_config{.predictor = sim::predictor_kind::bimodal});
  core::trace_campaign ooo_spec_campaign(config, key);
  (void)ooo_spec_campaign.produce(0);
  const auto ooo_spec_start = std::chrono::steady_clock::now();
  ooo_spec_campaign.engine().run([](core::acquisition_record&&) {});
  report.ooo_spec_seconds = seconds_since(ooo_spec_start);
  report.ooo_spec_traces_per_sec =
      static_cast<double>(report.traces) / report.ooo_spec_seconds;

  // Accumulator throughput, measured on traces of the campaign's length.
  const std::size_t samples = report.samples_per_trace;
  const std::size_t reps = args.get_size("accumulate_reps", 20'000);
  stats::partitioned_cpa cpa(samples);
  report.cpa_accumulate_ns_per_sample = accumulate_ns_per_sample(
      samples, reps, [&](std::size_t r, const std::vector<double>& t) {
        cpa.add_trace(static_cast<std::uint8_t>(r), t);
      });
  stats::tvla_accumulator tvla(samples);
  report.tvla_accumulate_ns_per_sample = accumulate_ns_per_sample(
      samples, reps, [&](std::size_t r, const std::vector<double>& t) {
        if (r % 2 == 0) {
          tvla.add_fixed(t);
        } else {
          tvla.add_random(t);
        }
      });

  // Batched accumulator throughput: one 256-row SoA tile streamed through
  // the dispatched batch kernels, reported as accumulator GB/s (bytes of
  // trace data consumed per second).
  report.batch_kernel = stats::active_kernels().name;
  report.crc_kernel = util::crc32_kernel();
  {
    const std::size_t rows = 256;
    util::xoshiro256 rng(0xba7c);
    std::vector<double> tile(rows * samples);
    for (auto& v : tile) {
      v = 5.0 + rng.next_gaussian();
    }
    std::vector<std::uint8_t> partitions(rows);
    std::vector<unsigned char> classes(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      partitions[r] = static_cast<std::uint8_t>(rng.next_u8());
      classes[r] = r % 2 == 0 ? 1 : 0;
    }
    const std::size_t batch_reps = std::max<std::size_t>(1, reps / rows);
    const double tile_bytes =
        static_cast<double>(rows * samples * sizeof(double));
    stats::partitioned_cpa batch_cpa(samples);
    auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < batch_reps; ++r) {
      batch_cpa.add_batch(partitions, tile.data(), samples, rows);
    }
    report.cpa_batch_accumulate_gb_per_sec =
        tile_bytes * static_cast<double>(batch_reps) /
        seconds_since(start) / 1e9;
    stats::tvla_accumulator batch_tvla(samples);
    start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < batch_reps; ++r) {
      batch_tvla.add_batch(tile.data(), samples, rows, classes);
    }
    report.tvla_batch_accumulate_gb_per_sec =
        tile_bytes * static_cast<double>(batch_reps) /
        seconds_since(start) / 1e9;
  }

  // Trace-store throughput on the campaign's own records: chunked+CRC'd
  // write of the collected traces, then a full mmap replay — pure I/O,
  // no simulation in either loop.
  const std::string store_path = "/tmp/usca_bench_hotpath.trc";
  power::trace_store_descriptor desc;
  desc.seed = config.seed;
  desc.labels = 16;
  {
    const auto write_start = std::chrono::steady_clock::now();
    auto writer = power::trace_store_writer::create(store_path, desc);
    for (std::size_t i = 0; i < archived_samples.size(); ++i) {
      writer.append(archived_labels[i], archived_samples[i]);
    }
    writer.close();
    const double write_seconds = seconds_since(write_start);
    const double payload_mib =
        static_cast<double>(writer.descriptor().record_bytes() *
                            archived_samples.size()) /
        (1024.0 * 1024.0);
    report.store_write_mb_per_sec = payload_mib / write_seconds;
    report.store_bytes_per_trace =
        static_cast<double>(writer.descriptor().record_bytes());
  }
  {
    const auto replay_start = std::chrono::steady_clock::now();
    const power::trace_store_reader reader(store_path);
    std::size_t replayed = 0;
    double checksum = 0.0;
    reader.stream([&](std::size_t, std::span<const double>,
                      std::span<const double> samples_row) {
      checksum += samples_row[0];
      ++replayed;
    });
    const double replay_seconds = seconds_since(replay_start);
    report.store_replay_mb_per_sec =
        static_cast<double>(reader.payload_bytes()) / (1024.0 * 1024.0) /
        replay_seconds;
    report.store_replay_traces_per_sec =
        static_cast<double>(replayed) / replay_seconds;
    if (checksum == 0.0) {
      std::fprintf(stderr, "(degenerate replay checksum)\n");
    }
    // Batched replay INTO an analysis: zero-copy chunks pumped through
    // the CPA pass — the analysis-loaded counterpart of the raw replay
    // number above.
    const auto batched_start = std::chrono::steady_clock::now();
    core::archive_source source(reader);
    core::cpa_sink cpa_pass(0);
    core::pump(source, cpa_pass);
    report.store_replay_batched_traces_per_sec =
        static_cast<double>(cpa_pass.cpa().traces()) /
        seconds_since(batched_start);
  }

  // Fabric merge + salvage scan on the same records: the archived
  // prefix split into 4 contiguous shard stores, concatenated back by
  // core::merge_stores (strict validation + replay-append), then the
  // merged store walked once in salvage mode (the full structural scan
  // every damaged-store open pays).
  {
    const std::size_t n = archived_samples.size();
    const std::size_t per = std::max<std::size_t>(1, (n + 3) / 4);
    std::vector<std::string> shard_paths;
    for (std::size_t s = 0; s * per < n; ++s) {
      const std::string shard =
          store_path + ".shard" + std::to_string(s);
      power::trace_store_descriptor shard_desc = desc;
      shard_desc.first_index = s * per;
      auto writer = power::trace_store_writer::create(shard, shard_desc);
      for (std::size_t i = s * per; i < std::min(n, (s + 1) * per); ++i) {
        writer.append(archived_labels[i], archived_samples[i]);
      }
      writer.close();
      shard_paths.push_back(shard);
    }
    const std::string merged = store_path + ".merged";
    const double payload_mib =
        report.store_bytes_per_trace * static_cast<double>(n) /
        (1024.0 * 1024.0);
    const auto merge_start = std::chrono::steady_clock::now();
    const std::size_t merged_records = core::merge_stores(shard_paths, merged);
    report.fabric_merge_mb_per_sec =
        payload_mib / seconds_since(merge_start);
    if (merged_records != n) {
      std::fprintf(stderr, "(fabric merge lost records?)\n");
    }
    const auto salvage_start = std::chrono::steady_clock::now();
    const power::trace_store_reader salvage_reader(
        merged, power::store_open_mode::salvage);
    report.salvage_scan_mb_per_sec =
        payload_mib / seconds_since(salvage_start);
    if (!salvage_reader.intact()) {
      std::fprintf(stderr, "(salvage scan found damage in a fresh store?)\n");
    }
    for (const std::string& shard : shard_paths) {
      std::remove(shard.c_str());
    }
    std::remove(merged.c_str());
  }
  std::remove(store_path.c_str());
  return report;
}

void write_json(std::FILE* out, const hot_path_report& r) {
  usca::util::json_writer w;
  w.begin_object();
  w.member("bench", "campaign_hot_path");
  w.member("traces", static_cast<std::uint64_t>(r.traces));
  w.member("averaging", r.averaging);
  w.member("threads", r.threads);
  w.member("samples_per_trace", static_cast<std::uint64_t>(r.samples_per_trace));
  w.member_fixed("seconds", r.seconds, 6);
  w.member_fixed("traces_per_sec", r.traces_per_sec, 1);
  w.member_fixed("sim_cycles_per_sec", r.sim_cycles_per_sec, 0);
  w.member("sim_batch_lanes", static_cast<std::uint64_t>(r.sim_batch_lanes));
  w.member_fixed("sim_batched_seconds", r.sim_batched_seconds, 6);
  w.member_fixed("sim_batched_traces_per_sec",
                 r.sim_batched_traces_per_sec, 1);
  w.member_fixed("source_seconds", r.source_seconds, 6);
  w.member_fixed("source_traces_per_sec", r.source_traces_per_sec, 1);
  w.member_fixed("fused_trace_share", r.fused_trace_share, 3);
  w.key("work_per_trace").begin_object();
  w.member_fixed("campaign.cycles", r.campaign_cycles_per_trace, 1);
  w.member_fixed("synth.gaussian_deviates", r.gaussian_deviates_per_trace, 1);
  w.member_fixed("sim.lane.bytes_restored", r.bytes_restored_per_trace, 1);
  w.member_fixed("sim.lane.cache_sets_restored",
                 r.cache_sets_restored_per_trace, 1);
  w.end_object();
  w.member("ooo_samples_per_trace",
           static_cast<std::uint64_t>(r.ooo_samples_per_trace));
  w.member("ooo_reps", static_cast<std::uint64_t>(r.ooo_reps));
  w.member_fixed("ooo_seconds", r.ooo_seconds, 6);
  w.member_fixed("ooo_traces_per_sec", r.ooo_traces_per_sec, 1);
  w.member_fixed("ooo_sim_cycles_per_sec", r.ooo_sim_cycles_per_sec, 0);
  w.member("ooo_sim_batched_reps",
           static_cast<std::uint64_t>(r.ooo_sim_batched_reps));
  w.member_fixed("ooo_sim_batched_seconds", r.ooo_sim_batched_seconds, 6);
  w.member_fixed("ooo_sim_batched_traces_per_sec",
                 r.ooo_sim_batched_traces_per_sec, 1);
  w.member("ooo_reference_reps",
           static_cast<std::uint64_t>(r.ooo_reference_reps));
  w.member_fixed("ooo_reference_seconds", r.ooo_reference_seconds, 6);
  w.member_fixed("ooo_reference_traces_per_sec",
                 r.ooo_reference_traces_per_sec, 1);
  w.member_fixed("ooo_spec_seconds", r.ooo_spec_seconds, 6);
  w.member_fixed("ooo_spec_traces_per_sec", r.ooo_spec_traces_per_sec, 1);
  w.member_fixed("cpa_accumulate_ns_per_sample",
                 r.cpa_accumulate_ns_per_sample, 3);
  w.member_fixed("tvla_accumulate_ns_per_sample",
                 r.tvla_accumulate_ns_per_sample, 3);
  w.member("batch_kernel", r.batch_kernel);
  w.key("kernels").begin_object();
  w.member("accumulate", r.accumulate_kernels);
  w.member("emit", r.emit_kernels);
  w.member("noise", r.noise_kernels);
  w.end_object();
  w.member("crc_kernel", r.crc_kernel);
  w.member_fixed("cpa_batch_accumulate_gb_per_sec",
                 r.cpa_batch_accumulate_gb_per_sec, 2);
  w.member_fixed("tvla_batch_accumulate_gb_per_sec",
                 r.tvla_batch_accumulate_gb_per_sec, 2);
  w.member_fixed("store_write_mb_per_sec", r.store_write_mb_per_sec, 1);
  w.member_fixed("store_replay_mb_per_sec", r.store_replay_mb_per_sec, 1);
  w.member_fixed("store_replay_traces_per_sec",
                 r.store_replay_traces_per_sec, 0);
  w.member_fixed("store_replay_batched_traces_per_sec",
                 r.store_replay_batched_traces_per_sec, 0);
  w.member_fixed("store_bytes_per_trace", r.store_bytes_per_trace, 0);
  w.member_fixed("fabric_merge_mb_per_sec", r.fabric_merge_mb_per_sec, 1);
  w.member_fixed("salvage_scan_mb_per_sec", r.salvage_scan_mb_per_sec, 1);
  w.end_object();
  bench::write_json_report(out, w);
}

int run_json_mode(const std::string& json_arg, int argc, char** argv) {
  // Strip the --json flag; the rest is the usual key=value syntax.
  std::vector<char*> rest;
  rest.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (json_arg != argv[i]) {
      rest.push_back(argv[i]);
    }
  }
  const bench::arg_map args(
      static_cast<int>(rest.size()), rest.data(),
      {"traces", "averaging", "threads", "seed", "accumulate_reps"});
  const hot_path_report report = measure_hot_path(args);
  write_json(stdout, report);
  if (const std::size_t eq = json_arg.find('=');
      eq != std::string::npos && eq + 1 < json_arg.size()) {
    const std::string path = json_arg.substr(eq + 1);
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      write_json(f, report);
      std::fclose(f);
      std::fprintf(stderr, "(report written to %s)\n", path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
  }
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 ||
        std::strncmp(argv[i], "--json=", 7) == 0) {
      return run_json_mode(argv[i], argc, argv);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
