// The acquisition engine: the one loop behind every campaign.
//
// Every experiment in the repository has the same inner loop: randomize
// one trial's inputs, simulate the program, render a power trace of a
// marker-delimited window, and stream the trace into a statistical
// accumulator (CPA, TVLA, attribution, ...).  The paper's campaigns run
// to 100k traces, so this loop is the wall-clock bottleneck of the whole
// reproduction.  The caller supplies the shared program image and a
// per-index setup callback; the engine owns one resettable core and
// synthesizer per worker, shards the trials (one at a time per core, or
// a batch of lanes per batched run), and delivers records to the sink in
// strict index order.  The AES campaign (core/campaign.h) is one such setup.
//
// Determinism guarantee:
//
//  * Every trial is seeded independently from (campaign seed, index) via
//    splitmix64 (trace_seed below), so trial i is bit-identical no matter
//    which worker produces it, how many workers exist, how many lanes a
//    batch has, or how the scheduler interleaves them.
//  * Completed records are re-ordered and delivered to the sink in strict
//    index order on the calling thread.  Floating-point accumulation
//    order is therefore fixed, so downstream statistics (CPA correlation
//    matrices, t statistics) are also bit-identical across thread counts.
//
// The per-index seeding additionally gives campaigns the prefix property:
// the first N records of a longer campaign equal the N records of a
// shorter one with the same seed, and disjoint [first_index,
// first_index+traces) ranges extend a campaign without re-simulating its
// prefix.
#ifndef USCA_CORE_ACQUISITION_H
#define USCA_CORE_ACQUISITION_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/trace_stream.h"
#include "crypto/aes_codegen.h"
#include "power/second_core.h"
#include "power/synthesizer.h"
#include "sim/backend.h"
#include "sim/batch_sim.h"
#include "sim/micro_arch_config.h"
#include "sim/program_image.h"
#include "util/rng.h"

namespace usca::core {

/// Marker-delimited acquisition window: the synthesized trace covers the
/// cycles from `begin_mark` (inclusive) to `end_mark` (exclusive).
struct campaign_window {
  std::uint16_t begin_mark = crypto::mark_encrypt_begin;
  std::uint16_t end_mark = crypto::mark_round1_end;
};

/// Window lookup over a run's marks.  Binds to the FIRST occurrence of
/// each mark id — the same occurrence at which the backend's activity
/// cutoff disarms recording — so a program that issues its end-mark id
/// repeatedly cannot end up with a silently unrecorded window tail.
/// Returns false when either mark is missing or the window is empty.
bool find_campaign_window(const std::vector<sim::mark_stamp>& marks,
                          const campaign_window& window, std::uint64_t& begin,
                          std::uint64_t& end) noexcept;

/// Per-index seed of trial `index`: the root of its private setup and
/// synthesis streams.  The scheme is load-bearing for the reproducibility
/// of archived results.
std::uint64_t trace_seed(std::uint64_t campaign_seed,
                         std::size_t index) noexcept;

struct acquisition_config {
  std::size_t traces = 0;      ///< number of acquisitions
  std::size_t first_index = 0; ///< global index of the first acquisition
  unsigned threads = 0;        ///< worker count; 0 = hardware concurrency
  std::uint64_t seed = 0;      ///< master seed (per-index derivation)
  int averaging = 1;           ///< executions averaged per acquisition
  /// Marker-delimited synthesis window (ignored when full_run_window).
  campaign_window window{};
  /// Synthesize the whole run instead of a marker window: samples cover
  /// [0, cycles + full_run_tail_pad) — the portability study's view.
  bool full_run_window = false;
  std::uint32_t full_run_tail_pad = 4; ///< catches trailing write-backs
  /// When false the pipeline records no activity and no trace is
  /// synthesized — pure timing acquisitions (CPI measurements).
  bool synthesize = true;
  /// Copy the window's activity events into the record for indices below
  /// this bound (the characterizer's attribution pass needs them).
  std::size_t keep_activity_first = 0;
  power::synthesis_config power{};
  sim::micro_arch_config uarch = sim::cortex_a7();
  /// Core model the trials run on (in-order pipeline or OoO backend).
  sim::backend_kind backend = sim::backend_kind::inorder;
  /// Batched-simulation width (sim/batch_sim.h): -1 selects the default
  /// lane count, 0 forces the per-trace path, 1..64 batches that many
  /// trials per run.  USCA_SIM_BATCH, when set, overrides this field
  /// (USCA_SIM_BATCH=0 reverts every campaign to the per-trace reference
  /// path).  Trials whose data-dependent timing diverges from their batch
  /// are ejected and transparently re-simulated per-trace, so results are
  /// bit-identical at every lane count.
  int sim_batch_lanes = -1;
};

/// One completed acquisition, delivered in index order.
struct acquisition_record {
  std::size_t index = 0;
  power::trace samples;           ///< empty when config.synthesize is false
  std::uint64_t window_begin = 0; ///< absolute cycle of samples[0]
  std::uint64_t window_end = 0;
  /// Simulated cycles, instructions and marks.  run(sink) and produce()
  /// simulate to halt, so these cover the whole run; the records behind
  /// an acquisition_source end at the window's end mark.
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::vector<sim::mark_stamp> marks;
  /// Values the setup callback recorded for this trial (hypothesis-model
  /// inputs, secrets, ...), untouched by the engine.
  std::vector<double> labels;
  /// Window activity events, kept only for index < keep_activity_first.
  sim::activity_trace window_activity;
};

class acquisition_campaign {
public:
  /// Randomizes one trial: install registers/memory on the (reset)
  /// backend from the trial's private index-seeded stream, and record
  /// anything the sink will need into `labels`.  Must be a pure function
  /// of its arguments — shared state would break the determinism
  /// guarantee (and the thread-safety) of the engine.
  using setup_fn = std::function<void(std::size_t index, util::xoshiro256&,
                                      sim::backend&,
                                      std::vector<double>& labels)>;

  /// Invoked once per record, in strict index order, on the thread that
  /// called run().
  using sink_fn = std::function<void(acquisition_record&&)>;

  /// `second_core` (optional) is the simulated interfering core every
  /// synthesizer attaches — the Figure-4 dual-core environment; it is
  /// shared read-only by all workers.
  acquisition_campaign(
      sim::program_image image, acquisition_config config,
      std::shared_ptr<const power::second_core_noise> second_core = nullptr);

  void set_setup(setup_fn setup);

  /// Acquires all records and streams them into `sink`.  Every run
  /// simulates to halt, so each record is whole (cycles, instructions and
  /// marks of the entire program).  Worker and sink exceptions abort the
  /// campaign and rethrow here.
  void run(const sink_fn& sink);

  /// Streams the campaign through the batched analysis architecture:
  /// records are packed into SoA tiles (labels and samples of the
  /// acquisition_record) and pumped through the pass — begin() at the
  /// first tile, consume_batch() per tile, finish() at the end.  Runs
  /// through acquisition_source, so with a marker window each simulation
  /// ends at the window's end mark.
  void run(analysis_pass& pass);

  /// Produces record `index` synchronously on a fresh pipeline, simulated
  /// to halt; run() yields exactly this record for every index, and
  /// acquisition_source the same labels and samples.
  acquisition_record produce(std::size_t index) const;

  unsigned resolved_threads() const noexcept;

  const acquisition_config& config() const noexcept { return config_; }

private:
  friend class acquisition_source;

  /// The one run body behind run(sink) and acquisition_source.
  /// `whole_records` says whether the consumer reads whole records: when
  /// false, and the window is a marker window with synthesis on, every
  /// simulation (ejected-lane fallbacks included) ends when the window's
  /// end mark commits instead of running to halt.
  void run_records(const sink_fn& sink, bool whole_records);

  /// A per-trace core with the config's recording mode (see run_records
  /// for `whole_records`).
  std::unique_ptr<sim::backend> make_backend(bool whole_records) const;
  power::trace_synthesizer make_synthesizer() const;
  /// Lane count run() batches with: 0 selects the per-trace path (batching
  /// disabled via config/env, the OoO reference scheduler, or a
  /// speculating OoO core — neither has a batched counterpart), otherwise
  /// the resolved width clamped to the trace count.
  std::size_t batch_lanes() const;

  /// The per-trace body shared by produce() (fresh core) and run() (reset
  /// core): set up, simulate, finish.
  void produce_into(sim::backend& core, power::trace_synthesizer& synth,
                    std::size_t index, acquisition_record& rec) const;
  /// Batched counterpart: the setup callback runs against each lane
  /// through a sim::batch_lane_view and the whole group simulates in one
  /// batch run.  Lanes the batch ejects (data-dependent timing divergence)
  /// are re-produced on `fallback`, a per-trace core built lazily on first
  /// use with the batch's `whole_records`; either way recs[i] is
  /// bit-identical to produce(first_index + i) — in labels and samples
  /// only, when the runs end at the window's end mark.  Such a batch
  /// fuses synthesis (sim::batch_backend::fuse_synthesis) unless one of
  /// its records keeps window activity.
  void produce_batch_into(sim::batch_backend& batch,
                          std::unique_ptr<sim::backend>& fallback,
                          bool whole_records, power::trace_synthesizer& synth,
                          std::size_t first_index, std::size_t count,
                          std::vector<acquisition_record>& recs) const;
  /// Window lookup, activity retention and synthesis of a simulated
  /// record (rec.cycles and rec.marks already set).  Synthesis walks
  /// `activity`, or, when `fused` is set, renders column `lane` of that
  /// batch's clean tile.
  void finish_record(const sim::activity_trace& activity,
                     sim::batch_backend* fused, std::size_t lane,
                     power::trace_synthesizer& synth,
                     std::uint64_t synthesis_seed,
                     acquisition_record& rec) const;

  sim::program_image image_;
  acquisition_config config_;
  std::shared_ptr<const power::second_core_noise> second_core_;
  setup_fn setup_;
};

/// Presents an acquisition campaign as a batched trace_source, so the
/// same analysis passes run on live simulation and on archived stores
/// (core::archive_source) without caring which.  The in-order record
/// deliveries are packed into a reused SoA tile per batch; the campaign
/// must outlive the source, and each for_each_batch() call runs the
/// campaign once.
///
/// A tile carries only labels and samples, so with a marker window every
/// simulation ends when the window's end mark commits: nothing past the
/// window is simulated, and nothing past it is checked either (a program
/// that would fault or exhaust the cycle budget only after the end mark
/// yields its samples here, while run(sink) and produce() still simulate
/// and validate every run to halt).  The samples are
/// bit-identical to produce()'s.  Full-run windows and timing-only
/// campaigns (synthesize = false) always run to halt.
class acquisition_source : public trace_source {
public:
  explicit acquisition_source(acquisition_campaign& campaign)
      : campaign_(campaign) {}

  std::size_t traces() const override {
    return campaign_.config().traces;
  }

  void for_each_batch(std::size_t max_batch, const batch_fn& fn) override;

private:
  acquisition_campaign& campaign_;
};

} // namespace usca::core

#endif // USCA_CORE_ACQUISITION_H
