#include "core/acquisition.h"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

#include "core/ordered_dispatch.h"
#include "sim/ooo/ooo_core.h"
#include "util/error.h"
#include "util/telemetry.h"

namespace usca::core {

namespace {

/// The two private streams of one trial: its inputs and its measurement
/// noise (OS noise and second-core phase included).
struct trial_seeds {
  std::uint64_t setup;
  std::uint64_t synthesis;
};

trial_seeds seeds_of(std::uint64_t campaign_seed, std::size_t index) {
  std::uint64_t stream = trace_seed(campaign_seed, index);
  // Braced initialization evaluates left to right: setup draws first.
  return {util::splitmix64(stream), util::splitmix64(stream)};
}

/// Applies the config's recording mode to a per-trace or batched core:
/// timing-only runs record no activity, and activity past a marker
/// window's end mark can never land inside it, so recording stops there.
/// When the consumer reads only labels and samples (`whole_records`
/// false) the run ends there too: for the AES round-1 window that skips
/// simulating the nine later rounds.  Records read whole keep simulating
/// to halt, since their cycles and marks cover the entire run.
template <typename Core>
std::unique_ptr<Core> with_recording(std::unique_ptr<Core> core,
                                     const acquisition_config& config,
                                     bool whole_records) {
  if (!config.synthesize) {
    core->set_record_activity(false);
  } else if (!config.full_run_window) {
    core->set_activity_cutoff_mark(config.window.end_mark, !whole_records);
  }
  return core;
}

/// Counts one simulated record; a window-bounded run's cycles end at its
/// end mark.
void count_trace(std::uint64_t cycles) {
  static const telem::counter traces{"campaign.traces", "traces", "campaign"};
  static const telem::counter simulated{"campaign.cycles", "cycles",
                                        "campaign"};
  traces.add();
  simulated.add(cycles);
}

} // namespace

bool find_campaign_window(const std::vector<sim::mark_stamp>& marks,
                          const campaign_window& window, std::uint64_t& begin,
                          std::uint64_t& end) noexcept {
  bool begin_seen = false;
  bool end_seen = false;
  for (const auto& m : marks) {
    if (!begin_seen && m.id == window.begin_mark) {
      begin = m.cycle;
      begin_seen = true;
    } else if (!end_seen && m.id == window.end_mark) {
      end = m.cycle;
      end_seen = true;
    }
  }
  return begin_seen && end_seen && end > begin;
}

std::uint64_t trace_seed(std::uint64_t campaign_seed,
                         std::size_t index) noexcept {
  // One splitmix64 step over a golden-ratio-strided state decorrelates
  // neighbouring indices and neighbouring campaign seeds alike.
  std::uint64_t state = campaign_seed +
                        0x9e3779b97f4a7c15ULL *
                            (static_cast<std::uint64_t>(index) + 1);
  return util::splitmix64(state);
}

acquisition_campaign::acquisition_campaign(
    sim::program_image image, acquisition_config config,
    std::shared_ptr<const power::second_core_noise> second_core)
    : image_(std::move(image)), config_(config),
      second_core_(std::move(second_core)),
      setup_([](std::size_t, util::xoshiro256&, sim::backend&,
                std::vector<double>&) {}) {}

void acquisition_campaign::set_setup(setup_fn setup) {
  setup_ = std::move(setup);
}

unsigned acquisition_campaign::resolved_threads() const noexcept {
  return resolved_worker_count(config_.threads, config_.traces);
}

std::unique_ptr<sim::backend>
acquisition_campaign::make_backend(bool whole_records) const {
  return with_recording(
      sim::make_backend(config_.backend, image_, config_.uarch), config_,
      whole_records);
}

power::trace_synthesizer acquisition_campaign::make_synthesizer() const {
  power::trace_synthesizer synth(config_.power, 0);
  if (second_core_) {
    synth.attach_second_core(second_core_);
  }
  return synth;
}

std::size_t acquisition_campaign::batch_lanes() const {
  if (config_.backend == sim::backend_kind::ooo &&
      (config_.uarch.ooo.scheduler != sim::ooo_scheduler::fast ||
       sim::speculation_active(config_.uarch))) {
    // The reference scheduler exists as the differential oracle and has
    // no batched counterpart; a speculating core's per-lane wrong paths
    // have none either.  Run both on the per-trace path.
    return 0;
  }
  std::size_t lanes = sim::resolve_sim_batch_lanes(config_.sim_batch_lanes);
  if (lanes > config_.traces) {
    lanes = config_.traces;
  }
  return lanes;
}

void acquisition_campaign::locate_window(
    std::uint64_t cycles, const std::vector<sim::mark_stamp>& marks,
    std::uint64_t& begin, std::uint64_t& end) const {
  if (config_.full_run_window) {
    begin = 0;
    end = cycles + full_run_tail_pad;
  } else if (!find_campaign_window(marks, config_.window, begin, end)) {
    throw util::analysis_error(
        "campaign window marks not found (or empty window) in the "
        "simulated program");
  }
}

void acquisition_campaign::finish_record(const sim::activity_trace& activity,
                                         power::trace_synthesizer& synth,
                                         std::uint64_t synthesis_seed,
                                         acquisition_record& rec) const {
  count_trace(rec.cycles);
  locate_window(rec.cycles, rec.marks, rec.window_begin, rec.window_end);
  rec.window_activity.clear();
  if (!config_.synthesize) {
    rec.samples.clear();
    return;
  }
  const auto begin = static_cast<std::uint32_t>(rec.window_begin);
  const auto end = static_cast<std::uint32_t>(rec.window_end);
  if (rec.index < config_.keep_activity_first) {
    for (const sim::activity_event& ev : activity) {
      if (ev.cycle >= begin && ev.cycle < end) {
        rec.window_activity.push_back(ev);
      }
    }
  }
  synth.reseed(synthesis_seed);
  // Which synthesis produced the samples: a silent return of the source
  // path to the event walk shows up here (fused batches count
  // synth.fused_traces in produce_batch_into).
  static const telem::counter event_traces{"synth.event_traces", "traces",
                                           "synth"};
  event_traces.add();
  rec.samples = config_.averaging > 1
                    ? synth.synthesize_averaged(activity, begin, end,
                                                config_.averaging)
                    : synth.synthesize(activity, begin, end);
}

void acquisition_campaign::produce_into(sim::backend& core,
                                        power::trace_synthesizer& synth,
                                        std::size_t index,
                                        acquisition_record& rec) const {
  TELEM_SPAN("campaign.trace");
  const trial_seeds seeds = seeds_of(config_.seed, index);
  rec.index = index;
  rec.labels.clear(); // the record may be a recycled one
  util::xoshiro256 setup_rng(seeds.setup);
  setup_(index, setup_rng, core, rec.labels);

  core.warm_caches();
  core.run();
  rec.cycles = core.cycles();
  rec.instructions = core.instructions_issued();
  rec.marks = core.marks();
  finish_record(core.activity(), synth, seeds.synthesis, rec);
}

void acquisition_campaign::produce_batch_into(
    sim::batch_backend& batch, std::unique_ptr<sim::backend>& fallback,
    bool whole_records, power::trace_synthesizer& synth,
    std::size_t first_index, std::size_t count,
    std::vector<acquisition_record>& recs) const {
  TELEM_SPAN("campaign.batch");
  recs.resize(count);
  // A batch whose records are read for their samples alone, none of them
  // keeping window activity, sums its clean power in the batch's fused
  // tile instead of recording events for the synthesizer to walk.
  const bool fused = !whole_records && config_.synthesize &&
                     first_index >= config_.keep_activity_first;
  if (fused) {
    batch.fuse_synthesis(config_.power.weights.weight, config_.power.baseline);
  } else {
    batch.unfuse_synthesis();
  }
  batch.limit_active_lanes(count);
  batch.reset();

  std::array<std::uint64_t, sim::max_batch_lanes> synthesis_seeds{};
  for (std::size_t l = 0; l < count; ++l) {
    const std::size_t index = first_index + l;
    const trial_seeds seeds = seeds_of(config_.seed, index);
    synthesis_seeds[l] = seeds.synthesis;
    recs[l].index = index;
    recs[l].labels.clear();
    util::xoshiro256 setup_rng(seeds.setup);
    sim::batch_lane_view lane(batch, l);
    setup_(index, setup_rng, lane, recs[l].labels);
  }

  batch.warm_caches();
  batch.run();

  // A fused batch's surviving lanes share their marks, so its window is
  // located once and every lane's column is rendered by one synthesizer
  // call, straight into the records.
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t columns = 0;
  std::array<power::trace*, sim::max_batch_lanes> column_out{};
  for (std::size_t l = 0; l < count; ++l) {
    acquisition_record& rec = recs[l];
    if (batch.lane_diverged(l)) {
      // Data-dependent timing left the shared schedule; redo this trial
      // on the per-trace reference core.  produce_into rebuilds every
      // field, so the labels are those of one setup call.
      if (!fallback) {
        fallback = make_backend(whole_records);
      } else {
        fallback->reset();
      }
      produce_into(*fallback, synth, first_index + l, rec);
      continue;
    }
    rec.cycles = batch.cycles();
    rec.instructions = batch.instructions_issued();
    rec.marks = batch.marks();
    if (!fused) {
      finish_record(batch.activity(l), synth, synthesis_seeds[l], rec);
      continue;
    }
    count_trace(rec.cycles);
    if (columns == 0) {
      locate_window(rec.cycles, rec.marks, begin, end);
    }
    rec.window_begin = begin;
    rec.window_end = end;
    rec.window_activity.clear();
    columns |= std::uint64_t{1} << l;
    column_out[l] = &rec.samples;
  }
  if (columns == 0) {
    return;
  }
  static const telem::counter fused_traces{"synth.fused_traces", "traces",
                                           "synth"};
  fused_traces.add(static_cast<std::uint64_t>(std::popcount(columns)));
  const std::size_t stride = batch.lanes();
  synth.synthesize_columns(batch.clean_tile(end) + begin * stride, stride,
                           end - begin, config_.averaging, columns,
                           synthesis_seeds.data(), column_out.data());
}

acquisition_record acquisition_campaign::produce(std::size_t index) const {
  std::unique_ptr<sim::backend> core = make_backend(true);
  power::trace_synthesizer synth = make_synthesizer();
  acquisition_record rec;
  produce_into(*core, synth, index, rec);
  return rec;
}

void acquisition_campaign::run(analysis_pass& pass) {
  acquisition_source source(*this);
  pump(source, pass);
}

void acquisition_source::for_each_batch(std::size_t max_batch,
                                        const batch_fn& fn) {
  if (max_batch == 0) {
    max_batch = default_batch_traces;
  }
  batch_builder builder(max_batch);
  // The tiles carry only labels and samples, so no run needs to go past
  // the window's end mark.
  campaign_.run_records(
      [&](acquisition_record&& rec) {
        builder.push(rec.index, rec.labels, rec.samples, fn);
      },
      false);
  builder.flush(fn);
}

void acquisition_campaign::run(const sink_fn& sink) {
  run_records(sink, true);
}

void acquisition_campaign::run_records(const sink_fn& sink,
                                       bool whole_records) {
  // One work item is a group of `lanes` consecutive trials simulated in a
  // single batch run, or one trial on the per-trace path.  Items are
  // claimed by the workers, reordered, and unrolled in index order on
  // this thread, so the sink sees the same records in the same order
  // either way.
  const std::size_t first = config_.first_index;
  const std::size_t lanes = batch_lanes();
  const std::size_t group = lanes == 0 ? 1 : lanes;
  const std::size_t items = (config_.traces + group - 1) / group;

  // Each worker owns its cores and synthesizer for its whole shard; per
  // trial only reset() (zeroing the memory blocks and clearing the cache
  // sets the last trial touched, no reallocation) and reseed() separate
  // them from a freshly constructed pair, which the reset-equivalence
  // tests pin as bit-identical.  The record vectors are recycled too
  // (ordered_parallel_produce), so a group's samples, labels and marks
  // reuse the buffers of an earlier group.
  struct worker_context {
    std::unique_ptr<sim::batch_backend> batch; // null on the per-trace path
    std::unique_ptr<sim::backend> core;        // lazy: per-trace or fallback
    power::trace_synthesizer synth;
  };

  ordered_parallel_produce<std::vector<acquisition_record>>(
      items, resolved_worker_count(config_.threads, items),
      [this, lanes, whole_records](unsigned) {
        return worker_context{
            lanes == 0 ? nullptr
                       : with_recording(sim::make_batch_backend(
                                            config_.backend, image_,
                                            config_.uarch, lanes),
                                        config_, whole_records),
            nullptr, make_synthesizer()};
      },
      [this, first, group, whole_records](
          worker_context& ctx, std::size_t item,
          std::vector<acquisition_record>& recs) {
        const std::size_t begin = item * group;
        const std::size_t count = std::min(group, config_.traces - begin);
        if (ctx.batch) {
          produce_batch_into(*ctx.batch, ctx.core, whole_records, ctx.synth,
                             first + begin, count, recs);
          return;
        }
        if (!ctx.core) {
          ctx.core = make_backend(whole_records);
        } else {
          ctx.core->reset();
        }
        recs.resize(1);
        produce_into(*ctx.core, ctx.synth, first + begin, recs[0]);
      },
      [&sink](std::vector<acquisition_record>& recs) {
        for (acquisition_record& rec : recs) {
          sink(std::move(rec));
        }
      });
}

} // namespace usca::core
