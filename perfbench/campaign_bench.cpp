// Campaign benchmark: host cost of the usca acquisition and analysis
// stack, end to end and layer by layer, on four workloads.
//
//   campaign_bench --workload W --seed N --seconds S --trace 0|1
//                  --scratch DIR
//
// The end-to-end unit is a campaign: from (seed, index) to an accumulated
// CPA result.  Every workload runs single-threaded, so the figures measure
// work rather than thread scheduling:
//
//   inorder_live    AES trace_campaign on the in-order pipeline, batched
//                   (32 lanes), round-1 window, averaging 16, into a CPA
//                   pass.
//   ooo_batched     the same campaign on the out-of-order core, batched.
//   ooo_spec        the branchy (non-constant-time) AES through
//                   acquisition_campaign on the speculating OoO core
//                   (bimodal predictor): the per-trace path, with real
//                   mispredicts and wrong-path uops.
//   replay_windows  an archived in-order campaign over the whole
//                   encryption, re-opened (CRC-validated) and replayed into
//                   one CPA pass per AES phase window (14 windows).
//
// BENCHMARK.json lists inorder_live and replay_windows.  The two OoO
// workloads run by hand: on a 4-vCPU shared host their ten-seed spread
// of ns_per_trace (0.18-0.27 of the median, with step changes between
// runs, measured pinned to one CPU) was too wide for a 0.25 bound.
//
// A run sets the workload up 16 times (setup_s is the median), then
// repeats one fixed unit of work (a rep) until --seconds have passed.
// Each setup and each rep runs on the next of the CPUs the process may
// use, round robin.  On a shared host the speed of one CPU swings by up
// to 1.7x for seconds at a time (neighbours contending for the core), so
// a run pinned to one CPU measures that CPU's neighbours.  Spread over
// every CPU, the reps slowed by contention form a long upper tail whose
// weight changes from run to run (the median over reps spread 0.17 of
// itself across ten seeds), while the fastest reps do not move:
// contention only ever adds time, so ns_per_trace is the fastest rep's
// time per trace, the cost of the program on an uncontended CPU.
//
// Correctness: every rep must reproduce the digest of the setup's engine
// rep, sampled records must be bit-identical to the per-trace oracle
// (produce(i)), the simulated ciphertext must match crypto::encrypt_block,
// and the CPA must rank the true key byte first.
//
// --trace 1 drives the same public calls the engine makes (batch or
// per-trace simulation, synthesis, tile packing, pass accumulation, store
// open) and times each one; its output must reproduce the engine's digest
// bit for bit, so the breakdown describes the measured path.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <sched.h>
#include <unistd.h>

#include "core/acquisition.h"
#include "core/analysis_sinks.h"
#include "core/campaign.h"
#include "core/trace_archive.h"
#include "crypto/aes128.h"
#include "crypto/aes_codegen.h"
#include "power/trace_store_reader.h"
#include "sim/batch_sim.h"
#include "sim/micro_arch_config.h"
#include "sim/ooo/speculation.h"
#include "util/bitops.h"
#include "util/json_writer.h"
#include "util/rng.h"
#include "util/telemetry.h"

using namespace usca;

namespace {

using steady = std::chrono::steady_clock;

constexpr int setup_reps = 16;
constexpr std::size_t min_reps = 3;
/// Lane count of every batched campaign here: the engines' default width,
/// set explicitly so a change of that default does not change a workload.
constexpr int sim_batch_lanes = 32;
/// Executions averaged per live acquisition (the paper's 16).
constexpr int live_averaging = 16;

double ns_between(steady::time_point a, steady::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Moves the calling thread round robin over the CPUs it was allowed at
/// construction, one CPU per step().
class cpu_rotation {
public:
  cpu_rotation() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) {
          cpus_.push_back(cpu);
        }
      }
    }
  }

  void step() {
    if (cpus_.size() < 2) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Adds the wall time of its scope to `total_ns`: the benchmark's span
/// around one call into a layer.
class span {
public:
  explicit span(double& total_ns)
      : total_(total_ns), start_(steady::now()) {}
  span(const span&) = delete;
  span& operator=(const span&) = delete;
  ~span() { total_ += ns_between(start_, steady::now()); }

private:
  double& total_;
  steady::time_point start_;
};

/// Host time per layer, summed over the traced reps.
struct layer_times {
  double sim = 0.0;        ///< backend construction, input install, run
  double fallback = 0.0;   ///< per-trace re-simulation of ejected lanes
  double synth = 0.0;      ///< power-trace synthesis of the window
  double pack = 0.0;       ///< copying records into SoA tiles
  double store = 0.0;      ///< store open (CRC validation), chunk views
  double accumulate = 0.0; ///< CPA passes' consume_batch

  double total() const {
    return sim + fallback + synth + pack + store + accumulate;
  }
};

struct layer_counts {
  std::size_t traces = 0;  ///< traces the traced reps produced
  std::size_t ejected = 0; ///< batch lanes re-simulated per-trace
};

struct oracle_row {
  std::size_t index = 0;
  std::vector<double> labels;
  std::vector<double> samples;
};

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Folds every delivered label and sample into an order-sensitive digest
/// and compares the oracle rows bit for bit.
class check_pass final : public core::analysis_pass {
public:
  explicit check_pass(const std::vector<oracle_row>& oracle)
      : oracle_(oracle) {}

  void consume_batch(const core::trace_batch_view& batch) override {
    for (std::size_t r = 0; r < batch.count; ++r) {
      fold(batch.labels_row(r));
      fold(batch.samples_row(r));
      for (const oracle_row& row : oracle_) {
        if (row.index != batch.index(r)) {
          continue;
        }
        ++seen_;
        if (!same_bits(row.labels, batch.labels_row(r)) ||
            !same_bits(row.samples, batch.samples_row(r))) {
          ++mismatches_;
        }
      }
    }
  }

  std::uint64_t digest() const noexcept { return digest_; }
  /// Oracle rows that differed or never arrived.
  std::size_t mismatches() const noexcept {
    return mismatches_ + (oracle_.size() - std::min(seen_, oracle_.size()));
  }

private:
  void fold(std::span<const double> values) {
    for (const double v : values) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      digest_ = (digest_ ^ bits) * 0x100000001b3ULL;
    }
  }

  const std::vector<oracle_row>& oracle_;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;
  std::size_t seen_ = 0;
  std::size_t mismatches_ = 0;
};

struct rep_output {
  std::uint64_t digest = 0;
  std::size_t mismatches = 0;
};

crypto::aes_key key_from_seed(std::uint64_t seed) {
  util::xoshiro256 rng(seed ^ 0x6b6579ULL);
  crypto::aes_key key{};
  for (auto& b : key) {
    b = rng.next_u8();
  }
  return key;
}

std::uint64_t campaign_seed(std::uint64_t seed) {
  return util::splitmix64(seed);
}

crypto::aes_block draw_plaintext(util::xoshiro256& rng) {
  crypto::aes_block pt{};
  for (auto& b : pt) {
    b = rng.next_u8();
  }
  return pt;
}

std::vector<double> labels_of(const crypto::aes_block& pt) {
  return {pt.begin(), pt.end()};
}

/// HW(SubBytes out) under key guess `guess` — the paper's CPA model.
double subbytes_hw(std::size_t guess, std::size_t pt_byte) {
  return static_cast<double>(util::hamming_weight(crypto::subbytes_hypothesis(
      static_cast<std::uint8_t>(pt_byte), static_cast<std::uint8_t>(guess))));
}

bool key_byte_ranked_first(const core::cpa_sink& cpa, std::uint8_t key_byte) {
  return cpa.cpa().solve(subbytes_hw, 256).rank_of(key_byte) == 0;
}

std::uint64_t counter_total(std::string_view name) {
  for (const telem::metric_sample& m : telem::snapshot()) {
    if (m.info.name == name) {
      return m.count;
    }
  }
  return 0;
}

class workload {
public:
  virtual ~workload() = default;
  /// Builds every input of the timed reps (campaign, oracle rows,
  /// archive) and runs one engine rep, whose digest every timed rep must
  /// reproduce.
  virtual void setup() = 0;
  virtual std::size_t traces_per_rep() const = 0;
  /// One rep through the production engine.
  virtual rep_output run() = 0;
  /// The same rep through the engine's own calls, timed per layer.
  virtual rep_output run_traced(layer_times& t, layer_counts& c) = 0;
  /// Checks made outside the timed reps (ciphertext, key rank).
  virtual bool result_correct() const = 0;
  virtual std::uint64_t reference_digest() const = 0;
  /// Simulated cycles of trace 0 (a simulated-time figure, not host time).
  virtual std::uint64_t sim_cycles_per_trace() const = 0;
  /// Lane count the engine batches with; 0 = the per-trace path.
  virtual std::size_t batch_lanes() const = 0;
};

struct live_spec {
  /// The branchy AES through acquisition_campaign; otherwise the
  /// constant-time AES through trace_campaign.
  bool branchy = false;
  sim::backend_kind backend = sim::backend_kind::inorder;
  sim::micro_arch_config uarch = sim::cortex_a7();
  core::campaign_window window{};
  std::size_t traces = 0;
  /// Require the CPA over one rep to rank the true key byte first; only
  /// where one rep's traces are reliably enough for that.
  bool check_key_rank = true;
};

class live_workload final : public workload {
public:
  live_workload(const live_spec& spec, std::uint64_t seed)
      : spec_(spec), key_(key_from_seed(seed)), seed_(campaign_seed(seed)) {}

  void setup() override {
    layout_ = spec_.branchy ? crypto::generate_aes128_branchy_program()
                            : crypto::generate_aes128_program();
    round_keys_ = crypto::expand_key(key_);
    image_ = sim::program_image(layout_.prog);
    if (spec_.branchy) {
      core::acquisition_config config;
      config.traces = spec_.traces;
      config.threads = 1;
      config.seed = seed_;
      config.averaging = live_averaging;
      config.window = spec_.window;
      config.backend = spec_.backend;
      config.uarch = spec_.uarch;
      config.sim_batch_lanes = sim_batch_lanes;
      acquisition_ =
          std::make_unique<core::acquisition_campaign>(image_, config);
      acquisition_->set_setup([this](std::size_t, util::xoshiro256& rng,
                                     sim::backend& core,
                                     std::vector<double>& labels) {
        const crypto::aes_block pt = draw_plaintext(rng);
        crypto::install_aes_inputs(core.memory(), layout_, round_keys_, pt);
        labels = labels_of(pt);
      });
    } else {
      core::campaign_config config;
      config.traces = spec_.traces;
      config.threads = 1;
      config.seed = seed_;
      config.averaging = live_averaging;
      config.window = spec_.window;
      config.backend = spec_.backend;
      config.uarch = spec_.uarch;
      config.sim_batch_lanes = sim_batch_lanes;
      campaign_ = std::make_unique<core::trace_campaign>(config, key_);
    }
    for (const std::size_t index :
         {std::size_t{0}, spec_.traces / 2, spec_.traces - 1}) {
      oracle_.push_back(produce_oracle(index));
    }
    ciphertext_ok_ = ciphertext_matches();
    reference_ = run().digest;
  }

  std::size_t traces_per_rep() const override { return spec_.traces; }

  rep_output run() override {
    std::unique_ptr<core::trace_source> source;
    if (campaign_) {
      source = std::make_unique<core::aes_campaign_source>(*campaign_);
    } else {
      source = std::make_unique<core::acquisition_source>(*acquisition_);
    }
    auto cpa = std::make_unique<core::cpa_sink>(0);
    check_pass check(oracle_);
    core::analysis_pass* passes[] = {cpa.get(), &check};
    core::pump(*source, passes);
    cpa_ = std::move(cpa);
    return {check.digest(), check.mismatches()};
  }

  rep_output run_traced(layer_times& t, layer_counts& c) override {
    const std::size_t n = spec_.traces;
    const std::size_t lanes = batch_lanes();
    std::unique_ptr<sim::batch_backend> batch;
    std::unique_ptr<sim::backend> core;
    std::unique_ptr<sim::backend> fallback;
    {
      const span s(t.sim);
      if (lanes > 0) {
        batch = sim::make_batch_backend(spec_.backend, image_, spec_.uarch,
                                        lanes);
        batch->set_activity_cutoff_mark(spec_.window.end_mark);
      } else {
        core = make_core();
      }
    }
    power::trace_synthesizer synth(power::synthesis_config{}, 0);

    auto cpa = std::make_unique<core::cpa_sink>(0);
    check_pass check(oracle_);
    core::batch_builder tile(core::trace_source::default_batch_traces);
    bool begun = false;
    const auto deliver = [&] {
      const core::trace_batch_view view = tile.view();
      if (!begun) {
        const core::stream_shape shape{n, view.n_samples, view.n_labels,
                                       view.first_index};
        cpa->begin(shape);
        check.begin(shape);
        begun = true;
      }
      {
        const span s(t.accumulate);
        cpa->consume_batch(view);
      }
      check.consume_batch(view);
      tile.clear();
    };
    std::vector<double> labels(16);
    const auto emit = [&](std::size_t index, const crypto::aes_block& pt,
                          const power::trace& samples) {
      {
        const span s(t.pack);
        std::copy(pt.begin(), pt.end(), labels.begin());
        tile.append(index, labels, samples);
      }
      if (tile.full()) {
        deliver();
      }
    };

    std::array<crypto::aes_block, sim::max_batch_lanes> pts{};
    std::array<std::uint64_t, sim::max_batch_lanes> synthesis_seeds{};
    const std::size_t step = lanes > 0 ? lanes : 1;
    for (std::size_t first = 0; first < n; first += step) {
      const std::size_t count = std::min(step, n - first);
      if (lanes == 0) {
        const power::trace samples =
            produce_one(*core, synth, first, pts[0], t.sim, t.synth);
        emit(first, pts[0], samples);
        continue;
      }
      {
        const span s(t.sim);
        batch->limit_active_lanes(count);
        batch->reset();
        for (std::size_t l = 0; l < count; ++l) {
          const trace_seeds seeds = seeds_of(first + l);
          util::xoshiro256 rng(seeds.input);
          pts[l] = draw_plaintext(rng);
          synthesis_seeds[l] = seeds.synthesis;
          crypto::install_aes_inputs(batch->memory(l), layout_, round_keys_,
                                     pts[l]);
        }
        batch->warm_caches();
        batch->run();
      }
      std::uint64_t begin = 0;
      std::uint64_t end = 0;
      const bool found = core::find_campaign_window(
          batch->marks(), spec_.window, begin, end);
      for (std::size_t l = 0; l < count; ++l) {
        power::trace samples;
        if (batch->lane_diverged(l)) {
          ++c.ejected;
          if (!fallback) {
            const span s(t.fallback);
            fallback = make_core();
          }
          samples = produce_one(*fallback, synth, first + l, pts[l],
                                t.fallback, t.fallback);
        } else {
          if (!found) {
            throw std::runtime_error("campaign window marks not found");
          }
          const span s(t.synth);
          synth.reseed(synthesis_seeds[l]);
          samples = synthesize(synth, batch->activity(l), begin, end);
        }
        emit(first + l, pts[l], samples);
      }
    }
    if (!tile.empty()) {
      deliver();
    }
    cpa->finish();
    check.finish();
    cpa_ = std::move(cpa);
    c.traces += n;
    return {check.digest(), check.mismatches()};
  }

  bool result_correct() const override {
    return ciphertext_ok_ && cpa_ &&
           (!spec_.check_key_rank || key_byte_ranked_first(*cpa_, key_[0]));
  }
  std::uint64_t reference_digest() const override { return reference_; }
  std::uint64_t sim_cycles_per_trace() const override { return cycles_; }

  std::size_t batch_lanes() const override {
    // The engines' resolution: speculating OoO cores have no batched
    // counterpart and run per-trace.
    if (spec_.backend == sim::backend_kind::ooo &&
        sim::speculation_active(spec_.uarch)) {
      return 0;
    }
    return std::min(sim::resolve_sim_batch_lanes(sim_batch_lanes),
                    spec_.traces);
  }

private:
  struct trace_seeds {
    std::uint64_t input = 0;
    std::uint64_t synthesis = 0;
  };

  /// The engines' per-index derivation (core/campaign.cpp).
  trace_seeds seeds_of(std::size_t index) const {
    std::uint64_t stream = core::trace_campaign::trace_seed(seed_, index);
    trace_seeds seeds;
    seeds.input = util::splitmix64(stream);
    seeds.synthesis = util::splitmix64(stream);
    return seeds;
  }

  std::unique_ptr<sim::backend> make_core() const {
    std::unique_ptr<sim::backend> core =
        sim::make_backend(spec_.backend, image_, spec_.uarch);
    core->set_activity_cutoff_mark(spec_.window.end_mark);
    return core;
  }

  power::trace synthesize(power::trace_synthesizer& synth,
                          const sim::activity_trace& activity,
                          std::uint64_t begin, std::uint64_t end) const {
    return synth.synthesize_averaged(activity,
                                     static_cast<std::uint32_t>(begin),
                                     static_cast<std::uint32_t>(end),
                                     live_averaging);
  }

  /// The engines' per-trace body: reset, install, run, synthesize.
  power::trace produce_one(sim::backend& core,
                           power::trace_synthesizer& synth,
                           std::size_t index, crypto::aes_block& pt,
                           double& sim_ns, double& synth_ns) const {
    const trace_seeds seeds = seeds_of(index);
    {
      const span s(sim_ns);
      core.reset();
      util::xoshiro256 rng(seeds.input);
      pt = draw_plaintext(rng);
      crypto::install_aes_inputs(core.memory(), layout_, round_keys_, pt);
      core.warm_caches();
      core.run();
    }
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    if (!core::find_campaign_window(core.marks(), spec_.window, begin, end)) {
      throw std::runtime_error("campaign window marks not found");
    }
    const span s(synth_ns);
    synth.reseed(seeds.synthesis);
    return synthesize(synth, core.activity(), begin, end);
  }

  oracle_row produce_oracle(std::size_t index) {
    if (campaign_) {
      const core::trace_record rec = campaign_->produce(index);
      if (index == 0) {
        cycles_ = rec.cycles;
      }
      return {index, labels_of(rec.plaintext), rec.samples};
    }
    const core::acquisition_record rec = acquisition_->produce(index);
    if (index == 0) {
      cycles_ = rec.cycles;
    }
    return {index, rec.labels, rec.samples};
  }

  /// Independent functional oracle: the simulated AES of trace 0 must
  /// produce the golden model's ciphertext.
  bool ciphertext_matches() const {
    std::unique_ptr<sim::backend> core =
        sim::make_backend(spec_.backend, image_, spec_.uarch);
    util::xoshiro256 rng(seeds_of(0).input);
    const crypto::aes_block pt = draw_plaintext(rng);
    crypto::install_aes_inputs(core->memory(), layout_, round_keys_, pt);
    core->warm_caches();
    core->run();
    return crypto::read_aes_state(core->memory(), layout_) ==
           crypto::encrypt_block(pt, key_);
  }

  live_spec spec_;
  crypto::aes_key key_;
  std::uint64_t seed_;
  crypto::aes_program_layout layout_;
  crypto::aes_round_keys round_keys_{};
  sim::program_image image_;
  std::unique_ptr<core::trace_campaign> campaign_;
  std::unique_ptr<core::acquisition_campaign> acquisition_;
  std::vector<oracle_row> oracle_;
  std::unique_ptr<core::cpa_sink> cpa_;
  std::uint64_t reference_ = 0;
  std::uint64_t cycles_ = 0;
  bool ciphertext_ok_ = false;
};

/// Sample windows of the AES phases, relative to the record's window
/// start: the initial AddRoundKey, the four round-1 phases, then rounds
/// 2..10.  The phase boundaries are data-independent (constant-time AES),
/// so trace 0's marks stand for every trace.
std::vector<core::window_spec>
aes_phase_windows(const core::trace_record& rec) {
  const auto at = [&rec](std::uint16_t id) -> std::size_t {
    for (const sim::mark_stamp& m : rec.marks) {
      if (m.id == id) {
        return static_cast<std::size_t>(m.cycle - rec.window_begin);
      }
    }
    throw std::runtime_error("AES phase mark missing from the trace");
  };
  using crypto::aes_round_phase;
  std::vector<std::size_t> bounds = {
      0,
      at(crypto::mark_ark0_end),
      at(crypto::mark_sb1_end),
      at(crypto::mark_shr1_end),
      at(crypto::mark_round1_end),
  };
  for (int round = 1; round < 10; ++round) {
    bounds.push_back(at(
        crypto::aes_round_phase_mark(round, aes_round_phase::add_round_key)));
  }
  bounds.push_back(
      static_cast<std::size_t>(rec.window_end - rec.window_begin));
  std::vector<core::window_spec> windows;
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    windows.push_back(core::window_spec::range(bounds[i], bounds[i + 1]));
  }
  return windows;
}

class replay_workload final : public workload {
public:
  /// Window 3 is round-1 MixColumns, the phase whose leak alone recovers
  /// the key.
  static constexpr std::size_t key_window = 3;
  static constexpr std::size_t traces = 1024;

  replay_workload(std::uint64_t seed, std::string path)
      : key_(key_from_seed(seed)), seed_(campaign_seed(seed)),
        path_(std::move(path)) {}
  replay_workload(const replay_workload&) = delete;
  replay_workload& operator=(const replay_workload&) = delete;
  ~replay_workload() override { std::remove(path_.c_str()); }

  void setup() override {
    core::campaign_config config;
    config.traces = traces;
    config.threads = 1;
    config.seed = seed_;
    config.averaging = 4;
    config.window = {crypto::mark_encrypt_begin, crypto::mark_encrypt_end};
    config.sim_batch_lanes = sim_batch_lanes;
    std::remove(path_.c_str());
    const core::archive_result archived =
        core::archive_aes_campaign(config, key_, path_);
    if (archived.total != traces) {
      throw std::runtime_error("archive holds the wrong record count");
    }
    const core::trace_campaign campaign(config, key_);
    const core::trace_record first = campaign.produce(0);
    cycles_ = first.cycles;
    windows_ = aes_phase_windows(first);
    for (const std::size_t index :
         {std::size_t{0}, traces / 2, traces - 1}) {
      const core::trace_record rec = campaign.produce(index);
      oracle_.push_back({index, labels_of(rec.plaintext), rec.samples});
    }
    reference_ = run().digest;
  }

  std::size_t traces_per_rep() const override { return traces; }

  rep_output run() override {
    const power::trace_store_reader reader(path_);
    core::archive_source source(reader);
    std::vector<std::unique_ptr<core::cpa_sink>> cpas = make_passes();
    check_pass check(oracle_);
    std::vector<core::analysis_pass*> passes;
    for (const auto& cpa : cpas) {
      passes.push_back(cpa.get());
    }
    passes.push_back(&check);
    core::pump(source, passes);
    cpas_ = std::move(cpas);
    return {check.digest(), check.mismatches()};
  }

  rep_output run_traced(layer_times& t, layer_counts& c) override {
    std::optional<power::trace_store_reader> reader;
    {
      const span s(t.store);
      reader.emplace(path_);
    }
    const std::size_t samples = reader->samples();
    std::vector<std::unique_ptr<core::cpa_sink>> cpas = make_passes();
    check_pass check(oracle_);
    for (std::size_t w = 0; w < cpas.size(); ++w) {
      cpas[w]->begin({reader->traces(), windows_[w].resolve(samples),
                      reader->labels(), reader->first_index()});
    }
    check.begin({reader->traces(), samples, reader->labels(),
                 reader->first_index()});
    for (std::size_t chunk = 0; chunk < reader->chunk_count(); ++chunk) {
      core::trace_batch_view view;
      {
        const span s(t.store);
        const power::batch_rows rows = reader->chunk_rows(chunk);
        view.first_index = reader->first_index() + rows.first_record;
        view.count = rows.count;
        view.n_labels = reader->labels();
        view.n_samples = samples;
        view.labels = rows.labels;
        view.label_stride = rows.stride;
        view.samples = rows.samples;
        view.sample_stride = rows.stride;
      }
      for (std::size_t w = 0; w < cpas.size(); ++w) {
        const span s(t.accumulate);
        cpas[w]->consume_batch(view.sample_window(
            windows_[w].first, windows_[w].resolve(samples)));
      }
      check.consume_batch(view);
    }
    for (const auto& cpa : cpas) {
      cpa->finish();
    }
    check.finish();
    cpas_ = std::move(cpas);
    c.traces += reader->traces();
    return {check.digest(), check.mismatches()};
  }

  bool result_correct() const override {
    return cpas_.size() == windows_.size() &&
           key_byte_ranked_first(*cpas_[key_window], key_[0]);
  }
  std::uint64_t reference_digest() const override { return reference_; }
  std::uint64_t sim_cycles_per_trace() const override { return cycles_; }
  std::size_t batch_lanes() const override { return 0; }

private:
  std::vector<std::unique_ptr<core::cpa_sink>> make_passes() const {
    std::vector<std::unique_ptr<core::cpa_sink>> cpas;
    for (const core::window_spec& w : windows_) {
      cpas.push_back(std::make_unique<core::cpa_sink>(0, w));
    }
    return cpas;
  }

  crypto::aes_key key_;
  std::uint64_t seed_;
  std::string path_;
  std::vector<core::window_spec> windows_;
  std::vector<oracle_row> oracle_;
  std::vector<std::unique_ptr<core::cpa_sink>> cpas_;
  std::uint64_t reference_ = 0;
  std::uint64_t cycles_ = 0;
};

struct options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string scratch;
};

std::unique_ptr<workload> make_workload(const options& o) {
  live_spec spec;
  spec.window = {crypto::mark_encrypt_begin, crypto::mark_round1_end};
  if (o.workload == "inorder_live") {
    spec.traces = 512;
    return std::make_unique<live_workload>(spec, o.seed);
  }
  if (o.workload == "ooo_batched") {
    spec.backend = sim::backend_kind::ooo;
    spec.uarch = sim::cortex_a7_ooo();
    spec.traces = 2048;
    return std::make_unique<live_workload>(spec, o.seed);
  }
  if (o.workload == "ooo_spec") {
    // The branchy AES's round-1 MixColumns length depends on the data, so
    // the window stops at ShiftRows, whose length does not; the whole
    // encryption (and every mispredict) is still simulated.  512 OoO
    // traces of that window do not reliably rank the key byte first, so
    // the oracle, digest and ciphertext checks carry correctness here.
    spec.branchy = true;
    spec.check_key_rank = false;
    spec.backend = sim::backend_kind::ooo;
    spec.uarch = sim::cortex_a7_ooo_spec(
        sim::speculation_config{.predictor = sim::predictor_kind::bimodal});
    spec.window = {crypto::mark_encrypt_begin, crypto::mark_shr1_end};
    spec.traces = 512;
    return std::make_unique<live_workload>(spec, o.seed);
  }
  if (o.workload == "replay_windows") {
    return std::make_unique<replay_workload>(
        o.seed, o.scratch + "/replay_" + std::to_string(::getpid()) + ".trc");
  }
  return nullptr;
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload inorder_live|ooo_batched|ooo_spec|"
               "replay_windows --seed N --seconds S --trace 0|1 "
               "--scratch DIR\n",
               argv0);
  std::exit(2);
}

options parse_options(int argc, char** argv) {
  options o;
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) {
      usage(argv[0]);
    }
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      std::size_t used = 0;
      if (key == "--workload") {
        o.workload = value;
        used = value.size();
      } else if (key == "--seed") {
        if (value.find('-') != std::string::npos) {
          usage(argv[0]);
        }
        o.seed = std::stoull(value, &used);
        have_seed = true;
      } else if (key == "--seconds") {
        o.seconds = std::stod(value, &used);
      } else if (key == "--trace") {
        o.trace = std::stoi(value, &used) != 0;
      } else if (key == "--scratch") {
        o.scratch = value;
        used = value.size();
      } else {
        usage(argv[0]);
      }
      if (used != value.size()) {
        usage(argv[0]);
      }
    } catch (const std::logic_error&) {
      usage(argv[0]);
    }
  }
  if (o.workload.empty() || !have_seed || !(o.seconds > 0.0) ||
      o.scratch.empty()) {
    usage(argv[0]);
  }
  return o;
}

class metrics_writer {
public:
  metrics_writer(bool correct, std::size_t attempted, std::size_t failed) {
    w_.begin_object();
    w_.member("correct", correct);
    w_.member("attempted", static_cast<std::uint64_t>(attempted));
    w_.member("failed", static_cast<std::uint64_t>(failed));
    w_.key("metrics");
    w_.begin_object();
  }

  void add(std::string_view name, double value, std::string_view unit) {
    w_.key(name);
    w_.begin_object();
    w_.member("value", value);
    w_.member("unit", unit);
    w_.end_object();
  }

  std::string line() {
    w_.end_object();
    w_.end_object();
    return w_.line();
  }

private:
  util::json_writer w_;
};

} // namespace

int main(int argc, char** argv) {
  const options o = parse_options(argc, argv);
  try {
    cpu_rotation cpus;
    std::unique_ptr<workload> w;
    std::vector<double> setup_seconds;
    for (int i = 0; i < setup_reps; ++i) {
      cpus.step();
      w.reset();
      w = make_workload(o);
      if (!w) {
        usage(argv[0]);
      }
      const auto start = steady::now();
      w->setup();
      setup_seconds.push_back(ns_between(start, steady::now()) * 1e-9);
    }

    const std::size_t n = w->traces_per_rep();
    const std::uint64_t mispredicts_before =
        counter_total("sim.ooo.mispredicts");
    const std::uint64_t wrong_path_before =
        counter_total("sim.ooo.wrong_path_uops");
    layer_times layers;
    layer_counts counts;
    std::vector<double> rep_ns_per_trace;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    const auto start = steady::now();
    do {
      cpus.step();
      const auto rep_start = steady::now();
      const rep_output out =
          o.trace ? w->run_traced(layers, counts) : w->run();
      rep_ns_per_trace.push_back(ns_between(rep_start, steady::now()) /
                                 static_cast<double>(n));
      attempted += n;
      if (out.digest != w->reference_digest()) {
        failed += n;
      } else {
        failed += std::min(out.mismatches, n);
      }
    } while (rep_ns_per_trace.size() < min_reps ||
             ns_between(start, steady::now()) * 1e-9 < o.seconds);

    const bool correct = failed == 0 && w->result_correct();
    metrics_writer m(correct, attempted, failed);
    if (!o.trace) {
      m.add("ns_per_trace",
            *std::min_element(rep_ns_per_trace.begin(),
                              rep_ns_per_trace.end()),
            "ns");
      m.add("setup_s", median(setup_seconds), "s");
    } else {
      // Absolute times only for the stages every workload has (producing
      // tiles, accumulating them); each layer as its share of the traced
      // total, so the shares sum to 1 and a layer a workload lacks reads
      // 0 rather than a fake time.
      const auto traced = static_cast<double>(counts.traces);
      double total_ns = 0.0;
      for (const double v : rep_ns_per_trace) {
        total_ns += v * static_cast<double>(n);
      }
      const double source_ns =
          layers.sim + layers.fallback + layers.synth + layers.pack +
          layers.store;
      const auto share = [total_ns](double ns) { return ns / total_ns; };
      m.add("traced_ns_per_trace", total_ns / traced, "ns");
      m.add("source_ns_per_trace", source_ns / traced, "ns");
      m.add("accumulate_ns_per_trace", layers.accumulate / traced, "ns");
      m.add("sim_share", share(layers.sim), "ratio");
      m.add("fallback_share", share(layers.fallback), "ratio");
      m.add("synth_share", share(layers.synth), "ratio");
      m.add("pack_share", share(layers.pack), "ratio");
      m.add("store_share", share(layers.store), "ratio");
      m.add("accumulate_share", share(layers.accumulate), "ratio");
      m.add("other_share", share(total_ns - layers.total()), "ratio");
      m.add("sim_cycles_per_trace",
            static_cast<double>(w->sim_cycles_per_trace()), "cycles");
      m.add("batch_lanes", static_cast<double>(w->batch_lanes()), "count");
      m.add("ejected_lane_share",
            static_cast<double>(counts.ejected) / traced, "ratio");
      m.add("mispredicts_per_trace",
            static_cast<double>(counter_total("sim.ooo.mispredicts") -
                                mispredicts_before) /
                traced,
            "count");
      m.add("wrong_path_uops_per_trace",
            static_cast<double>(counter_total("sim.ooo.wrong_path_uops") -
                                wrong_path_before) /
                traced,
            "count");
    }
    std::fprintf(stderr,
                 "%s: %zu reps of %zu traces, ns/trace min %.0f median "
                 "%.0f max %.0f, setup %.3f s\n",
                 o.workload.c_str(), rep_ns_per_trace.size(), n,
                 *std::min_element(rep_ns_per_trace.begin(),
                                   rep_ns_per_trace.end()),
                 median(rep_ns_per_trace),
                 *std::max_element(rep_ns_per_trace.begin(),
                                   rep_ns_per_trace.end()),
                 median(setup_seconds));
    const std::string line = m.line();
    std::fwrite(line.data(), 1, line.size(), stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 1;
  }
}
