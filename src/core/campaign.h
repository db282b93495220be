// The AES trace campaign: the paper's Figure-3/4, MTD and TVLA
// acquisitions.
//
// A trace campaign is an acquisition_campaign (core/acquisition.h) over
// the generated AES-128 program plus three things: a setup that draws
// each trace's plaintext through a plaintext policy, installs it with the
// expanded key, and records the 16 plaintext bytes as the record's
// labels; the policy itself (uniform random by default, e.g. the TVLA
// fixed-vs-random split on request); and the optional simulated second
// core of the Figure-4 dual-core environment.  Everything else — worker
// sharding, batched simulation with per-trace fallback, synthesis, the
// determinism guarantee and the prefix property — is the engine's, so
// an AES trace is bit-identical to the acquisition record of the same
// (seed, index) with that setup.
//
// Consumers that read only labels and samples (CPA, TVLA, archives) run
// the campaign through analysis passes, run(pass), whose simulations end
// at the window's end mark.  Consumers of whole runs (cycle counts,
// marks) take acquisition_records from engine().run(sink).
// trace_record, the AES view of one record, is built only by produce().
#ifndef USCA_CORE_CAMPAIGN_H
#define USCA_CORE_CAMPAIGN_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/acquisition.h"
#include "core/trace_stream.h"
#include "crypto/aes_codegen.h"
#include "power/synthesizer.h"
#include "sim/backend.h"
#include "sim/micro_arch_config.h"
#include "util/rng.h"

namespace usca::core {

struct campaign_config {
  std::size_t traces = 0;       ///< number of traces to acquire
  std::size_t first_index = 0;  ///< global index of the first trace
  unsigned threads = 0;         ///< worker count; 0 = hardware concurrency
  std::uint64_t seed = 0;       ///< campaign master seed
  int averaging = 16;           ///< executions averaged per acquisition
  campaign_window window{};
  power::synthesis_config power{};
  sim::micro_arch_config uarch = sim::cortex_a7();
  /// Core model the campaign simulates on (in-order pipeline or the OoO
  /// backend); every worker owns one resettable instance of this kind.
  sim::backend_kind backend = sim::backend_kind::inorder;
  /// Batched-simulation width; see acquisition_config::sim_batch_lanes.
  /// Batching never changes results: traces, marks and downstream
  /// statistics are bit-identical at every lane count, pinned by
  /// tests/core/campaign_sim_batch_test.cpp and the golden digests of
  /// tests/core/campaign_sim_batch_golden_test.cpp.
  int sim_batch_lanes = -1;
  /// Attach the simulated interfering core (the Figure-4 dual-core
  /// environment); it is built once and shared read-only by all workers.
  bool simulated_second_core = false;
  std::size_t second_core_cycles = 8 * 1024;
};

/// One acquisition simulated to halt, as produce() returns it.
struct trace_record {
  std::size_t index = 0;            ///< global trace index
  crypto::aes_block plaintext{};
  power::trace samples;             ///< one sample per window cycle
  std::uint64_t window_begin = 0;   ///< absolute cycle of samples[0]
  std::uint64_t window_end = 0;
  std::uint64_t cycles = 0;         ///< total simulated cycles of the run
  /// All trigger marks of the run (phase annotation, e.g. Figure 3).
  std::vector<sim::mark_stamp> marks;
};

class trace_campaign {
public:
  /// Plaintext policy: derives the plaintext of trace `index` from its
  /// private, index-seeded random stream.  Must be a pure function of its
  /// arguments — any other state would break the determinism guarantee.
  using plaintext_fn =
      std::function<crypto::aes_block(std::size_t index, util::xoshiro256&)>;

  trace_campaign(campaign_config config, crypto::aes_key key);

  /// Replaces the default uniform-random plaintext policy (e.g. the TVLA
  /// fixed-vs-random split keyed on index parity).
  void set_plaintext_policy(plaintext_fn policy);

  /// Streams the campaign through the batched analysis architecture; each
  /// simulation ends at the window's end mark.  Each record's labels are
  /// the 16 plaintext bytes (as doubles), so an archived AES campaign
  /// supports per-byte CPA for every key byte and index-parity TVLA on
  /// replay.  Worker and pass exceptions abort the campaign and rethrow
  /// here.
  void run(analysis_pass& pass);

  /// Produces trace `index` of the campaign synchronously, simulated to
  /// halt; run() streams the same labels and samples for every index and
  /// engine().run(sink) the same record (the determinism contract is
  /// checked against it in the tests).
  trace_record produce(std::size_t index) const;

  /// Worker count run() will use after resolving 0 = hardware concurrency.
  unsigned resolved_threads() const noexcept;

  const campaign_config& config() const noexcept { return config_; }

  /// The engine the campaign runs on; its records carry the 16
  /// plaintext bytes as labels (the archive writes them verbatim).  Its
  /// run(sink) delivers whole records, simulated to halt.
  acquisition_campaign& engine() noexcept { return engine_; }

  /// Per-trace seed derivation, core::trace_seed (exposed so tests can
  /// pin the scheme; it is load-bearing for reproducibility of archived
  /// results).
  static std::uint64_t trace_seed(std::uint64_t campaign_seed,
                                  std::size_t index) noexcept {
    return core::trace_seed(campaign_seed, index);
  }

private:
  campaign_config config_;
  crypto::aes_key key_;
  /// Shared with the engine's setup, which must not point into *this
  /// (a moved-from campaign would leave it dangling).
  std::shared_ptr<const crypto::aes_program_layout> layout_;
  acquisition_campaign engine_;
};

/// Presents an AES trace campaign as a batched trace_source (labels =
/// the 16 plaintext bytes): the acquisition_source of its engine.  The
/// campaign must outlive the source; each for_each_batch() call runs the
/// campaign once.
class aes_campaign_source final : public acquisition_source {
public:
  explicit aes_campaign_source(trace_campaign& campaign)
      : acquisition_source(campaign.engine()) {}
};

} // namespace usca::core

#endif // USCA_CORE_CAMPAIGN_H
