// Synthetic power-trace generation from micro-architectural activity.
//
// The synthesizer implements the leakage assumption the paper builds on
// (Section 4, citing Mangard & Schramm): gates driving large capacitive
// loads dominate, and their power is proportional to the Hamming distance
// of consecutive values on their outputs.  Every pipeline activity event
// already carries that switching count; the per-cycle power is
//
//     p[c] = baseline + sum_over_events( weight[component] * toggles )
//            + N(0, sigma)  [+ structured OS noise]
//
// Component weights default to the relative magnitudes the paper reports:
// RF read ports do not leak (weight 0, short load), the barrel-shifter
// buffer leaks at ~1/10 of the other sources, memory-path structures leak
// strongest ("store leakage was the highest among the detected ones").
#ifndef USCA_POWER_SYNTHESIZER_H
#define USCA_POWER_SYNTHESIZER_H

#include <array>
#include <cstdint>
#include <memory>

#include "power/noise.h"
#include "power/second_core.h"
#include "power/trace.h"
#include "sim/uarch_activity.h"
#include "util/rng.h"

namespace usca::power {

struct leakage_weights {
  std::array<double, sim::component_count> weight{};

  double operator[](sim::component c) const noexcept {
    return weight[static_cast<std::size_t>(c)];
  }
  double& operator[](sim::component c) noexcept {
    return weight[static_cast<std::size_t>(c)];
  }

  /// Weights matching the relative leakage magnitudes characterized on the
  /// Cortex-A7 (Table 2 and Section 4.1 prose).
  static leakage_weights cortex_a7_like() noexcept;
};

struct synthesis_config {
  leakage_weights weights = leakage_weights::cortex_a7_like();
  double baseline = 5.0;        ///< static power offset
  double gaussian_sigma = 2.0;  ///< measurement noise (bare metal)
  os_noise_config os_noise;     ///< structured environment noise (Linux)
};

class trace_synthesizer {
public:
  trace_synthesizer(synthesis_config config, std::uint64_t seed);

  /// Re-seeds the noise stream in place: afterwards the synthesizer
  /// behaves bit-identically to a freshly constructed
  /// trace_synthesizer(config, seed).  Campaign workers keep one
  /// synthesizer (and its scratch buffer) alive for their whole shard and
  /// reseed it per acquisition.
  void reseed(std::uint64_t seed) noexcept { rng_.seed(seed); }

  /// Renders the power trace of cycles [first_cycle, last_cycle) from an
  /// activity record; one sample per cycle.
  trace synthesize(const sim::activity_trace& activity,
                   std::uint32_t first_cycle, std::uint32_t last_cycle);

  /// Renders the mean of `executions` noisy acquisitions of the same
  /// activity — the paper's "average of 16 executions with the same
  /// input".  The noiseless leakage is identical across executions, so
  /// only the noise is re-drawn.
  trace synthesize_averaged(const sim::activity_trace& activity,
                            std::uint32_t first_cycle,
                            std::uint32_t last_cycle, int executions);

  /// Deterministic noiseless rendering (ground-truth tests).
  trace synthesize_clean(const sim::activity_trace& activity,
                         std::uint32_t first_cycle,
                         std::uint32_t last_cycle) const;

  util::xoshiro256& rng() noexcept { return rng_; }
  const synthesis_config& config() const noexcept { return config_; }

  /// Attaches a simulated interfering core: every noisy acquisition adds a
  /// random-phase window of its activity (the unsynchronized second core
  /// of the Figure-4 environment, simulated rather than synthetic).
  void attach_second_core(std::shared_ptr<const second_core_noise> core) {
    second_core_ = std::move(core);
  }

private:
  void synthesize_clean_into(trace& out, const sim::activity_trace& activity,
                             std::uint32_t first_cycle,
                             std::uint32_t last_cycle) const;
  /// One noisy acquisition's worth of noise (Gaussian + OS + second core)
  /// on top of a clean trace, shared by the synthesize() overloads.
  void apply_noise(trace& out);

  synthesis_config config_;
  util::xoshiro256 rng_;
  std::shared_ptr<const second_core_noise> second_core_;
  trace scratch_; ///< reused clean-trace buffer for the averaged path
};

} // namespace usca::power

#endif // USCA_POWER_SYNTHESIZER_H
