// Batch-wide Gaussian measurement noise behind runtime dispatch.
//
// A fused batch renders one window column per lane, and every lane has
// its own synthesis seed, so its noise is an independent xoshiro256**
// stream.  The kernels draw those streams side by side and add
// `sigma * g` to each lane's clean column, where g is exactly the
// sequence next_gaussian() returns on that lane's freshly seeded
// generator: the same uniforms, the same Marsaglia-polar rejections, the
// same log/divide/sqrt, so every sample is bit-identical to the scalar
// loop whatever kernel runs.  The log is util/polar_log.h's one body in
// every set, at width 1 in the scalar loop and at the group's width in
// the vector sets, with the same bits; no set calls the host's libm.
//
// Three sets; the widest the CPU runs is resolved once at first use,
// like stats::active_kernels():
//
//  * "scalar" — per lane, seed a generator and run the scalar loop
//    (add_gaussian below); the portable path and the oracle;
//  * "avx2" and "avx512" — one body, compiled for four and for eight
//    lanes per group.  The lanes' generator states sit side by side in
//    vectors.  Candidates are accepted branch-free and written to each
//    lane's slot at its own count; a lane that has all its pairs keeps
//    drawing until the slowest lane of its group is done, and that
//    over-drawn state is discarded (every trace reseeds).  The pair loop
//    recomputes s from the accepted (u, v), takes the log at the group's
//    width (util::polar_log_lanes) and its divide and sqrt, all
//    correctly rounded in any width.  Only a few per-width primitives are
//    intrinsics (sqrt, compares, scatters, the clean-row load and
//    u64 -> double); noise_kernels.cpp lists them.
//
// Every multiply, add, divide and sqrt rounds on its own, in the order of
// the scalar loop: the FMA rule of util/polar_log.h, which
// noise_kernels.cpp keeps with USCA_FP_CONTRACT_OFF.
//
// The identity tests compare the sets through scalar_noise_kernels(),
// avx2_noise_kernels() and avx512_noise_kernels().
#ifndef USCA_POWER_NOISE_KERNELS_H
#define USCA_POWER_NOISE_KERNELS_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace usca::power {

/// The scalar noise loop: out[i] = clean[i * stride] + sigma * g_i, with
/// g the next_gaussian() stream of `rng`.  `out` may alias a stride-1
/// `clean`.
inline void add_gaussian(const double* clean, std::size_t stride,
                         std::size_t samples, double sigma,
                         util::xoshiro256& rng, double* out) noexcept {
  for (std::size_t i = 0; i < samples; ++i) {
    out[i] = clean[i * stride] + sigma * rng.next_gaussian();
  }
}

/// One batch-wide noise job: for every lane l set in `lanes`,
/// out[l][i] = clean[i * stride + l] + sigma * g_i for i < samples, with
/// g the next_gaussian() stream of xoshiro256(seeds[l]).
struct noise_columns {
  const double* clean = nullptr;
  std::size_t stride = 0;
  std::size_t samples = 0;
  double sigma = 0.0;
  std::uint64_t lanes = 0;
  const std::uint64_t* seeds = nullptr; ///< indexed by lane
  double* const* out = nullptr;         ///< indexed by lane
};

/// Gaussian work of a job: deviates drawn, and candidate pairs consumed
/// up to each lane's last accepted one (what next_gaussian() draws).
struct noise_work {
  std::uint64_t deviates = 0;
  std::uint64_t candidates = 0;
};

/// Scratch a kernel reuses across jobs (lane-interleaved candidates).
struct noise_workspace {
  std::vector<double> u;
  std::vector<double> v;
};

struct noise_kernels {
  const char* name;
  noise_work (*add_columns)(const noise_columns& job, noise_workspace& ws);
};

/// The portable set: the scalar loop per lane.
const noise_kernels& scalar_noise_kernels() noexcept;

/// The AVX2 set, or nullptr when the build or the CPU lacks AVX2.
const noise_kernels* avx2_noise_kernels() noexcept;

/// The AVX-512 set, or nullptr when the build or the CPU lacks the
/// util/avx512.h feature set.
const noise_kernels* avx512_noise_kernels() noexcept;

/// The runtime-dispatched active set, the widest the CPU runs, resolved
/// once at first use.
const noise_kernels& active_noise_kernels();

} // namespace usca::power

#endif // USCA_POWER_NOISE_KERNELS_H
