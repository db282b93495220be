// Deterministic pseudo-random number generation for reproducible experiments.
//
// Every experiment in this repository (trace synthesis, plaintext draws,
// noise processes) is seeded explicitly so that benchmark output is
// bit-reproducible across runs.  The generator is xoshiro256**, which is
// fast, has a 256-bit state, and passes BigCrush; it is *not* suitable for
// cryptographic purposes (the AES key schedule in src/crypto never uses it
// for secret material in tests that check vectors).
#ifndef USCA_UTIL_RNG_H
#define USCA_UTIL_RNG_H

#include <array>
#include <cstdint>
#include <limits>

namespace usca::util {

/// xoshiro256** by Blackman & Vigna (public domain algorithm, re-implemented).
/// Satisfies the C++ UniformRandomBitGenerator requirements so it can be
/// used with <random> distributions when convenient.
class xoshiro256 {
public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from a single 64-bit seed via splitmix64,
  /// which guarantees a non-zero, well-mixed initial state.
  explicit xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Re-seeds in place; afterwards the generator is indistinguishable from
  /// a freshly constructed xoshiro256(seed) (the cached Gaussian deviate
  /// is discarded too).  Lets long-lived campaign workers reuse one
  /// generator across per-index seeded acquisitions.
  void seed(std::uint64_t seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next 64 uniformly distributed bits.
  result_type operator()() noexcept;

  /// Uniform 32-bit draw (upper half of the 64-bit output, which has the
  /// best statistical quality in xoshiro256**).
  std::uint32_t next_u32() noexcept {
    return static_cast<std::uint32_t>(operator()() >> 32);
  }

  /// Uniform byte draw.
  std::uint8_t next_u8() noexcept {
    return static_cast<std::uint8_t>(operator()() >> 56);
  }

  /// Uniform draw in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t bounded(std::uint64_t bound) noexcept;

  /// Standard uniform real in [0, 1).
  double next_double() noexcept;

  /// Standard normal deviate (Marsaglia polar method, cached pair).
  ///
  /// u = 2 next_double() - 1 and v likewise until s = u*u + v*v lies in
  /// (0, 1); then u * f and v * f with f = sqrt(-2 log(s) / s), the log
  /// being util::polar_log (util/polar_log.h), not the host's libm.  The
  /// FMA and fixed-order rule: every multiply, add, divide and sqrt rounds
  /// on its own, in this order (rng.cpp compiles under
  /// USCA_FP_CONTRACT_OFF), so the batch-wide noise kernels
  /// (power/noise_kernels.h) reproduce the stream bit for bit and the
  /// deviates are the same on every host.
  double next_gaussian() noexcept;

  /// Gaussian work since the last seed(): deviates next_gaussian()
  /// returned, and (u, v) candidate pairs its rejection loop drew.  Pure
  /// tallies for the noise layer's work counters; they never influence a
  /// draw.
  std::uint64_t gaussian_deviates() const noexcept {
    return gaussian_deviates_;
  }
  std::uint64_t gaussian_candidates() const noexcept {
    return gaussian_candidates_;
  }

  /// The four state words, for kernels that step several generators side
  /// by side (power/noise_kernels.h).
  const std::array<std::uint64_t, 4>& state() const noexcept {
    return state_;
  }

private:
  std::array<std::uint64_t, 4> state_{};
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
  std::uint64_t gaussian_deviates_ = 0;
  std::uint64_t gaussian_candidates_ = 0;
};

/// splitmix64 step; exposed because seeding schemes in tests use it.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

} // namespace usca::util

#endif // USCA_UTIL_RNG_H
