// The natural log of the Marsaglia-polar radius s = u*u + v*v, written
// once: polar_log_lanes, a template over the lane type — double, or a GCC
// vector of 4 or 8 doubles.  Every instance returns the same bits lane by
// lane, whatever its width and target.  The named instances are
// polar_log (scalar), polar_log_x4 (AVX2) and polar_log_x8 (AVX-512); the
// batch-wide noise kernels (power/noise_kernels.h) instantiate the
// template at their own width.  Every Gaussian deviate of the repository
// goes through it — xoshiro256::next_gaussian (util/rng.h) included — so
// sample bits depend on this code alone, not on the host's libm.
//
// The reduction, for a positive normal double x (every polar s is one: it
// lies in [2^-104, 1 - 2^-53]):
//
//   x = 2^k * m with m in [sqrt(2)/2, sqrt(2)), k and m from the exponent
//   and mantissa bits (the mantissa is compared with sqrt(2)'s, and m is
//   halved and k raised by one when it is not below);
//   f = m - 1 (exact), s = f / (2 + f), z = s * s;
//   log(m) = 2 atanh(s) = f - hfsq + s * (hfsq + R), hfsq = f * f / 2,
//   R = sum over i = 1..10 of 2/(2i + 1) * z^i (the exact Taylor
//   coefficients, rounded once to double; z < 0.0295, so the first
//   omitted term is below 2^-60 of the result), evaluated by Estrin's
//   scheme in z, z^2 and z^4;
//   log(x) = k * ln2_hi - ((hfsq - (s * (hfsq + R) + k * ln2_lo)) - f),
//   ln2 split so that k * ln2_hi is exact.
//
// (This s is fdlibm's name, not the polar radius, which is x here.)  No
// table.  Over the polar inputs the result is within 1 ULP of log(x)
// (tests/util/polar_log_test.cpp measures it against libquadmath's logq;
// EXPERIMENTS.md records a 10^8-input sweep, worst 0.86 ULP).  The integer
// steps (exponent, mantissa, the sqrt(2) compare) are exact in every
// width, and k converts to double exactly.
#ifndef USCA_UTIL_POLAR_LOG_H
#define USCA_UTIL_POLAR_LOG_H

#include <cstdint>

#include "util/avx512.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define USCA_HAVE_AVX2_POLAR_LOG 1
#include <immintrin.h>
#endif

// The FMA rule, for every dispatched kernel family (this log, the noise
// in power/noise_kernels.h, the CPA/TVLA accumulators in
// stats/batch_kernels.h, emission in sim/batch_sim.h): every multiply,
// add, divide and sqrt rounds on its own, in the order written, so every
// width and target returns the bits of the scalar path.  A fused
// multiply-add rounds once where the source rounds twice, and GCC
// contracts a plain `a + b * c` into one wherever the target has FMA
// (AVX-512, "avx2,fma", AArch64) unless contraction is off for the
// function the arithmetic ends up in — even under -std=c++20.  Hence:
//  * every source file that instantiates the log, noise or accumulator
//    bodies puts USCA_FP_CONTRACT_OFF after its includes.  An
//    always_inline body takes the contraction setting of the function it
//    is inlined into, so no header can protect it;
//  * the named polar_log instances are defined inside this header's own
//    contraction-off region (USCA_POLAR_LOG_INSTANCE) and are not
//    always_inline: GCC keeps a function with its own optimization
//    options out of a caller whose options differ, so an instance stays
//    unfused even where the caller's file is built with contraction on
//    (tests/util/polar_log_contraction_test.cpp is built with
//    -ffp-contract=fast to check it);
//  * the top-level CMakeLists adds -ffp-contract=off as well, but
//    perfbench builds src/ with its own flags, so the pragma is what holds
//    there.
// Emission (sim/batch_sim.cpp) is outside the pragma: its plain body
// compiles for the baseline and AVX2, which have no FMA on x86-64, and
// its AVX-512 body, the one kernel still written in intrinsics,
// multiplies and adds through explicit-rounding ones (_mm512_*_round_pd),
// which GCC never fuses.
//
// Vectors never cross a target boundary by value.  A default-target
// function and a target("avx2") one pass and return a 32-byte vector in
// different places, so the callee reads garbage — at -O0, where only
// always_inline functions inline, this is a crash.  Vector bodies are
// therefore always_inline, or compiled under their caller's target, and
// the integer views below use __builtin_bit_cast, which is no call,
// rather than std::bit_cast, which is one at -O0.

/// Placed once at file scope after a source file's includes: no function
/// defined below it contracts a multiply and an add into an FMA, whatever
/// the compiler flags.
#if defined(__clang__)
#define USCA_FP_CONTRACT_OFF _Pragma("clang fp contract(off)")
#define USCA_FP_CONTRACT_OFF_BEGIN                                            \
  _Pragma("float_control(push)") _Pragma("clang fp contract(off)")
#define USCA_FP_CONTRACT_OFF_END _Pragma("float_control(pop)")
#elif defined(__GNUC__)
#define USCA_FP_CONTRACT_OFF _Pragma("GCC optimize(\"fp-contract=off\")")
#define USCA_FP_CONTRACT_OFF_BEGIN                                            \
  _Pragma("GCC push_options") USCA_FP_CONTRACT_OFF
#define USCA_FP_CONTRACT_OFF_END _Pragma("GCC pop_options")
#else
#define USCA_FP_CONTRACT_OFF
#define USCA_FP_CONTRACT_OFF_BEGIN
#define USCA_FP_CONTRACT_OFF_END
#endif
// USCA_FP_CONTRACT_OFF_BEGIN / _END: the same, for the functions between
// them only (a header's region).

namespace usca::util {

namespace polar_log_constants {

inline constexpr std::int64_t mantissa_mask = 0x000fffffffffffffLL;
inline constexpr std::int64_t exponent_one = 0x0010000000000000LL;
/// The exponent bits of 1.0.
inline constexpr std::int64_t one_bits = 0x3ff0000000000000LL;
/// Added to a mantissa, carries into the exponent bit exactly when the
/// mantissa is at least that of sqrt(2) (0x6a09e667f3bcd).
inline constexpr std::int64_t sqrt2_carry = 0x00095f619980c433LL;
/// The bits of 2^52: OR-ed onto an integer below 2^52 they give the
/// double 2^52 + that integer.
inline constexpr std::int64_t two52_bits = 0x4330000000000000LL;
/// Subtracted from 2^52 + biased exponent, leaves the unbiased one.
inline constexpr double two52_plus_bias = 0x1.0p52 + 1023.0;

/// ln 2 = ln2_hi + ln2_lo: ln2_hi keeps 32 significant bits, so k * ln2_hi
/// is exact for every exponent k; ln2_lo is the rest, rounded.
inline constexpr double ln2_hi = 0x1.62e42fee00000p-1;
inline constexpr double ln2_lo = 0x1.a39ef35793c76p-33;

/// 2/(2i + 1), the Taylor coefficients of 2 atanh(s) / s in z = s^2.
inline constexpr double c1 = 2.0 / 3.0;
inline constexpr double c2 = 2.0 / 5.0;
inline constexpr double c3 = 2.0 / 7.0;
inline constexpr double c4 = 2.0 / 9.0;
inline constexpr double c5 = 2.0 / 11.0;
inline constexpr double c6 = 2.0 / 13.0;
inline constexpr double c7 = 2.0 / 15.0;
inline constexpr double c8 = 2.0 / 17.0;
inline constexpr double c9 = 2.0 / 19.0;
inline constexpr double c10 = 2.0 / 21.0;

} // namespace polar_log_constants

/// The 64-bit unsigned integer lanes of V (unsigned, so that `>>` is the
/// logical shift every ISA has).
template <class V> struct polar_log_int {
  typedef std::uint64_t type __attribute__((vector_size(sizeof(V))));
};
template <> struct polar_log_int<double> {
  using type = std::uint64_t;
};

USCA_FP_CONTRACT_OFF_BEGIN

/// log = log(x) on every lane of V, each a positive normal double: the one
/// body.  Its instances are the functions it is inlined into, compiled for
/// their targets; the file holding one is under USCA_FP_CONTRACT_OFF.
/// Vectors pass by reference, so that no default-target function takes or
/// returns one by value (GCC warns about such an ABI, -Wpsabi, even for a
/// body that is always inlined).
template <class V>
[[gnu::always_inline]] inline void polar_log_lanes(const V& x,
                                                   V& log) noexcept {
  namespace c = polar_log_constants;
  using I = typename polar_log_int<V>::type;
  const I bits = __builtin_bit_cast(I, x);
  const I mantissa = bits & c::mantissa_mask;
  const I halve = (mantissa + c::sqrt2_carry) & c::exponent_one;
  const V m = __builtin_bit_cast(V, mantissa | (halve ^ c::one_bits));
  const I biased = (bits >> 52) + (halve >> 52);
  const V k = __builtin_bit_cast(V, biased | c::two52_bits) -
              c::two52_plus_bias;

  const V f = m - 1.0;
  const V hfsq = 0.5 * f * f;
  const V s = f / (2.0 + f);
  const V z = s * s;
  const V z2 = z * z;
  const V z4 = z2 * z2;
  // Estrin's scheme: R = z (low + z4 (high + z4 p910)), with
  // low = p12 + z2 p34, high = p56 + z2 p78 and p_ij = c_i + z c_j.
  const V p12 = c::c1 + z * c::c2;
  const V p34 = c::c3 + z * c::c4;
  const V p56 = c::c5 + z * c::c6;
  const V p78 = c::c7 + z * c::c8;
  const V p910 = c::c9 + z * c::c10;
  const V low = p12 + z2 * p34;
  const V high = p56 + z2 * p78;
  const V r = z * (low + z4 * (high + z4 * p910));

  const V tail = s * (hfsq + r) + k * c::ln2_lo;
  log = k * c::ln2_hi - ((hfsq - tail) - f);
}

USCA_FP_CONTRACT_OFF_END

/// Defines `inline V name(V x) noexcept`, polar_log_lanes on the lanes of
/// V, with the attributes given after V (a target, or none), inside a
/// contraction-off region of its own.
#define USCA_POLAR_LOG_INSTANCE(name, V, ...)                                 \
  USCA_FP_CONTRACT_OFF_BEGIN                                                  \
  __VA_ARGS__ inline V name(V x) noexcept {                                   \
    V log;                                                                    \
    ::usca::util::polar_log_lanes(x, log);                                    \
    return log;                                                               \
  }                                                                           \
  USCA_FP_CONTRACT_OFF_END

/// log(x) for a positive normal double x.
USCA_POLAR_LOG_INSTANCE(polar_log, double, )

#if USCA_HAVE_AVX2_POLAR_LOG
/// polar_log on four lanes.
USCA_POLAR_LOG_INSTANCE(polar_log_x4, __m256d,
                        __attribute__((target("avx2"))))
#endif

#if USCA_HAVE_AVX512
/// polar_log on eight lanes.
USCA_POLAR_LOG_INSTANCE(polar_log_x8, __m512d,
                        __attribute__((target(USCA_AVX512_TARGET))))
#endif

} // namespace usca::util

#endif // USCA_UTIL_POLAR_LOG_H
