// The natural log of the Marsaglia-polar radius s = u*u + v*v, in three
// bodies that return the same bits: a scalar one (polar_log), a 4-wide
// AVX2 one (polar_log_x4) and an 8-wide AVX-512 one (polar_log_x8).
// Every Gaussian deviate of the repository goes through one of them —
// xoshiro256::next_gaussian (util/rng.h) and the batch-wide noise kernels
// (power/noise_kernels.h) — so sample bits depend on this code alone, not
// on the host's libm.
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
// EXPERIMENTS.md records a 10^8-input sweep, worst 0.86 ULP).
//
// The FMA and fixed-order rule: every multiply, add and divide rounds on
// its own, in the order written, identically in all three bodies, so the
// three return the same bits.  A fused multiply-add rounds once where the
// bodies round twice, so none may fuse:
//  * the scalar body is defined in polar_log.cpp under
//    USCA_FP_CONTRACT_OFF, so no compiler flag (-mfma, -march=native,
//    aarch64's default contraction) can fuse it;
//  * the AVX2 body compiles under target("avx2"), which has no FMA; a
//    caller that inlines it declares USCA_FP_CONTRACT_OFF too, in case
//    the whole build enables FMA;
//  * the AVX-512 body multiplies and adds through explicit-rounding
//    intrinsics (util/avx512.h), which GCC never fuses.
// The integer steps (exponent, mantissa, the sqrt(2) compare) are exact in
// every width, and k converts to double exactly.
#ifndef USCA_UTIL_POLAR_LOG_H
#define USCA_UTIL_POLAR_LOG_H

#include <cstdint>

#include "util/avx512.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define USCA_HAVE_AVX2_POLAR_LOG 1
#include <immintrin.h>
#endif

/// Placed once at file scope after a source file's includes: no function
/// defined below it contracts a multiply and an add into an FMA, whatever
/// the compiler flags.
#if defined(__clang__)
#define USCA_FP_CONTRACT_OFF _Pragma("clang fp contract(off)")
#elif defined(__GNUC__)
#define USCA_FP_CONTRACT_OFF _Pragma("GCC optimize(\"fp-contract=off\")")
#else
#define USCA_FP_CONTRACT_OFF
#endif

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

/// log(x) for a positive normal double x, the scalar body.  Out of line
/// so it compiles under USCA_FP_CONTRACT_OFF (polar_log.cpp).
double polar_log(double x) noexcept;

#if USCA_HAVE_AVX2_POLAR_LOG

/// polar_log on four lanes, the same bits lane by lane.
__attribute__((target("avx2"), always_inline)) inline __m256d
polar_log_x4(__m256d x) {
  namespace c = polar_log_constants;
  const __m256i bits = _mm256_castpd_si256(x);
  const __m256i mantissa =
      _mm256_and_si256(bits, _mm256_set1_epi64x(c::mantissa_mask));
  const __m256i halve = _mm256_and_si256(
      _mm256_add_epi64(mantissa, _mm256_set1_epi64x(c::sqrt2_carry)),
      _mm256_set1_epi64x(c::exponent_one));
  const __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
      mantissa, _mm256_xor_si256(halve, _mm256_set1_epi64x(c::one_bits))));
  const __m256i biased = _mm256_add_epi64(_mm256_srli_epi64(bits, 52),
                                          _mm256_srli_epi64(halve, 52));
  const __m256d k = _mm256_sub_pd(
      _mm256_castsi256_pd(
          _mm256_or_si256(biased, _mm256_set1_epi64x(c::two52_bits))),
      _mm256_set1_pd(c::two52_plus_bias));

  const __m256d f = _mm256_sub_pd(m, _mm256_set1_pd(1.0));
  const __m256d hfsq =
      _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(0.5), f), f);
  const __m256d s = _mm256_div_pd(f, _mm256_add_pd(_mm256_set1_pd(2.0), f));
  const __m256d z = _mm256_mul_pd(s, s);
  const __m256d z2 = _mm256_mul_pd(z, z);
  const __m256d z4 = _mm256_mul_pd(z2, z2);
  // Estrin's scheme: R = z (low + z4 (high + z4 p910)), with
  // low = p12 + z2 p34, high = p56 + z2 p78 and p_ij = c_i + z c_j.
  const __m256d p12 =
      _mm256_add_pd(_mm256_set1_pd(c::c1),
                    _mm256_mul_pd(z, _mm256_set1_pd(c::c2)));
  const __m256d p34 =
      _mm256_add_pd(_mm256_set1_pd(c::c3),
                    _mm256_mul_pd(z, _mm256_set1_pd(c::c4)));
  const __m256d p56 =
      _mm256_add_pd(_mm256_set1_pd(c::c5),
                    _mm256_mul_pd(z, _mm256_set1_pd(c::c6)));
  const __m256d p78 =
      _mm256_add_pd(_mm256_set1_pd(c::c7),
                    _mm256_mul_pd(z, _mm256_set1_pd(c::c8)));
  const __m256d p910 =
      _mm256_add_pd(_mm256_set1_pd(c::c9),
                    _mm256_mul_pd(z, _mm256_set1_pd(c::c10)));
  const __m256d low = _mm256_add_pd(p12, _mm256_mul_pd(z2, p34));
  const __m256d high = _mm256_add_pd(p56, _mm256_mul_pd(z2, p78));
  const __m256d r = _mm256_mul_pd(
      z, _mm256_add_pd(low, _mm256_mul_pd(
                                z4, _mm256_add_pd(
                                        high, _mm256_mul_pd(z4, p910)))));

  const __m256d tail =
      _mm256_add_pd(_mm256_mul_pd(s, _mm256_add_pd(hfsq, r)),
                    _mm256_mul_pd(k, _mm256_set1_pd(c::ln2_lo)));
  return _mm256_sub_pd(_mm256_mul_pd(k, _mm256_set1_pd(c::ln2_hi)),
                       _mm256_sub_pd(_mm256_sub_pd(hfsq, tail), f));
}

#endif // USCA_HAVE_AVX2_POLAR_LOG

#if USCA_HAVE_AVX512
USCA_AVX512_BODIES_BEGIN

/// polar_log on eight lanes, the same bits lane by lane.
__attribute__((target(USCA_AVX512_TARGET), always_inline)) inline __m512d
polar_log_x8(__m512d x) {
  namespace c = polar_log_constants;
  const __m512i bits = _mm512_castpd_si512(x);
  const __m512i mantissa =
      _mm512_and_si512(bits, _mm512_set1_epi64(c::mantissa_mask));
  const __m512i halve = _mm512_and_si512(
      _mm512_add_epi64(mantissa, _mm512_set1_epi64(c::sqrt2_carry)),
      _mm512_set1_epi64(c::exponent_one));
  const __m512d m = _mm512_castsi512_pd(_mm512_or_si512(
      mantissa, _mm512_xor_si512(halve, _mm512_set1_epi64(c::one_bits))));
  const __m512i biased = _mm512_add_epi64(_mm512_srli_epi64(bits, 52),
                                          _mm512_srli_epi64(halve, 52));
  const __m512d k = sub_x8(
      _mm512_castsi512_pd(
          _mm512_or_si512(biased, _mm512_set1_epi64(c::two52_bits))),
      _mm512_set1_pd(c::two52_plus_bias));

  const __m512d f = sub_x8(m, _mm512_set1_pd(1.0));
  const __m512d hfsq = mul_x8(mul_x8(_mm512_set1_pd(0.5), f), f);
  const __m512d s = _mm512_div_round_pd(
      f, add_x8(_mm512_set1_pd(2.0), f), USCA_AVX512_NEAREST);
  const __m512d z = mul_x8(s, s);
  const __m512d z2 = mul_x8(z, z);
  const __m512d z4 = mul_x8(z2, z2);
  const __m512d p12 =
      add_x8(_mm512_set1_pd(c::c1), mul_x8(z, _mm512_set1_pd(c::c2)));
  const __m512d p34 =
      add_x8(_mm512_set1_pd(c::c3), mul_x8(z, _mm512_set1_pd(c::c4)));
  const __m512d p56 =
      add_x8(_mm512_set1_pd(c::c5), mul_x8(z, _mm512_set1_pd(c::c6)));
  const __m512d p78 =
      add_x8(_mm512_set1_pd(c::c7), mul_x8(z, _mm512_set1_pd(c::c8)));
  const __m512d p910 =
      add_x8(_mm512_set1_pd(c::c9), mul_x8(z, _mm512_set1_pd(c::c10)));
  const __m512d low = add_x8(p12, mul_x8(z2, p34));
  const __m512d high = add_x8(p56, mul_x8(z2, p78));
  const __m512d r =
      mul_x8(z, add_x8(low, mul_x8(z4, add_x8(high, mul_x8(z4, p910)))));

  const __m512d tail = add_x8(mul_x8(s, add_x8(hfsq, r)),
                              mul_x8(k, _mm512_set1_pd(c::ln2_lo)));
  return sub_x8(mul_x8(k, _mm512_set1_pd(c::ln2_hi)),
                sub_x8(sub_x8(hfsq, tail), f));
}

USCA_AVX512_BODIES_END
#endif // USCA_HAVE_AVX512

} // namespace usca::util

#endif // USCA_UTIL_POLAR_LOG_H
