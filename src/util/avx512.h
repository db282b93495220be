// The AVX-512 tier of the runtime-dispatched kernel families
// (sim::emit_kernels, power::noise_kernels, stats::batch_kernels): one
// feature set, one target string and one CPU check, so every family
// picks the same tier on a given host.
//
// The tier needs AVX512F, DQ (vcvtuqq2pd), VL (masked 256-bit lane
// loads) and VPOPCNTDQ (vpopcntd).  target("avx512f") enables FMA, and
// GCC then contracts a plain `a * b + c` into one vfmadd, which rounds
// once where the scalar oracles round twice; the AVX-512 bodies therefore
// multiply and add through explicit-rounding intrinsics
// (_mm512_*_round_pd, round to nearest), which GCC never fuses.
#ifndef USCA_UTIL_AVX512_H
#define USCA_UTIL_AVX512_H

#if defined(__x86_64__) && defined(__GNUC__)
#define USCA_HAVE_AVX512 1
#include <immintrin.h>

#define USCA_AVX512_TARGET "avx512f,avx512dq,avx512vl,avx512vpopcntdq"

/// Round to nearest with exceptions suppressed: the rounding of the
/// scalar paths, as an explicit-rounding intrinsic operand.
#define USCA_AVX512_NEAREST (_MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC)

// GCC 12's avx512fintrin.h builds the unmasked shift, rotate, convert
// and _round_ intrinsics on _mm512_undefined_*(), which -Wuninitialized
// flags once they are inlined (GCC PR 105593).  AVX-512 bodies sit
// between these two macros.
#if defined(__clang__)
#define USCA_AVX512_BODIES_BEGIN
#define USCA_AVX512_BODIES_END
#else
#define USCA_AVX512_BODIES_BEGIN                                              \
  _Pragma("GCC diagnostic push")                                              \
      _Pragma("GCC diagnostic ignored \"-Wuninitialized\"")                   \
          _Pragma("GCC diagnostic ignored \"-Wmaybe-uninitialized\"")
#define USCA_AVX512_BODIES_END _Pragma("GCC diagnostic pop")
#endif
#endif

namespace usca::util {

#if USCA_HAVE_AVX512
USCA_AVX512_BODIES_BEGIN

#define USCA_AVX512_HELPER \
  __attribute__((target(USCA_AVX512_TARGET), always_inline)) inline

/// a + b, a - b and a * b on eight doubles, each rounded to nearest on its
/// own: the arithmetic of the AVX-512 bodies, which GCC never fuses.
USCA_AVX512_HELPER __m512d add_x8(__m512d a, __m512d b) {
  return _mm512_add_round_pd(a, b, USCA_AVX512_NEAREST);
}
USCA_AVX512_HELPER __m512d sub_x8(__m512d a, __m512d b) {
  return _mm512_sub_round_pd(a, b, USCA_AVX512_NEAREST);
}
USCA_AVX512_HELPER __m512d mul_x8(__m512d a, __m512d b) {
  return _mm512_mul_round_pd(a, b, USCA_AVX512_NEAREST);
}

#undef USCA_AVX512_HELPER

USCA_AVX512_BODIES_END
#endif

/// True when the build has the AVX-512 bodies and the CPU (and OS) run
/// every feature of USCA_AVX512_TARGET.
inline bool cpu_has_avx512() noexcept {
#if USCA_HAVE_AVX512
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("avx512vpopcntdq");
#else
  return false;
#endif
}

} // namespace usca::util

#endif // USCA_UTIL_AVX512_H
