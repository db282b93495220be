// The AVX-512 tier of the runtime-dispatched kernel families
// (sim::emit_kernels, power::noise_kernels, stats::batch_kernels): one
// feature set, one target string and one CPU check, so every family
// picks the same tier on a given host.
//
// The tier needs AVX512F, DQ (vcvtuqq2pd), VL (masked 256-bit lane
// loads) and VPOPCNTDQ (vpopcntd).  target("avx512f") enables FMA, so a
// body compiled for it rounds as its source says only under the FMA rule
// of util/polar_log.h.
#ifndef USCA_UTIL_AVX512_H
#define USCA_UTIL_AVX512_H

#if defined(__x86_64__) && defined(__GNUC__)
#define USCA_HAVE_AVX512 1
#include <immintrin.h>

#define USCA_AVX512_TARGET "avx512f,avx512dq,avx512vl,avx512vpopcntdq"

/// Round to nearest with exceptions suppressed: the rounding of the
/// scalar paths, as the operand of an explicit-rounding intrinsic
/// (emission's AVX-512 body, sim/batch_sim.cpp).
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
