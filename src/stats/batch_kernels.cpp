#include "stats/batch_kernels.h"

#include <cstddef>

#include "util/avx512.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define USCA_HAVE_AVX2_KERNELS 1
#include <immintrin.h>
#endif

#if defined(__aarch64__)
#define USCA_HAVE_NEON_KERNELS 1
#include <arm_neon.h>
#endif

namespace usca::stats {

namespace {

// ------------------------------------------------------------- generic

void generic_cpa_accumulate(double* sum, double* sum_sq, double* part_base,
                            std::size_t part_stride,
                            const std::uint8_t* partitions,
                            const double* samples,
                            std::size_t sample_stride, std::size_t rows,
                            std::size_t n) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* __restrict t = samples + r * sample_stride;
    double* __restrict part =
        part_base + static_cast<std::size_t>(partitions[r]) * part_stride;
    double* __restrict s = sum;
    double* __restrict ss = sum_sq;
    for (std::size_t i = 0; i < n; ++i) {
      const double v = t[i];
      s[i] += v;
      ss[i] += v * v;
      part[i] += v;
    }
  }
}

void generic_tvla_accumulate(double* sum, double* sum_sq,
                             const double* center,
                             const double* const* rows, std::size_t nrows,
                             std::size_t n) {
  for (std::size_t r = 0; r < nrows; ++r) {
    const double* __restrict t = rows[r];
    const double* __restrict c = center;
    double* __restrict s = sum;
    double* __restrict ss = sum_sq;
    for (std::size_t i = 0; i < n; ++i) {
      const double dx = t[i] - c[i];
      s[i] += dx;
      ss[i] += dx * dx;
    }
  }
}

void generic_solve_accumulate(double* acc, const double* hyp,
                              const double* part_base,
                              std::size_t part_stride,
                              const std::uint64_t* part_n,
                              std::size_t partitions, std::size_t n) {
  for (std::size_t p = 0; p < partitions; ++p) {
    if (part_n[p] == 0) {
      continue;
    }
    const double h = hyp[p];
    const double* __restrict row = part_base + p * part_stride;
    double* __restrict a = acc;
    for (std::size_t i = 0; i < n; ++i) {
      a[i] += h * row[i];
    }
  }
}

constexpr batch_kernels generic_set = {
    "generic",
    generic_cpa_accumulate,
    generic_tvla_accumulate,
    generic_solve_accumulate,
};

// ---------------------------------------------------------------- avx2
//
// The vector bodies perform exactly the scalar per-element operation
// sequence (separate vmulpd/vaddpd — never FMA, which rounds once where
// the scalar path rounds twice), so results are bit-identical to the
// generic set; the win is the guaranteed 4-wide body over streams the
// caller's 256-sample blocking keeps L1-resident, independent of what
// the baseline-ISA auto-vectorizer managed.

#if USCA_HAVE_AVX2_KERNELS

__attribute__((target("avx2"))) void
avx2_cpa_accumulate(double* sum, double* sum_sq, double* part_base,
                    std::size_t part_stride,
                    const std::uint8_t* partitions, const double* samples,
                    std::size_t sample_stride, std::size_t rows,
                    std::size_t n) {
  // Rows outer: every stream (trace row, sum/sum_sq block, the row's
  // partition stripe) is walked contiguously — the caller's 256-sample
  // blocking keeps sum/sum_sq L1-resident across the whole row loop —
  // and the 4-wide vector body doubles the baseline-ISA throughput.
  for (std::size_t r = 0; r < rows; ++r) {
    const double* t = samples + r * sample_stride;
    double* part =
        part_base + static_cast<std::size_t>(partitions[r]) * part_stride;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256d v0 = _mm256_loadu_pd(t + i);
      const __m256d v1 = _mm256_loadu_pd(t + i + 4);
      _mm256_storeu_pd(sum + i,
                       _mm256_add_pd(_mm256_loadu_pd(sum + i), v0));
      _mm256_storeu_pd(sum + i + 4,
                       _mm256_add_pd(_mm256_loadu_pd(sum + i + 4), v1));
      _mm256_storeu_pd(sum_sq + i,
                       _mm256_add_pd(_mm256_loadu_pd(sum_sq + i),
                                     _mm256_mul_pd(v0, v0)));
      _mm256_storeu_pd(sum_sq + i + 4,
                       _mm256_add_pd(_mm256_loadu_pd(sum_sq + i + 4),
                                     _mm256_mul_pd(v1, v1)));
      _mm256_storeu_pd(part + i,
                       _mm256_add_pd(_mm256_loadu_pd(part + i), v0));
      _mm256_storeu_pd(part + i + 4,
                       _mm256_add_pd(_mm256_loadu_pd(part + i + 4), v1));
    }
    for (; i < n; ++i) {
      const double v = t[i];
      sum[i] += v;
      sum_sq[i] += v * v;
      part[i] += v;
    }
  }
}

__attribute__((target("avx2"))) void
avx2_tvla_accumulate(double* sum, double* sum_sq, const double* center,
                     const double* const* rows, std::size_t nrows,
                     std::size_t n) {
  for (std::size_t r = 0; r < nrows; ++r) {
    const double* t = rows[r];
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(t + i),
                                       _mm256_loadu_pd(center + i));
      const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(t + i + 4),
                                       _mm256_loadu_pd(center + i + 4));
      _mm256_storeu_pd(sum + i,
                       _mm256_add_pd(_mm256_loadu_pd(sum + i), d0));
      _mm256_storeu_pd(sum + i + 4,
                       _mm256_add_pd(_mm256_loadu_pd(sum + i + 4), d1));
      _mm256_storeu_pd(sum_sq + i,
                       _mm256_add_pd(_mm256_loadu_pd(sum_sq + i),
                                     _mm256_mul_pd(d0, d0)));
      _mm256_storeu_pd(sum_sq + i + 4,
                       _mm256_add_pd(_mm256_loadu_pd(sum_sq + i + 4),
                                     _mm256_mul_pd(d1, d1)));
    }
    for (; i < n; ++i) {
      const double dx = t[i] - center[i];
      sum[i] += dx;
      sum_sq[i] += dx * dx;
    }
  }
}

__attribute__((target("avx2"))) void
avx2_solve_accumulate(double* acc, const double* hyp,
                      const double* part_base, std::size_t part_stride,
                      const std::uint64_t* part_n, std::size_t partitions,
                      std::size_t n) {
  // Partitions outer, matching the scalar loop: the acc block stays
  // L1-resident while each partition row streams past contiguously.
  for (std::size_t p = 0; p < partitions; ++p) {
    if (part_n[p] == 0) {
      continue;
    }
    const __m256d h = _mm256_set1_pd(hyp[p]);
    const double* row = part_base + p * part_stride;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_pd(
          acc + i, _mm256_add_pd(_mm256_loadu_pd(acc + i),
                                 _mm256_mul_pd(h, _mm256_loadu_pd(row + i))));
      _mm256_storeu_pd(
          acc + i + 4,
          _mm256_add_pd(_mm256_loadu_pd(acc + i + 4),
                        _mm256_mul_pd(h, _mm256_loadu_pd(row + i + 4))));
    }
    for (; i < n; ++i) {
      acc[i] += hyp[p] * row[i];
    }
  }
}

constexpr batch_kernels avx2_set = {
    "avx2",
    avx2_cpa_accumulate,
    avx2_tvla_accumulate,
    avx2_solve_accumulate,
};

#endif // USCA_HAVE_AVX2_KERNELS

// -------------------------------------------------------------- avx512
//
// An 8-wide cpa_accumulate, the kernel of the live campaign path; tvla
// and solve keep their AVX2 bodies.  target("avx512f") enables FMA, so
// `sum_sq + v * v` goes through explicit-rounding intrinsics, which GCC
// never fuses (util/avx512.h): still two roundings, as in the generic
// set.  The last n % 8 samples take the same step under a lane mask.

#if USCA_HAVE_AVX512
USCA_AVX512_BODIES_BEGIN

[[gnu::always_inline]] __attribute__((target(USCA_AVX512_TARGET))) inline void
cpa_step_x8(double* sum, double* sum_sq, double* part, const double* t,
            __mmask8 lanes) {
  const __m512d v = _mm512_maskz_loadu_pd(lanes, t);
  _mm512_mask_storeu_pd(
      sum, lanes, _mm512_add_pd(_mm512_maskz_loadu_pd(lanes, sum), v));
  _mm512_mask_storeu_pd(
      sum_sq, lanes,
      _mm512_add_round_pd(_mm512_maskz_loadu_pd(lanes, sum_sq),
                          _mm512_mul_round_pd(v, v, USCA_AVX512_NEAREST),
                          USCA_AVX512_NEAREST));
  _mm512_mask_storeu_pd(
      part, lanes, _mm512_add_pd(_mm512_maskz_loadu_pd(lanes, part), v));
}

__attribute__((target(USCA_AVX512_TARGET))) void
avx512_cpa_accumulate(double* sum, double* sum_sq, double* part_base,
                      std::size_t part_stride,
                      const std::uint8_t* partitions, const double* samples,
                      std::size_t sample_stride, std::size_t rows,
                      std::size_t n) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* t = samples + r * sample_stride;
    double* part =
        part_base + static_cast<std::size_t>(partitions[r]) * part_stride;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      cpa_step_x8(sum + i, sum_sq + i, part + i, t + i, 0xff);
    }
    if (i < n) {
      cpa_step_x8(sum + i, sum_sq + i, part + i, t + i,
                  static_cast<__mmask8>((1U << (n - i)) - 1));
    }
  }
}

USCA_AVX512_BODIES_END

constexpr batch_kernels avx512_set = {
    "avx512",
    avx512_cpa_accumulate,
    avx2_tvla_accumulate,
    avx2_solve_accumulate,
};

#endif // USCA_HAVE_AVX512

// ---------------------------------------------------------------- neon
//
// AdvSIMD is baseline on AArch64, so no runtime CPU check is needed —
// availability is a build-target question.  Same contract as the AVX2
// set: the 2-wide f64 bodies perform the scalar per-element operation
// sequence with separate vmulq/vaddq (never vfmaq — an FMA rounds once
// where the scalar path rounds twice), so results stay bit-identical to
// the generic set at every batch size.

#if USCA_HAVE_NEON_KERNELS

void neon_cpa_accumulate(double* sum, double* sum_sq, double* part_base,
                         std::size_t part_stride,
                         const std::uint8_t* partitions,
                         const double* samples, std::size_t sample_stride,
                         std::size_t rows, std::size_t n) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* t = samples + r * sample_stride;
    double* part =
        part_base + static_cast<std::size_t>(partitions[r]) * part_stride;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const float64x2_t v0 = vld1q_f64(t + i);
      const float64x2_t v1 = vld1q_f64(t + i + 2);
      vst1q_f64(sum + i, vaddq_f64(vld1q_f64(sum + i), v0));
      vst1q_f64(sum + i + 2, vaddq_f64(vld1q_f64(sum + i + 2), v1));
      vst1q_f64(sum_sq + i,
                vaddq_f64(vld1q_f64(sum_sq + i), vmulq_f64(v0, v0)));
      vst1q_f64(sum_sq + i + 2,
                vaddq_f64(vld1q_f64(sum_sq + i + 2), vmulq_f64(v1, v1)));
      vst1q_f64(part + i, vaddq_f64(vld1q_f64(part + i), v0));
      vst1q_f64(part + i + 2, vaddq_f64(vld1q_f64(part + i + 2), v1));
    }
    for (; i < n; ++i) {
      const double v = t[i];
      sum[i] += v;
      sum_sq[i] += v * v;
      part[i] += v;
    }
  }
}

void neon_tvla_accumulate(double* sum, double* sum_sq, const double* center,
                          const double* const* rows, std::size_t nrows,
                          std::size_t n) {
  for (std::size_t r = 0; r < nrows; ++r) {
    const double* t = rows[r];
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const float64x2_t d0 =
          vsubq_f64(vld1q_f64(t + i), vld1q_f64(center + i));
      const float64x2_t d1 =
          vsubq_f64(vld1q_f64(t + i + 2), vld1q_f64(center + i + 2));
      vst1q_f64(sum + i, vaddq_f64(vld1q_f64(sum + i), d0));
      vst1q_f64(sum + i + 2, vaddq_f64(vld1q_f64(sum + i + 2), d1));
      vst1q_f64(sum_sq + i,
                vaddq_f64(vld1q_f64(sum_sq + i), vmulq_f64(d0, d0)));
      vst1q_f64(sum_sq + i + 2,
                vaddq_f64(vld1q_f64(sum_sq + i + 2), vmulq_f64(d1, d1)));
    }
    for (; i < n; ++i) {
      const double dx = t[i] - center[i];
      sum[i] += dx;
      sum_sq[i] += dx * dx;
    }
  }
}

void neon_solve_accumulate(double* acc, const double* hyp,
                           const double* part_base, std::size_t part_stride,
                           const std::uint64_t* part_n,
                           std::size_t partitions, std::size_t n) {
  for (std::size_t p = 0; p < partitions; ++p) {
    if (part_n[p] == 0) {
      continue;
    }
    const float64x2_t h = vdupq_n_f64(hyp[p]);
    const double* row = part_base + p * part_stride;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      vst1q_f64(acc + i, vaddq_f64(vld1q_f64(acc + i),
                                   vmulq_f64(h, vld1q_f64(row + i))));
      vst1q_f64(acc + i + 2,
                vaddq_f64(vld1q_f64(acc + i + 2),
                          vmulq_f64(h, vld1q_f64(row + i + 2))));
    }
    for (; i < n; ++i) {
      acc[i] += hyp[p] * row[i];
    }
  }
}

constexpr batch_kernels neon_set = {
    "neon",
    neon_cpa_accumulate,
    neon_tvla_accumulate,
    neon_solve_accumulate,
};

#endif // USCA_HAVE_NEON_KERNELS

const batch_kernels* auto_kernels() noexcept {
#if USCA_HAVE_AVX512
  if (util::cpu_has_avx512()) {
    return &avx512_set;
  }
#endif
#if USCA_HAVE_AVX2_KERNELS
  if (__builtin_cpu_supports("avx2")) {
    return &avx2_set;
  }
#endif
#if USCA_HAVE_NEON_KERNELS
  return &neon_set;
#else
  return &generic_set;
#endif
}

} // namespace

const batch_kernels& generic_kernels() noexcept { return generic_set; }

const batch_kernels* avx2_kernels() noexcept {
#if USCA_HAVE_AVX2_KERNELS
  return __builtin_cpu_supports("avx2") ? &avx2_set : nullptr;
#else
  return nullptr;
#endif
}

const batch_kernels* avx512_kernels() noexcept {
#if USCA_HAVE_AVX512
  return util::cpu_has_avx512() ? &avx512_set : nullptr;
#else
  return nullptr;
#endif
}

const batch_kernels* neon_kernels() noexcept {
#if USCA_HAVE_NEON_KERNELS
  return &neon_set;
#else
  return nullptr;
#endif
}

const batch_kernels& active_kernels() {
  static const batch_kernels* const active = auto_kernels();
  return *active;
}

} // namespace usca::stats
