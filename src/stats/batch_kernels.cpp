#include "stats/batch_kernels.h"

#include <cstddef>

#include "util/avx512.h"
#include "util/polar_log.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define USCA_HAVE_AVX2_KERNELS 1
#endif

#if defined(__aarch64__)
#define USCA_HAVE_NEON_KERNELS 1
#endif

USCA_FP_CONTRACT_OFF

namespace usca::stats {

namespace {

// The one body of each kernel: plain loops over the batch_kernels
// contracts, inlined into every set below, so each set compiles them for
// its own ISA and the compiler vectorises them to its width.  Rows (and
// partitions) stay the outer loop: every stream is walked contiguously,
// and the caller's 256-sample blocking keeps sum/sum_sq L1-resident
// across it.  The per-row loops take their streams as __restrict
// parameters, which GCC keeps through inlining; restrict-qualified
// locals alone still drew a runtime overlap check per row.

[[gnu::always_inline]] inline void
cpa_row(double* __restrict sum, double* __restrict sum_sq,
        double* __restrict part, const double* __restrict t, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double v = t[i];
    sum[i] += v;
    sum_sq[i] += v * v;
    part[i] += v;
  }
}

[[gnu::always_inline]] inline void
cpa_accumulate(double* sum, double* sum_sq, double* part_base,
               std::size_t part_stride, const std::uint8_t* partitions,
               const double* samples, std::size_t sample_stride,
               std::size_t rows, std::size_t n) {
  for (std::size_t r = 0; r < rows; ++r) {
    cpa_row(sum, sum_sq,
            part_base + static_cast<std::size_t>(partitions[r]) * part_stride,
            samples + r * sample_stride, n);
  }
}

[[gnu::always_inline]] inline void
tvla_row(double* __restrict sum, double* __restrict sum_sq,
         const double* __restrict center, const double* __restrict t,
         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = t[i] - center[i];
    sum[i] += dx;
    sum_sq[i] += dx * dx;
  }
}

[[gnu::always_inline]] inline void
tvla_accumulate(double* sum, double* sum_sq, const double* center,
                const double* const* rows, std::size_t nrows,
                std::size_t n) {
  for (std::size_t r = 0; r < nrows; ++r) {
    tvla_row(sum, sum_sq, center, rows[r], n);
  }
}

[[gnu::always_inline]] inline void
solve_row(double* __restrict acc, double h, const double* __restrict row,
          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    acc[i] += h * row[i];
  }
}

[[gnu::always_inline]] inline void
solve_accumulate(double* acc, const double* hyp, const double* part_base,
                 std::size_t part_stride, const std::uint64_t* part_n,
                 std::size_t partitions, std::size_t n) {
  for (std::size_t p = 0; p < partitions; ++p) {
    if (part_n[p] != 0) {
      solve_row(acc, hyp[p], part_base + p * part_stride, n);
    }
  }
}

/// Defines the kernel set `set`, named `name`: the three bodies above,
/// compiled with the attributes after the name (a target, or none).
#define USCA_BATCH_KERNEL_SET(set, name, ...)                                 \
  __VA_ARGS__ void set##_cpa(double* sum, double* sum_sq, double* part_base, \
                             std::size_t part_stride,                         \
                             const std::uint8_t* partitions,                  \
                             const double* samples,                           \
                             std::size_t sample_stride, std::size_t rows,     \
                             std::size_t n) {                                 \
    cpa_accumulate(sum, sum_sq, part_base, part_stride, partitions, samples,  \
                   sample_stride, rows, n);                                   \
  }                                                                           \
  __VA_ARGS__ void set##_tvla(double* sum, double* sum_sq,                    \
                              const double* center,                           \
                              const double* const* rows, std::size_t nrows,   \
                              std::size_t n) {                                \
    tvla_accumulate(sum, sum_sq, center, rows, nrows, n);                     \
  }                                                                           \
  __VA_ARGS__ void set##_solve(double* acc, const double* hyp,                \
                               const double* part_base,                       \
                               std::size_t part_stride,                       \
                               const std::uint64_t* part_n,                   \
                               std::size_t partitions, std::size_t n) {       \
    solve_accumulate(acc, hyp, part_base, part_stride, part_n, partitions,    \
                     n);                                                      \
  }                                                                           \
  constexpr batch_kernels set = {name, set##_cpa, set##_tvla, set##_solve};

USCA_BATCH_KERNEL_SET(generic_set, "generic", )

#if USCA_HAVE_AVX2_KERNELS
USCA_BATCH_KERNEL_SET(avx2_set, "avx2", __attribute__((target("avx2"))))
#endif

#if USCA_HAVE_AVX512
USCA_BATCH_KERNEL_SET(avx512_set, "avx512",
                      __attribute__((target(USCA_AVX512_TARGET))))
#endif

#undef USCA_BATCH_KERNEL_SET

// AdvSIMD is baseline on AArch64: the generic bodies are its vector ones,
// and no runtime CPU check is needed.
#if USCA_HAVE_NEON_KERNELS
constexpr batch_kernels neon_set = {"neon", generic_set_cpa,
                                    generic_set_tvla, generic_set_solve};
#endif

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
