// Register-blocked batch accumulate/solve kernels behind runtime
// dispatch.
//
// The blocked CPA/TVLA accumulators stream traces through fixed sample
// blocks; the batch kernels process one such block across a whole tile
// of traces, so the block's accumulator lanes stay register/L1-resident
// while every row of the batch streams past.  Each accumulator element
// is still updated once per trace, in ascending trace order — exactly
// the order of the per-trace path — so every kernel, at any batch size,
// produces bit-identical sums (the batch-identity tests pin this).
//
// Every set is the same plain loops (batch_kernels.cpp), compiled for
// its ISA and vectorised by the compiler: "generic" at the baseline ISA,
// "avx2" and "avx512" under those targets, and "neon" on AArch64, where
// AdvSIMD is the baseline, so it is the generic body under its own name.
// They multiply and add with two roundings, as the per-trace path does:
// the FMA rule of util/polar_log.h, which batch_kernels.cpp keeps with
// USCA_FP_CONTRACT_OFF.
//
// Dispatch is resolved once at first use: the AVX-512 set on x86-64 CPUs
// that run it, else the AVX2 set, the NEON set on AArch64, the generic
// set otherwise.  The identity tests compare the sets on one machine
// through generic_kernels(), avx2_kernels(), avx512_kernels() and
// neon_kernels().
#ifndef USCA_STATS_BATCH_KERNELS_H
#define USCA_STATS_BATCH_KERNELS_H

#include <cstddef>
#include <cstdint>

namespace usca::stats {

struct batch_kernels {
  const char* name;

  /// One sample block of a partitioned-CPA batch.  For each row r in
  /// [0, rows), with t = samples + r * sample_stride and
  /// part = part_base + partitions[r] * part_stride, and for each
  /// i in [0, n): sum[i] += t[i]; sum_sq[i] += t[i]*t[i];
  /// part[i] += t[i].  Rows ascend, so per-element accumulation order
  /// equals the per-trace path.
  void (*cpa_accumulate)(double* sum, double* sum_sq, double* part_base,
                         std::size_t part_stride,
                         const std::uint8_t* partitions,
                         const double* samples, std::size_t sample_stride,
                         std::size_t rows, std::size_t n);

  /// One sample block of one TVLA population.  rows[r] points at row r's
  /// block start; for each row in order and i in [0, n), with
  /// dx = rows[r][i] - center[i]: sum[i] += dx; sum_sq[i] += dx*dx.
  void (*tvla_accumulate)(double* sum, double* sum_sq,
                          const double* center,
                          const double* const* rows, std::size_t nrows,
                          std::size_t n);

  /// One sample block of the CPA solve cross-accumulation: for each
  /// partition p in [0, partitions) with part_n[p] != 0, and each i in
  /// [0, n): acc[i] += hyp[p] * (part_base + p * part_stride)[i].
  /// Partitions ascend, matching the scalar solve loop.
  void (*solve_accumulate)(double* acc, const double* hyp,
                           const double* part_base,
                           std::size_t part_stride,
                           const std::uint64_t* part_n,
                           std::size_t partitions, std::size_t n);
};

/// The portable set, at the baseline ISA.
const batch_kernels& generic_kernels() noexcept;

/// The AVX2 set, or nullptr when the build or the CPU lacks AVX2.
const batch_kernels* avx2_kernels() noexcept;

/// The AVX-512 set, or nullptr when the build or the CPU lacks the
/// util/avx512.h feature set.
const batch_kernels* avx512_kernels() noexcept;

/// The NEON set, or nullptr on non-AArch64 builds.
const batch_kernels* neon_kernels() noexcept;

/// The runtime-dispatched active set, resolved once at first use.
const batch_kernels& active_kernels();

} // namespace usca::stats

#endif // USCA_STATS_BATCH_KERNELS_H
