// The contraction guard of util/polar_log.h.  CMakeLists.txt builds this
// file alone with -ffp-contract=fast, the flag under which GCC fuses a
// plain `a + b * c` into one FMA wherever the target has FMA.  The test
// instantiates the log at widths 1, 4 and 8 through the header's
// USCA_POLAR_LOG_INSTANCE, under target("avx2,fma") and under the
// AVX-512 target (which enables FMA too), and compares every instance
// bit for bit with util::polar_log.  Only the header's own
// contraction-off region keeps these instances from fusing: without it
// the series rounds once where the scalar body rounds twice.
#include "util/polar_log.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/avx512.h"
#include "util/rng.h"

#if USCA_HAVE_AVX2_POLAR_LOG

// The 8-wide instance under avx2,fma returns its vector in memory, and
// its caller, compiled for the same target, reads it there; no vector
// crosses a target boundary, so GCC's note about that ABI is moot.
#pragma GCC diagnostic ignored "-Wpsabi"

namespace usca::util {
namespace {

using f64x4 = double __attribute__((vector_size(32)));
using f64x8 = double __attribute__((vector_size(64)));

#define USCA_FMA_TARGET __attribute__((target("avx2,fma")))
USCA_POLAR_LOG_INSTANCE(fma_log_x1, double, USCA_FMA_TARGET)
USCA_POLAR_LOG_INSTANCE(fma_log_x4, f64x4, USCA_FMA_TARGET)
USCA_POLAR_LOG_INSTANCE(fma_log_x8, f64x8, USCA_FMA_TARGET)

/// in -> out through the instance of `width` lanes; n a multiple of 8.
USCA_FMA_TARGET void fma_logs(const double* in, double* out, std::size_t n,
                              std::size_t width) {
  for (std::size_t i = 0; i < n; i += width) {
    if (width == 1) {
      out[i] = fma_log_x1(in[i]);
    } else if (width == 4) {
      f64x4 x;
      std::memcpy(&x, in + i, sizeof(x));
      x = fma_log_x4(x);
      std::memcpy(out + i, &x, sizeof(x));
    } else {
      f64x8 x;
      std::memcpy(&x, in + i, sizeof(x));
      x = fma_log_x8(x);
      std::memcpy(out + i, &x, sizeof(x));
    }
  }
}

#if USCA_HAVE_AVX512
#define USCA_AVX512_FUNCTION __attribute__((target(USCA_AVX512_TARGET)))
USCA_POLAR_LOG_INSTANCE(avx512_log_x1, double, USCA_AVX512_FUNCTION)
USCA_POLAR_LOG_INSTANCE(avx512_log_x4, f64x4, USCA_AVX512_FUNCTION)
USCA_POLAR_LOG_INSTANCE(avx512_log_x8, f64x8, USCA_AVX512_FUNCTION)

USCA_AVX512_FUNCTION void avx512_logs(const double* in, double* out,
                                      std::size_t n, std::size_t width) {
  for (std::size_t i = 0; i < n; i += width) {
    if (width == 1) {
      out[i] = avx512_log_x1(in[i]);
    } else if (width == 4) {
      f64x4 x;
      std::memcpy(&x, in + i, sizeof(x));
      x = avx512_log_x4(x);
      std::memcpy(out + i, &x, sizeof(x));
    } else {
      f64x8 x;
      std::memcpy(&x, in + i, sizeof(x));
      x = avx512_log_x8(x);
      std::memcpy(out + i, &x, sizeof(x));
    }
  }
}
#endif

/// 2^18 seeded polar radii, drawn as next_gaussian draws them, plus the
/// ends of the range and both sides of sqrt(2)/2; a multiple of 8 long.
std::vector<double> radii() {
  std::vector<double> in = {0x1.0p-104, 1.0 - 0x1.0p-53, 0x1.6a09e667f3bcdp-1,
                            0x1.6a09e667f3bccp-1, 0.5, 0x1.fffffffffffffp-2};
  xoshiro256 rng(0xfa57);
  while (in.size() < (std::size_t{1} << 18)) {
    const double u = 2.0 * rng.next_double() - 1.0;
    const double v = 2.0 * rng.next_double() - 1.0;
    const double s = u * u + v * v;
    if (s < 1.0 && s != 0.0) {
      in.push_back(s);
    }
  }
  return in;
}

void expect_scalar_bits(const std::vector<double>& in,
                        const std::vector<double>& got) {
  std::size_t differ = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(polar_log(in[i]))) {
      if (differ++ == 0) {
        ADD_FAILURE() << "first difference at s = " << std::hexfloat << in[i]
                      << ": " << got[i] << " vs scalar " << polar_log(in[i]);
      }
    }
  }
  EXPECT_EQ(differ, 0u) << "of " << in.size() << " inputs";
}

TEST(PolarLogContraction, Avx2FmaInstancesReturnTheScalarBits) {
  if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma")) {
    GTEST_SKIP() << "the CPU runs no avx2,fma code";
  }
  const std::vector<double> in = radii();
  for (const std::size_t width : {1, 4, 8}) {
    SCOPED_TRACE(width);
    std::vector<double> out(in.size());
    fma_logs(in.data(), out.data(), in.size(), width);
    expect_scalar_bits(in, out);
  }
}

TEST(PolarLogContraction, Avx512InstancesReturnTheScalarBits) {
#if USCA_HAVE_AVX512
  if (!cpu_has_avx512()) {
    GTEST_SKIP() << "the CPU runs no AVX-512 code";
  }
  const std::vector<double> in = radii();
  for (const std::size_t width : {1, 4, 8}) {
    SCOPED_TRACE(width);
    std::vector<double> out(in.size());
    avx512_logs(in.data(), out.data(), in.size(), width);
    expect_scalar_bits(in, out);
  }
#else
  GTEST_SKIP() << "the build has no AVX-512 target";
#endif
}

} // namespace
} // namespace usca::util

#endif // USCA_HAVE_AVX2_POLAR_LOG
