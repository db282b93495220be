// Tests for util::polar_log, the log of the Marsaglia-polar radius that
// every Gaussian deviate goes through (util/polar_log.h):
//
//  * its instances — scalar, 4-wide AVX2, 8-wide AVX-512, and the 8-wide
//    source with no ISA target — return the same bits on every input, for
//    every instance this CPU runs;
//  * it lies within 1 ULP of libquadmath's logq (where the toolchain has
//    libquadmath);
//  * the ln2 hi/lo split and the reduction constants are what the header
//    says they are.
//
// The inputs are 2^20 seeded polar radii, drawn exactly as
// xoshiro256::next_gaussian draws them, plus directed edges: the smallest
// and largest radius, both sides of the sqrt(2) reduction boundary at
// every exponent, and the exact powers of two with their neighbours.
//
// DISABLED_AccuracySweep repeats the accuracy check on 10^8 radii; run it
// with --gtest_also_run_disabled_tests --gtest_filter='*Sweep*'.
#include "util/polar_log.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "util/avx512.h"
#include "util/rng.h"

#if USCA_HAVE_QUADMATH
#include <quadmath.h>
#endif

namespace usca::util {
namespace {

/// The next polar radius s in (0, 1) of `rng`: the rejection loop of
/// next_gaussian.
double next_polar_radius(xoshiro256& rng) {
  for (;;) {
    const double u = 2.0 * rng.next_double() - 1.0;
    const double v = 2.0 * rng.next_double() - 1.0;
    const double s = u * u + v * v;
    if (s < 1.0 && s != 0.0) {
      return s;
    }
  }
}

double with_mantissa(int exponent, std::uint64_t mantissa) {
  return std::ldexp(std::bit_cast<double>(polar_log_constants::one_bits |
                                          mantissa),
                    exponent);
}

/// The directed edges: 2^-104 (the smallest nonzero u*u + v*v, both being
/// multiples of 2^-52), 1 - 2^-53 (the largest below 1), the mantissas
/// around sqrt(2)'s and the powers of two with their neighbours, at every
/// exponent a radius can have.
std::vector<double> edge_inputs() {
  std::vector<double> in = {0x1.0p-104, 1.0 - 0x1.0p-53};
  const std::uint64_t sqrt2 = std::bit_cast<std::uint64_t>(std::sqrt(2.0)) &
                              polar_log_constants::mantissa_mask;
  for (int e = -105; e <= 0; ++e) {
    for (std::uint64_t d = 0; d <= 3; ++d) {
      in.push_back(with_mantissa(e, sqrt2 + d));
      in.push_back(with_mantissa(e, sqrt2 - d - 1));
    }
    const double power = std::ldexp(1.0, e);
    if (e < 0) {
      in.push_back(power);
    }
    in.push_back(std::nextafter(power, 0.0));
    in.push_back(std::nextafter(power, 2.0));
  }
  std::vector<double> radii;
  for (const double x : in) {
    if (x >= 0x1.0p-104 && x < 1.0) {
      radii.push_back(x);
    }
  }
  return radii;
}

std::vector<double> test_inputs() {
  std::vector<double> in = edge_inputs();
  xoshiro256 rng(0x10951);
  for (int i = 0; i < (1 << 20); ++i) {
    in.push_back(next_polar_radius(rng));
  }
  return in;
}

// ------------------------------------------------------- the three bodies

std::vector<double> scalar_log(const std::vector<double>& in) {
  std::vector<double> out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = polar_log(in[i]);
  }
  return out;
}

/// `in` padded with 0.5 to a multiple of eight lanes.
std::vector<double> padded(const std::vector<double>& in) {
  std::vector<double> out = in;
  out.resize((in.size() + 7) / 8 * 8, 0.5);
  return out;
}

#if USCA_HAVE_AVX2_POLAR_LOG
__attribute__((target("avx2"))) std::vector<double>
avx2_log(const std::vector<double>& in) {
  const std::vector<double> lanes = padded(in);
  std::vector<double> out(lanes.size());
  for (std::size_t i = 0; i < lanes.size(); i += 4) {
    _mm256_storeu_pd(out.data() + i,
                     polar_log_x4(_mm256_loadu_pd(lanes.data() + i)));
  }
  out.resize(in.size());
  return out;
}
#endif

#if USCA_HAVE_AVX512
USCA_AVX512_BODIES_BEGIN
__attribute__((target(USCA_AVX512_TARGET))) std::vector<double>
avx512_log(const std::vector<double>& in) {
  const std::vector<double> lanes = padded(in);
  std::vector<double> out(lanes.size());
  for (std::size_t i = 0; i < lanes.size(); i += 8) {
    _mm512_storeu_pd(out.data() + i,
                     polar_log_x8(_mm512_loadu_pd(lanes.data() + i)));
  }
  out.resize(in.size());
  return out;
}
USCA_AVX512_BODIES_END
#endif

struct vector_body {
  const char* name;
  std::vector<double> (*log)(const std::vector<double>&);
};

/// Every vector body this CPU runs.
std::vector<vector_body> vector_bodies() {
  std::vector<vector_body> bodies;
#if USCA_HAVE_AVX2_POLAR_LOG
  if (__builtin_cpu_supports("avx2")) {
    bodies.push_back({"avx2", avx2_log});
  }
#endif
#if USCA_HAVE_AVX512
  if (cpu_has_avx512()) {
    bodies.push_back({"avx512", avx512_log});
  }
#endif
  return bodies;
}

TEST(PolarLog, EveryBodyReturnsTheScalarBits) {
  const std::vector<double> in = test_inputs();
  const std::vector<double> expected = scalar_log(in);
  for (const vector_body& body : vector_bodies()) {
    SCOPED_TRACE(body.name);
    const std::vector<double> got = body.log(in);
    std::size_t differ = 0;
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (std::bit_cast<std::uint64_t>(got[i]) !=
          std::bit_cast<std::uint64_t>(expected[i])) {
        if (differ++ == 0) {
          ADD_FAILURE() << "first difference at s = " << std::hexfloat
                        << in[i] << ": " << got[i] << " vs scalar "
                        << expected[i];
        }
      }
    }
    EXPECT_EQ(differ, 0u) << "of " << in.size() << " inputs";
  }
}

/// polar_log_lanes at width 8 with no ISA target: the 8-wide source that
/// the AVX-512 noise kernel compiles, run on every host (in SSE2 halves on
/// x86-64), so a CPU without AVX-512 still checks it.
std::vector<double> portable_x8_log(const std::vector<double>& in) {
  using f64x8 = double __attribute__((vector_size(64)));
  const std::vector<double> lanes = padded(in);
  std::vector<double> out(lanes.size());
  for (std::size_t i = 0; i < lanes.size(); i += 8) {
    f64x8 x;
    f64x8 log;
    std::memcpy(&x, lanes.data() + i, sizeof(x));
    polar_log_lanes(x, log);
    std::memcpy(out.data() + i, &log, sizeof(log));
  }
  out.resize(in.size());
  return out;
}

TEST(PolarLog, EightWideSourceWithoutAnIsaTargetReturnsTheScalarBits) {
  const std::vector<double> in = test_inputs();
  const std::vector<double> expected = scalar_log(in);
  const std::vector<double> got = portable_x8_log(in);
  std::size_t differ = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(expected[i])) {
      if (differ++ == 0) {
        ADD_FAILURE() << "first difference at s = " << std::hexfloat << in[i]
                      << ": " << got[i] << " vs scalar " << expected[i];
      }
    }
  }
  EXPECT_EQ(differ, 0u) << "of " << in.size() << " inputs";
}

TEST(PolarLog, KnownValues) {
  EXPECT_EQ(polar_log(0.5), -std::log(2.0));
  EXPECT_EQ(polar_log(0.25), -2.0 * std::log(2.0));
  // log(1 - 2^-53) = -2^-53 - 2^-107 - ..., which rounds to -2^-53.
  EXPECT_EQ(polar_log(1.0 - 0x1.0p-53), -0x1.0p-53);
  EXPECT_EQ(polar_log(1.0), 0.0);
  EXPECT_NEAR(polar_log(0x1.0p-104), -104.0 * std::log(2.0), 1e-12);
}

// ------------------------------------------------------------- constants

TEST(PolarLog, ReductionConstants) {
  namespace c = polar_log_constants;
  const std::uint64_t sqrt2 =
      std::bit_cast<std::uint64_t>(std::sqrt(2.0)) & c::mantissa_mask;
  EXPECT_EQ(sqrt2 + c::sqrt2_carry,
            static_cast<std::uint64_t>(c::exponent_one));
  EXPECT_EQ(std::bit_cast<double>(c::one_bits), 1.0);
  EXPECT_EQ(std::bit_cast<double>(c::two52_bits), 0x1.0p52);
  EXPECT_EQ(c::two52_plus_bias - 0x1.0p52, 1023.0);
  // ln2_hi keeps 32 significant bits: k * ln2_hi is exact for any k of
  // up to 21 bits, and a double's exponent needs 11.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(c::ln2_hi) & ((1ULL << 21) - 1),
            0u);
  EXPECT_EQ(c::c1, 2.0 / 3.0);
  EXPECT_EQ(c::c10, 2.0 / 21.0);
}

#if USCA_HAVE_QUADMATH

TEST(PolarLog, Ln2SplitMatchesLogq) {
  namespace c = polar_log_constants;
  const __float128 ln2 = logq(static_cast<__float128>(2.0));
  // ln2_hi is ln2 cut to 32 bits, and ln2_lo the rest rounded to nearest.
  EXPECT_EQ(c::ln2_lo, static_cast<double>(ln2 - c::ln2_hi));
  const __float128 rest = ln2 - c::ln2_hi;
  EXPECT_TRUE(rest > 0 && rest < ldexpq(1, -32));
  // The pair carries ln2 to within half an ULP of ln2_lo (2^-86).
  EXPECT_TRUE(fabsq(static_cast<__float128>(c::ln2_hi) + c::ln2_lo - ln2) <=
              ldexpq(1, -86));
}

/// |polar_log(x) - log(x)| in units in the last place of log(x), with
/// logq as the reference.
double ulp_error(double x) {
  const __float128 exact = logq(static_cast<__float128>(x));
  int exponent = 0;
  frexpq(exact, &exponent); // |exact| in [2^(exponent-1), 2^exponent)
  const __float128 ulp = ldexpq(1, exponent - 53);
  return static_cast<double>(
      fabsq(static_cast<__float128>(polar_log(x)) - exact) / ulp);
}

TEST(PolarLog, WithinOneUlpOfLogq) {
  double worst = 0.0;
  double worst_at = 0.0;
  for (const double x : test_inputs()) {
    const double err = ulp_error(x);
    if (err > worst) {
      worst = err;
      worst_at = x;
    }
  }
  std::printf("worst error %.4f ULP at s = %a\n", worst, worst_at);
  EXPECT_LE(worst, 1.0) << "at s = " << std::hexfloat << worst_at;
}

// The 10^8-input sweep behind EXPERIMENTS.md: the worst error against
// logq, how often the result differs from the host libm's log, and the
// scalar and widest vector bodies compared once more.
TEST(PolarLog, DISABLED_AccuracySweep) {
  constexpr std::size_t total = 100'000'000;
  constexpr std::size_t block = 1 << 16;
  xoshiro256 rng(0x5eed5);
  const std::vector<vector_body> bodies = vector_bodies();
  double worst = 0.0;
  double worst_at = 0.0;
  std::size_t libm_differs = 0;
  std::size_t body_differs = 0;
  std::vector<double> in(block);
  for (std::size_t done = 0; done < total; done += block) {
    for (double& x : in) {
      x = next_polar_radius(rng);
    }
    const std::vector<double> scalar = scalar_log(in);
    if (!bodies.empty()) {
      const std::vector<double> wide = bodies.back().log(in);
      for (std::size_t i = 0; i < block; ++i) {
        body_differs += std::bit_cast<std::uint64_t>(wide[i]) !=
                        std::bit_cast<std::uint64_t>(scalar[i]);
      }
    }
    for (std::size_t i = 0; i < block; ++i) {
      libm_differs += scalar[i] != std::log(in[i]);
      const double err = ulp_error(in[i]);
      if (err > worst) {
        worst = err;
        worst_at = in[i];
      }
    }
  }
  std::printf("%zu radii: worst error %.4f ULP at s = %a; differs from "
              "libm log on %zu (%.2f%%); %s body differs from scalar on "
              "%zu\n",
              total, worst, worst_at, libm_differs,
              100.0 * static_cast<double>(libm_differs) / total,
              bodies.empty() ? "no vector" : bodies.back().name,
              body_differs);
  EXPECT_LE(worst, 1.0);
  EXPECT_EQ(body_differs, 0u);
}

#endif // USCA_HAVE_QUADMATH

} // namespace
} // namespace usca::util
