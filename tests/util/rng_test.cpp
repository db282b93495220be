#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace usca::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  xoshiro256 a(42);
  xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  xoshiro256 a(1);
  xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, BoundedStaysInRange) {
  xoshiro256 rng(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.bounded(17), 17u);
  }
  EXPECT_EQ(rng.bounded(0), 0u);
  EXPECT_EQ(rng.bounded(1), 0u);
}

TEST(Rng, DoubleInUnitInterval) {
  xoshiro256 rng(9);
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, GaussianMomentsAreSane) {
  xoshiro256 rng(1234);
  const int n = 200'000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

// The deviates' distribution at 10^7 draws: mean 0, variance 1, skewness
// 0, excess kurtosis 0 (each within five standard errors), and the
// Kolmogorov-Smirnov distance to the standard normal CDF below the 0.1%
// critical value 1.95 / sqrt(n).
TEST(Rng, GaussianStatisticsAtTenMillion) {
  constexpr std::size_t n = 10'000'000;
  xoshiro256 rng(0x57a75);
  std::vector<double> g(n);
  double sum = 0.0;
  for (double& x : g) {
    x = rng.next_gaussian();
    sum += x;
  }
  const double mean = sum / n;
  double m2 = 0.0;
  double m3 = 0.0;
  double m4 = 0.0;
  for (const double x : g) {
    const double d = x - mean;
    const double d2 = d * d;
    m2 += d2;
    m3 += d2 * d;
    m4 += d2 * d2;
  }
  m2 /= n;
  m3 /= n;
  m4 /= n;
  const double skewness = m3 / std::pow(m2, 1.5);
  const double excess_kurtosis = m4 / (m2 * m2) - 3.0;
  const double root_n = std::sqrt(static_cast<double>(n));
  EXPECT_NEAR(mean, 0.0, 5.0 / root_n);
  EXPECT_NEAR(m2, 1.0, 5.0 * std::sqrt(2.0) / root_n);
  EXPECT_NEAR(skewness, 0.0, 5.0 * std::sqrt(6.0) / root_n);
  EXPECT_NEAR(excess_kurtosis, 0.0, 5.0 * std::sqrt(24.0) / root_n);

  std::sort(g.begin(), g.end());
  double ks = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double cdf = 0.5 * std::erfc(-g[i] / std::sqrt(2.0));
    ks = std::max({ks, cdf - static_cast<double>(i) / n,
                   static_cast<double>(i + 1) / n - cdf});
  }
  EXPECT_LT(ks, 1.95 / root_n);
}

// Pins the exact Gaussian stream: an FNV-1a digest of the bit patterns
// of the first 1001 next_gaussian() values per seed, then the next raw
// operator() output.  The odd count ends on the first deviate of a pair,
// so the cached second deviate is discarded there and the raw output
// pins how many uniforms the rejection loop consumed.  Any faster
// Gaussian (vectorised draws, another log or sqrt) must keep every bit.
// The constants are never edited; they were re-recorded once, when the
// log moved from the host's libm into util::polar_log, and from then on
// hold on every host.
TEST(Rng, GaussianSequenceGolden) {
  struct golden {
    std::uint64_t seed;
    std::uint64_t digest;
    std::uint64_t next_raw;
  };
  const golden cases[] = {
      {0, 0xb9457f5c4ebec8e2ULL, 0xc14bb508a28a1a31ULL},
      {0x7077, 0x02cbb6bee3c50829ULL, 0xd0f5a148de5ed19aULL},
      {0xffffffffffffffffULL, 0xfaeb262e6b5a0485ULL, 0xab56e19099e805f2ULL},
  };
  for (const golden& c : cases) {
    xoshiro256 rng(c.seed);
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (int i = 0; i < 1001; ++i) {
      const auto bits = std::bit_cast<std::uint64_t>(rng.next_gaussian());
      for (int b = 0; b < 8; ++b) {
        hash ^= (bits >> (8 * b)) & 0xffU;
        hash *= 0x100000001b3ULL;
      }
    }
    EXPECT_EQ(hash, c.digest) << "seed " << c.seed;
    EXPECT_EQ(rng(), c.next_raw) << "seed " << c.seed;
  }
}

TEST(Rng, UniformBitBalance) {
  xoshiro256 rng(5);
  int ones = 0;
  const int n = 10'000;
  for (int i = 0; i < n; ++i) {
    ones += std::popcount(rng.next_u32());
  }
  const double fraction = static_cast<double>(ones) / (32.0 * n);
  EXPECT_NEAR(fraction, 0.5, 0.01);
}

} // namespace
} // namespace usca::util
