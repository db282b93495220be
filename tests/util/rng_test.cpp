#include "util/rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

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

// Pins the exact Gaussian stream: an FNV-1a digest of the bit patterns
// of the first 1001 next_gaussian() values per seed, then the next raw
// operator() output.  The odd count ends on the first deviate of a pair,
// so the cached second deviate is discarded there and the raw output
// pins how many uniforms the rejection loop consumed.  Any faster
// Gaussian (vectorised draws, another log or sqrt) must keep every bit.
// The constants were recorded once and are never edited.
TEST(Rng, GaussianSequenceGolden) {
  struct golden {
    std::uint64_t seed;
    std::uint64_t digest;
    std::uint64_t next_raw;
  };
  const golden cases[] = {
      {0, 0x9b75fdf756b48fe0ULL, 0xc14bb508a28a1a31ULL},
      {0x7077, 0x4d22eb3c9a3f228fULL, 0xd0f5a148de5ed19aULL},
      {0xffffffffffffffffULL, 0x06c865acc9c7b753ULL, 0xab56e19099e805f2ULL},
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
