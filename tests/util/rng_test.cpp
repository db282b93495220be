#include "util/rng.h"

#include <gtest/gtest.h>

#include <cmath>

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
