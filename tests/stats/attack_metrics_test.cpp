#include "stats/attack_metrics.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.h"

namespace usca::stats {
namespace {

TEST(AttackMetrics, MtdFindsThresholdCrossing) {
  // z(n) = sqrt(n)/10 crosses 2.326 at n ~ 541.
  const auto z = [](std::size_t n) { return std::sqrt(static_cast<double>(n)) / 10.0; };
  const std::size_t mtd = measurements_to_disclosure(z, 2.326, 50, 100'000);
  EXPECT_GE(mtd, 500u);
  EXPECT_LE(mtd, 650u);
}

TEST(AttackMetrics, MtdSaturatesAtMaximum) {
  const auto never = [](std::size_t) { return 0.0; };
  EXPECT_EQ(measurements_to_disclosure(never, 2.326, 100, 1'000), 1'000u);
}

TEST(AttackMetrics, MtdImmediateSuccess) {
  const auto always = [](std::size_t) { return 10.0; };
  const std::size_t mtd = measurements_to_disclosure(always, 2.326, 64, 4096);
  EXPECT_LE(mtd, 64u);
}

TEST(AttackMetrics, MtdRejectsBadRange) {
  const auto z = [](std::size_t) { return 1.0; };
  EXPECT_THROW(measurements_to_disclosure(z, 2.0, 0, 100),
               util::analysis_error);
  EXPECT_THROW(measurements_to_disclosure(z, 2.0, 200, 100),
               util::analysis_error);
}

} // namespace
} // namespace usca::stats
