#include "util/bitops.h"

#include <gtest/gtest.h>

namespace usca::util {
namespace {

TEST(Bitops, HammingWeightBasics) {
  EXPECT_EQ(hamming_weight(0), 0);
  EXPECT_EQ(hamming_weight(1), 1);
  EXPECT_EQ(hamming_weight(0xffffffffU), 32);
  EXPECT_EQ(hamming_weight(0xa5a5a5a5U), 16);
}

TEST(Bitops, HammingDistanceIsWeightOfXor) {
  EXPECT_EQ(hamming_distance(0, 0), 0);
  EXPECT_EQ(hamming_distance(0xffU, 0), 8);
  EXPECT_EQ(hamming_distance(0x12345678U, 0x12345678U), 0);
  EXPECT_EQ(hamming_distance(0xf0f0f0f0U, 0x0f0f0f0fU), 32);
}

TEST(Bitops, ByteAndHalfExtraction) {
  EXPECT_EQ(byte_of(0x12345678U, 0), 0x78);
  EXPECT_EQ(byte_of(0x12345678U, 3), 0x12);
  EXPECT_EQ(half_of(0x12345678U, 0), 0x5678);
  EXPECT_EQ(half_of(0x12345678U, 1), 0x1234);
}

TEST(Bitops, ArmImmediateRecognition) {
  EXPECT_TRUE(is_arm_immediate(0));
  EXPECT_TRUE(is_arm_immediate(0xff));
  EXPECT_TRUE(is_arm_immediate(0xff000000U));
  EXPECT_TRUE(is_arm_immediate(0x000003fcU)); // 0xff ror 30
  EXPECT_FALSE(is_arm_immediate(0x101));
  EXPECT_FALSE(is_arm_immediate(0x12345678U));
  EXPECT_FALSE(is_arm_immediate(0xff1));
}

} // namespace
} // namespace usca::util
