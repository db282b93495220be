#include "crypto/aes128.h"

#include <gtest/gtest.h>

namespace usca::crypto {
namespace {

aes_block block_from(const std::uint8_t (&bytes)[16]) {
  aes_block b;
  std::copy(std::begin(bytes), std::end(bytes), b.begin());
  return b;
}

TEST(Aes, SboxSpotValues) {
  const auto& sbox = aes_sbox();
  EXPECT_EQ(sbox[0x00], 0x63);
  EXPECT_EQ(sbox[0x01], 0x7c);
  EXPECT_EQ(sbox[0x53], 0xed);
  EXPECT_EQ(sbox[0xff], 0x16);
}

TEST(Aes, SboxIsAPermutation) {
  const auto& sbox = aes_sbox();
  std::array<bool, 256> seen{};
  for (const std::uint8_t v : sbox) {
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(Aes, XtimeKnownValues) {
  EXPECT_EQ(xtime(0x57), 0xae);
  EXPECT_EQ(xtime(0xae), 0x47); // wraps through the reduction polynomial
  EXPECT_EQ(xtime(0x80), 0x1b);
  EXPECT_EQ(xtime(0x00), 0x00);
}

TEST(Aes, KeyExpansionFips197VectorA) {
  // FIPS-197 Appendix A.1 key expansion for 2b7e1516...
  const aes_key key = block_from({0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2,
                                  0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
                                  0x4f, 0x3c});
  const aes_round_keys rk = expand_key(key);
  // w4 = a0fafe17
  EXPECT_EQ(rk[16], 0xa0);
  EXPECT_EQ(rk[17], 0xfa);
  EXPECT_EQ(rk[18], 0xfe);
  EXPECT_EQ(rk[19], 0x17);
  // w43 = b6630ca6 (last word)
  EXPECT_EQ(rk[172], 0xb6);
  EXPECT_EQ(rk[173], 0x63);
  EXPECT_EQ(rk[174], 0x0c);
  EXPECT_EQ(rk[175], 0xa6);
}

TEST(Aes, EncryptFips197AppendixB) {
  const aes_key key = block_from({0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2,
                                  0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
                                  0x4f, 0x3c});
  const aes_block pt = block_from({0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30,
                                   0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
                                   0x07, 0x34});
  const aes_block expected = block_from({0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc,
                                         0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97,
                                         0x19, 0x6a, 0x0b, 0x32});
  EXPECT_EQ(encrypt_block(pt, key), expected);
}

TEST(Aes, EncryptFips197AppendixC) {
  const aes_key key = block_from({0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06,
                                  0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
                                  0x0e, 0x0f});
  const aes_block pt = block_from({0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66,
                                   0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
                                   0xee, 0xff});
  const aes_block expected = block_from({0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b,
                                         0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80,
                                         0x70, 0xb4, 0xc5, 0x5a});
  EXPECT_EQ(encrypt_block(pt, key), expected);
}

TEST(Aes, SubbytesHypothesisConsistent) {
  EXPECT_EQ(subbytes_hypothesis(0x32, 0x2b), aes_sbox()[0x32 ^ 0x2b]);
}

} // namespace
} // namespace usca::crypto
