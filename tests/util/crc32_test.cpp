// Tests for util/crc32: both kernels (the dispatched one and the
// portable slicing-by-16 one) must equal an independent bit-at-a-time
// CRC-32 for every length, alignment and seed, and chain across any
// split.  Every input sits at the very end of its own heap allocation,
// so an ASan build also proves neither kernel reads past the buffer.
#include "util/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace usca::util {
namespace {

/// Bit-serial reflected CRC-32 (polynomial 0xEDB88320), no tables.
std::uint32_t reference_crc32(const unsigned char* p, std::size_t n,
                              std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xedb88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

/// `offset` filler bytes followed by `size` random bytes, allocated to
/// exactly offset + size so the input ends where the allocation ends.
std::vector<unsigned char> tail_aligned_input(std::size_t offset,
                                              std::size_t size,
                                              xoshiro256& rng) {
  std::vector<unsigned char> buf(offset + size);
  for (unsigned char& b : buf) {
    b = static_cast<unsigned char>(rng());
  }
  return buf;
}

TEST(Crc32, KnownAnswers) {
  const std::string_view check = "123456789";
  EXPECT_EQ(crc32(check.data(), check.size()), 0xcbf43926u);
  EXPECT_EQ(crc32_portable(check.data(), check.size()), 0xcbf43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  EXPECT_EQ(crc32_portable(nullptr, 0), 0u);
  // An empty region leaves a chained value untouched.
  EXPECT_EQ(crc32(nullptr, 0, 0xdeadbeefu), 0xdeadbeefu);
}

TEST(Crc32, KernelNameIsReported) {
  const std::string_view kernel = crc32_kernel();
  EXPECT_TRUE(kernel == "clmul" || kernel == "portable") << kernel;
#if defined(__x86_64__) && defined(__GNUC__)
  if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1")) {
    EXPECT_EQ(kernel, "clmul");
  }
#endif
}

TEST(Crc32, ChainsAtEverySplitPoint) {
  xoshiro256 rng(0xc4c);
  for (const std::size_t size : {std::size_t{200}, std::size_t{1100}}) {
    const std::vector<unsigned char> buf = tail_aligned_input(0, size, rng);
    const std::uint32_t whole = crc32(buf.data(), size);
    ASSERT_EQ(whole, reference_crc32(buf.data(), size, 0));
    for (std::size_t split = 0; split <= size; ++split) {
      const std::uint32_t head = crc32(buf.data(), split);
      ASSERT_EQ(crc32(buf.data() + split, size - split, head), whole)
          << "size " << size << " split " << split;
      ASSERT_EQ(crc32_portable(buf.data() + split, size - split,
                               crc32_portable(buf.data(), split)),
                whole)
          << "size " << size << " split " << split;
    }
  }
}

TEST(Crc32, BothKernelsMatchBitwiseReference) {
  std::vector<std::size_t> sizes;
  for (std::size_t size = 0; size <= 1100; ++size) {
    sizes.push_back(size);
  }
  sizes.insert(sizes.end(), {4095, 4096, 65537});
  xoshiro256 rng(0x1edb8832);
  for (const std::size_t size : sizes) {
    for (std::size_t offset = 0; offset < 16; ++offset) {
      const std::vector<unsigned char> buf =
          tail_aligned_input(offset, size, rng);
      const unsigned char* data = buf.data() + offset;
      const auto seed = static_cast<std::uint32_t>(rng());
      const std::uint32_t want = reference_crc32(data, size, seed);
      ASSERT_EQ(crc32(data, size, seed), want)
          << "size " << size << " offset " << offset;
      ASSERT_EQ(crc32_portable(data, size, seed), want)
          << "size " << size << " offset " << offset;
    }
  }
}

} // namespace
} // namespace usca::util
