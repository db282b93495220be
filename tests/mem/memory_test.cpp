#include "mem/memory.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace usca::mem {
namespace {

TEST(Memory, ZeroInitialized) {
  memory m;
  EXPECT_EQ(m.read8(0), 0);
  EXPECT_EQ(m.read32(0x10000), 0u);
}

TEST(Memory, ByteRoundTrip) {
  memory m;
  m.write8(100, 0xab);
  EXPECT_EQ(m.read8(100), 0xab);
  EXPECT_EQ(m.read8(101), 0);
}

TEST(Memory, WordLittleEndian) {
  memory m;
  m.write32(0x1000, 0x11223344);
  EXPECT_EQ(m.read8(0x1000), 0x44);
  EXPECT_EQ(m.read8(0x1003), 0x11);
  EXPECT_EQ(m.read32(0x1000), 0x11223344u);
}

TEST(Memory, HalfwordRoundTrip) {
  memory m;
  m.write16(0x2000, 0xbeef);
  EXPECT_EQ(m.read16(0x2000), 0xbeef);
  EXPECT_EQ(m.read8(0x2000), 0xef);
}

TEST(Memory, UnalignedAccessesThrow) {
  memory m;
  EXPECT_THROW(m.read32(2), util::simulation_error);
  EXPECT_THROW(m.write32(1, 0), util::simulation_error);
  EXPECT_THROW(m.read16(1), util::simulation_error);
  EXPECT_THROW(m.write16(3, 0), util::simulation_error);
}

TEST(Memory, CrossPageAccess) {
  memory m;
  const std::uint32_t boundary = memory::page_size - 2;
  m.write32(boundary - 2, 0xa1b2c3d4); // fully inside page 0
  m.write8(memory::page_size, 0x99);   // first byte of page 1
  EXPECT_EQ(m.read32(boundary - 2), 0xa1b2c3d4u);
  EXPECT_EQ(m.read8(memory::page_size), 0x99);
}

TEST(Memory, BulkLoad) {
  memory m;
  m.load(0x10000, {1, 2, 3, 4});
  EXPECT_EQ(m.read32(0x10000), 0x04030201u);
}

TEST(Memory, ContainingWordForSubwordAccess) {
  memory m;
  m.write32(0x3000, 0xaabbccdd);
  // The MDR observes the full word regardless of which byte is addressed.
  EXPECT_EQ(m.containing_word(0x3001), 0xaabbccddu);
  EXPECT_EQ(m.containing_word(0x3003), 0xaabbccddu);
}

TEST(Memory, ClearDropsContents) {
  memory m;
  m.write32(0x1000, 5);
  m.clear();
  EXPECT_EQ(m.read32(0x1000), 0u);
}

TEST(Memory, ResetZeroesEveryTouchedPageInPlace) {
  memory m;
  m.write32(0x1000, 0xdeadbeef);
  m.write8(0x10000, 0x42);                 // a second, distant page
  m.write16(memory::page_size - 2, 0x1234); // page-boundary straddle setup
  m.reset();
  // Observationally a fresh memory: all previously written locations read
  // zero, and new writes still work.
  EXPECT_EQ(m.read32(0x1000), 0u);
  EXPECT_EQ(m.read8(0x10000), 0u);
  EXPECT_EQ(m.read16(memory::page_size - 2), 0u);
  m.write32(0x1000, 7);
  EXPECT_EQ(m.read32(0x1000), 7u);
}

/// Byte-wise reference: the memory's contract, one byte at a time.
struct byte_model {
  std::map<std::uint32_t, std::uint8_t> bytes;

  std::uint8_t at(std::uint32_t address) const {
    const auto it = bytes.find(address);
    return it == bytes.end() ? 0 : it->second;
  }
  std::uint32_t le(std::uint32_t address, int width) const {
    std::uint32_t v = 0;
    for (int i = 0; i < width; ++i) {
      v |= static_cast<std::uint32_t>(at(address + static_cast<std::uint32_t>(i)))
           << (8 * i);
    }
    return v;
  }
  void put(std::uint32_t address, std::uint32_t value, int width) {
    for (int i = 0; i < width; ++i) {
      bytes[address + static_cast<std::uint32_t>(i)] =
          static_cast<std::uint8_t>(value >> (8 * i));
    }
  }
};

// Word, halfword and bulk accesses take one page lookup (or one copy per
// page) instead of one per byte; they must agree with byte-wise access
// everywhere, across page boundaries and on pages never touched.
TEST(Memory, WordAndBulkAccessesMatchByteWiseReference) {
  util::xoshiro256 rng(0x3e3017);
  memory m;
  byte_model ref;
  // Three pages around a boundary, plus the top of the address space
  // (a load there wraps to address 0, as byte-wise writes do).
  const std::uint32_t bases[] = {3 * memory::page_size - 64,
                                 0xffffffffU - 40U};
  const auto address_near = [&] {
    return bases[rng.bounded(2)] +
           static_cast<std::uint32_t>(rng.bounded(memory::page_size + 128));
  };
  for (int op = 0; op < 6000; ++op) {
    std::uint32_t a = address_near();
    const auto value = static_cast<std::uint32_t>(rng());
    switch (rng.bounded(7)) {
    case 0:
      m.write8(a, static_cast<std::uint8_t>(value));
      ref.put(a, value, 1);
      break;
    case 1:
      a &= ~1U;
      m.write16(a, static_cast<std::uint16_t>(value));
      ref.put(a, value, 2);
      break;
    case 2:
      a &= ~3U;
      m.write32(a, value);
      ref.put(a, value, 4);
      break;
    case 3: {
      std::vector<std::uint8_t> bytes(rng.bounded(memory::page_size + 256));
      for (auto& b : bytes) {
        b = rng.next_u8();
      }
      if (rng.bounded(2) == 0) {
        m.load(a, bytes);
      } else {
        m.load(a, bytes.data(), bytes.size());
      }
      for (std::size_t i = 0; i < bytes.size(); ++i) {
        ref.put(a + static_cast<std::uint32_t>(i), bytes[i], 1);
      }
      break;
    }
    case 4:
      ASSERT_EQ(m.read8(a), ref.at(a)) << "read8 at " << a;
      break;
    case 5:
      a &= ~1U;
      ASSERT_EQ(m.read16(a), ref.le(a, 2)) << "read16 at " << a;
      break;
    default:
      ASSERT_EQ(m.containing_word(a), ref.le(a & ~3U, 4)) << "at " << a;
      a &= ~3U;
      ASSERT_EQ(m.read32(a), ref.le(a, 4)) << "read32 at " << a;
      break;
    }
  }
  for (std::uint32_t a = bases[0]; a < bases[0] + memory::page_size + 128;
       a += 4) {
    ASSERT_EQ(m.read32(a), ref.le(a, 4)) << "final read32 at " << a;
  }
}

TEST(Memory, UntouchedPagesReadZero) {
  memory m;
  m.load(memory::page_size - 3, {1, 2, 3, 4, 5, 6}); // straddles pages 0/1
  EXPECT_EQ(m.read32(memory::page_size - 4), 0x03020100u);
  EXPECT_EQ(m.read32(memory::page_size), 0x00060504u);
  // Pages 2 and beyond were never touched.
  EXPECT_EQ(m.read32(2 * memory::page_size), 0u);
  EXPECT_EQ(m.read16(5 * memory::page_size + 6), 0u);
  EXPECT_EQ(m.read8(7 * memory::page_size + 1), 0u);
  EXPECT_EQ(m.containing_word(9 * memory::page_size + 3), 0u);
  m.load(0x40000, std::vector<std::uint8_t>{}); // touches nothing
  EXPECT_EQ(m.read32(0x40000), 0u);
}

} // namespace
} // namespace usca::mem
