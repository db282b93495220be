#include "mem/memory.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
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
    case 4: {
      ASSERT_EQ(m.read8(a), ref.at(a)) << "read8 at " << a;
      std::vector<std::uint8_t> bytes(rng.bounded(memory::page_size + 256));
      m.read(a, bytes.data(), bytes.size());
      for (std::size_t i = 0; i < bytes.size(); ++i) {
        const std::uint32_t at = a + static_cast<std::uint32_t>(i);
        ASSERT_EQ(bytes[i], ref.at(at)) << "bulk read at " << at;
      }
      break;
    }
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

// load_with_word is read8/read16/read32 plus containing_word from one
// lookup: same values, same alignment throws, zero on untouched pages.
TEST(Memory, LoadWithWordMatchesReadsAndContainingWord) {
  util::xoshiro256 rng(0x10ad);
  memory m;
  for (std::uint32_t a = 0x10000; a < 0x10000 + 256; a += 4) {
    m.write32(a, static_cast<std::uint32_t>(rng()));
  }
  for (int i = 0; i < 4000; ++i) {
    // Mostly the written range, sometimes an untouched page.
    const std::uint32_t a =
        (rng.bounded(8) == 0 ? 0x40000U : 0x10000U) +
        static_cast<std::uint32_t>(rng.bounded(256));
    const std::uint32_t word = m.containing_word(a);
    const memory::word_load byte = m.load_with_word(a, 1);
    EXPECT_EQ(byte.value, m.read8(a)) << a;
    EXPECT_EQ(byte.word, word) << a;
    if (a % 2 == 0) {
      const memory::word_load half = m.load_with_word(a, 2);
      EXPECT_EQ(half.value, m.read16(a)) << a;
      EXPECT_EQ(half.word, word) << a;
    } else {
      EXPECT_THROW(m.load_with_word(a, 2), util::simulation_error) << a;
    }
    if (a % 4 == 0) {
      const memory::word_load full = m.load_with_word(a, 4);
      EXPECT_EQ(full.value, m.read32(a)) << a;
      EXPECT_EQ(full.word, word) << a;
    } else {
      EXPECT_THROW(m.load_with_word(a, 4), util::simulation_error) << a;
    }
  }
}

// ------------------------------------------------ reset against fresh

/// Addresses the reset oracle works on: three pages around a page
/// boundary, and the top of the address space (a load there wraps to 0).
constexpr std::uint32_t kResetBases[] = {3 * memory::page_size - 96,
                                         0xffffffffU - 72U};
constexpr std::uint32_t kResetSpan = 3 * memory::page_size;

/// One seeded mixed sequence: byte, halfword and word writes at arbitrary
/// offsets (so they land on every 64-byte block position), and bulk loads
/// that straddle blocks and pages.  Applied identically to every memory
/// in `targets`.
void random_ops(util::xoshiro256& rng, int ops,
                std::initializer_list<memory*> targets) {
  for (int op = 0; op < ops; ++op) {
    std::uint32_t a =
        kResetBases[rng.bounded(2)] +
        static_cast<std::uint32_t>(rng.bounded(memory::page_size + 160));
    const auto value = static_cast<std::uint32_t>(rng());
    switch (rng.bounded(5)) {
    case 0:
      for (memory* m : targets) {
        m->write8(a, static_cast<std::uint8_t>(value));
      }
      break;
    case 1:
      a &= ~1U;
      for (memory* m : targets) {
        m->write16(a, static_cast<std::uint16_t>(value));
      }
      break;
    case 2:
      a &= ~3U;
      for (memory* m : targets) {
        m->write32(a, value);
      }
      break;
    default: {
      // Mostly short loads crossing one or two block boundaries, now and
      // then one longer than a page.
      const std::size_t size = rng.bounded(8) == 0
                                   ? rng.bounded(memory::page_size + 300)
                                   : rng.bounded(200);
      std::vector<std::uint8_t> bytes(size);
      for (auto& b : bytes) {
        b = rng.next_u8();
      }
      for (memory* m : targets) {
        m->load(a, bytes);
      }
      break;
    }
    }
  }
}

/// Every byte of the oracle's address ranges reads the same in both.
void expect_same_bytes(const memory& got, const memory& want,
                       const std::string& what) {
  for (const std::uint32_t base : kResetBases) {
    for (std::uint32_t i = 0; i < kResetSpan; ++i) {
      const std::uint32_t a = base + i;
      ASSERT_EQ(got.read8(a), want.read8(a)) << what << " at " << a;
    }
  }
}

// reset() must restore exactly the all-zero state, however the bytes got
// dirty: whatever follows a reset reads as it would on a memory that only
// ever saw the post-reset operations.  Copies must carry enough state for
// their own reset() to be exact.
TEST(Memory, ResetMatchesFreshMemoryUnderMixedOperations) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::string what = "seed " + std::to_string(seed);
    util::xoshiro256 rng(0x5e7b10c + seed);
    memory m;
    random_ops(rng, 300, {&m});
    m.reset();
    memory fresh;
    random_ops(rng, 150, {&m, &fresh});
    expect_same_bytes(m, fresh, what + " after reset");

    // Reset twice in a row, with nothing in between.
    m.reset();
    m.reset();
    expect_same_bytes(m, memory{}, what + " after double reset");
    random_ops(rng, 200, {&m});

    // A copy-assigned memory (over a target with pages of its own) reads
    // the same, and its reset zeroes what the source had written.
    memory copy;
    random_ops(rng, 50, {&copy});
    copy = m;
    expect_same_bytes(copy, m, what + " copy");
    copy.reset();
    memory fresh_copy;
    random_ops(rng, 150, {&copy, &fresh_copy});
    expect_same_bytes(copy, fresh_copy, what + " copy after reset");

    // A copy-constructed one too.
    memory constructed(m);
    constructed.reset();
    expect_same_bytes(constructed, memory{}, what + " constructed copy");
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
