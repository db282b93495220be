#include "mem/cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace usca::mem {
namespace {

cache_config small_config() {
  cache_config c;
  c.size_bytes = 256;
  c.line_bytes = 32;
  c.ways = 2;
  c.miss_penalty = 10;
  return c;
}

TEST(Cache, FirstAccessMissesThenHits) {
  cache c(small_config());
  EXPECT_EQ(c.access(0x100), 10);
  EXPECT_EQ(c.access(0x100), 0);
  EXPECT_EQ(c.access(0x11f), 0); // same 32-byte line
  EXPECT_EQ(c.misses(), 1u);
  EXPECT_EQ(c.hits(), 2u);
}

TEST(Cache, LruEviction) {
  cache c(small_config()); // 4 sets x 2 ways
  // Three lines mapping to the same set (stride = line * sets = 128).
  c.access(0x000);
  c.access(0x080);
  c.access(0x100); // evicts 0x000 (LRU)
  EXPECT_EQ(c.access(0x080), 0);
  EXPECT_EQ(c.access(0x000), 10); // was evicted
}

TEST(Cache, LruUpdatedOnHit) {
  cache c(small_config());
  c.access(0x000);
  c.access(0x080);
  c.access(0x000);  // refresh 0x000
  c.access(0x100);  // evicts 0x080 now
  EXPECT_EQ(c.access(0x000), 0);
  EXPECT_EQ(c.access(0x080), 10);
}

TEST(Cache, WarmMakesRegionHit) {
  cache c(small_config());
  c.warm(0x40, 64);
  EXPECT_TRUE(c.would_hit(0x40));
  EXPECT_TRUE(c.would_hit(0x7f));
  EXPECT_EQ(c.access(0x40), 0);
}

TEST(Cache, WouldHitDoesNotMutate) {
  cache c(small_config());
  EXPECT_FALSE(c.would_hit(0x40));
  EXPECT_FALSE(c.would_hit(0x40));
  EXPECT_EQ(c.hits() + c.misses(), 0u);
}

TEST(Cache, DisabledCacheIsFree) {
  cache_config cfg = small_config();
  cfg.enabled = false;
  cache c(cfg);
  EXPECT_EQ(c.access(0x123), 0);
  EXPECT_TRUE(c.would_hit(0x5555));
}

TEST(Cache, ResetClearsState) {
  cache c(small_config());
  c.access(0x100);
  c.reset();
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.misses(), 0u);
  EXPECT_FALSE(c.would_hit(0x100));
}

TEST(Cache, RejectsBadGeometry) {
  cache_config cfg;
  cfg.line_bytes = 48; // not a power of two
  EXPECT_THROW(cache{cfg}, util::usca_error);
  cache_config zero_ways;
  zero_ways.ways = 0;
  EXPECT_THROW(cache{zero_ways}, util::usca_error);
}

TEST(Cache, CortexA7GeometryWorks) {
  cache_config cfg; // defaults: 32 KiB, 4-way, 64 B lines
  cache c(cfg);
  c.warm(0, 32 * 1024);
  EXPECT_TRUE(c.would_hit(16 * 1024));
  EXPECT_EQ(c.misses(), 512u); // 32 KiB / 64 B
}

// ------------------------------------------------ reset against fresh

struct geometry {
  const char* name;
  cache_config config;
};

cache_config geometry_of(std::size_t size, std::size_t line, std::size_t ways,
                         bool enabled = true) {
  cache_config c;
  c.enabled = enabled;
  c.size_bytes = size;
  c.line_bytes = line;
  c.ways = ways;
  c.miss_penalty = 7;
  return c;
}

std::vector<geometry> reset_geometries() {
  return {
      {"cortex_a7", cache_config{}},
      {"one_set", geometry_of(256, 64, 4)},
      {"one_way", geometry_of(1024, 32, 1)},
      {"64_way", geometry_of(64 * 64 * 2, 64, 64)},
      {"disabled", geometry_of(32 * 1024, 64, 4, false)},
      // Line times set count at and past 2^32: every tag is 0, and lines
      // of 2^32 bytes leave one set index for the whole address space.
      {"tagless", geometry_of(std::size_t{1} << 33, std::size_t{1} << 24, 1)},
      {"huge_lines", geometry_of(std::size_t{1} << 32, std::size_t{1} << 32, 1)},
  };
}

/// A seeded access stream over a few lines that conflict in a few sets
/// (so LRU eviction runs), mixed with arbitrary 32-bit addresses and
/// addresses at the top of the address space.
std::uint32_t random_address(util::xoshiro256& rng, const cache_config& c) {
  switch (rng.bounded(4)) {
  case 0:
    return static_cast<std::uint32_t>(rng());
  case 1:
    return 0xffffffffU - static_cast<std::uint32_t>(rng.bounded(4096));
  default: {
    // Stride of one line per set: these all fall into a handful of sets.
    const std::uint64_t stride =
        c.size_bytes / c.ways * (1 + rng.bounded(3));
    return static_cast<std::uint32_t>(
        0x10000 + stride * rng.bounded(2 * c.ways + 3) +
        c.line_bytes * rng.bounded(5) + rng.bounded(c.line_bytes));
  }
  }
}

/// warm() steps through 32-bit addresses one line at a time, so it needs
/// lines that fit in the address space.
bool warmable(const cache_config& c) { return c.line_bytes <= 0x80000000U; }

void random_accesses(util::xoshiro256& rng, int count, cache& c) {
  for (int i = 0; i < count; ++i) {
    if (rng.bounded(16) == 0 && warmable(c.config())) {
      c.warm(random_address(rng, c.config()),
             rng.bounded(4 * c.config().line_bytes + 1));
    } else {
      c.access(random_address(rng, c.config()));
    }
  }
}

// Set index and tag together name the line: after one access to a, b
// hits exactly when it lies in a's line, on every geometry — including
// those whose lines, or lines times sets, span 2^32 bytes or more.
TEST(Cache, SetAndTagNameTheLine) {
  for (const geometry& g : reset_geometries()) {
    if (!g.config.enabled) {
      continue;
    }
    util::xoshiro256 rng(0x11e);
    for (int i = 0; i < 300; ++i) {
      cache c(g.config);
      const std::uint32_t a = random_address(rng, g.config);
      c.access(a);
      for (int j = 0; j < 20; ++j) {
        const std::uint32_t b = j % 2 == 0
                                    ? random_address(rng, g.config)
                                    : a ^ static_cast<std::uint32_t>(
                                              rng.bounded(g.config.line_bytes));
        EXPECT_EQ(c.would_hit(b),
                  std::uint64_t{a} / g.config.line_bytes ==
                      std::uint64_t{b} / g.config.line_bytes)
            << g.name << " a=" << a << " b=" << b;
      }
    }
  }
}

// reset() must restore exactly the fresh state: after any access history
// A, reset() and then B behaves as B on a freshly built cache — same
// penalty for every access, same hit and miss counts, and the same
// would_hit answers — on every geometry the constructor accepts.
TEST(Cache, ResetMatchesFreshCacheAfterAnyHistory) {
  for (const geometry& g : reset_geometries()) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const std::string what =
          std::string(g.name) + " seed " + std::to_string(seed);
      util::xoshiro256 rng(0xcac4e + seed);
      cache c(g.config);
      random_accesses(rng, 400 * static_cast<int>(seed), c);
      c.reset();
      if (seed % 2 == 0) {
        c.reset(); // twice in a row changes nothing
      }
      cache fresh(g.config);
      ASSERT_EQ(c.hits(), 0u) << what;
      ASSERT_EQ(c.misses(), 0u) << what;
      for (int i = 0; i < 600; ++i) {
        const std::uint32_t probe = random_address(rng, g.config);
        ASSERT_EQ(c.would_hit(probe), fresh.would_hit(probe))
            << what << " probe " << i;
        if (rng.bounded(16) == 0 && warmable(g.config)) {
          const std::uint32_t base = random_address(rng, g.config);
          const std::size_t length = rng.bounded(3 * g.config.line_bytes);
          c.warm(base, length);
          fresh.warm(base, length);
        } else {
          const std::uint32_t a = random_address(rng, g.config);
          ASSERT_EQ(c.access(a), fresh.access(a)) << what << " access " << i;
        }
        ASSERT_EQ(c.hits(), fresh.hits()) << what;
        ASSERT_EQ(c.misses(), fresh.misses()) << what;
      }
    }
  }
}

} // namespace
} // namespace usca::mem
