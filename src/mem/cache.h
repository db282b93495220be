// Set-associative cache timing model (L1 instruction / data).
//
// The DAC'18 measurements deliberately *warm* both cache levels by looping
// the benchmark so that execution is deterministic ("exploit the caches to
// ensure a steady supply of data and instructions").  This model therefore
// tracks only what matters for that methodology: hit/miss classification
// with true-LRU replacement, per-access latency, and statistics proving
// that a measured region ran entirely from cache.  Contents live in
// mem::memory; the cache holds tags only.
//
// Line size and set count are powers of two, so an address splits into
// set and tag by shifts (cache_geometry).  A bitmap of the sets that
// allocated a line since the last reset() lets reset() clear only those:
// restoring the fresh state between two simulated traces costs the sets
// the trace touched.
#ifndef USCA_MEM_CACHE_H
#define USCA_MEM_CACHE_H

#include <cstdint>
#include <vector>

namespace usca::mem {

struct cache_config {
  bool enabled = true;
  std::size_t size_bytes = 32 * 1024; ///< Cortex-A7 L1: 32 KiB
  std::size_t line_bytes = 64;        ///< Cortex-A7 line: 64 B
  std::size_t ways = 4;
  int miss_penalty = 10; ///< extra cycles on a miss (L2 hit assumed)
};

/// How a cache_config splits an address: set index and tag by shifts,
/// validated once.  mem::cache and the batched cores' lane-major D-cache
/// (sim/lane_memory.h) index the same way.
struct cache_geometry {
  /// Throws util::usca_error unless the line size and the set count are
  /// powers of two and there is at least one way.
  explicit cache_geometry(const cache_config& config);

  // Both shifts can reach 32 or more (lines, or lines times sets, spanning
  // the whole address space), so the address is widened first.
  std::size_t set_of(std::uint32_t address) const noexcept {
    return static_cast<std::size_t>(std::uint64_t{address} >> line_shift) &
           (sets - 1);
  }
  std::uint32_t tag_of(std::uint32_t address) const noexcept {
    return static_cast<std::uint32_t>(std::uint64_t{address} >> tag_shift);
  }

  /// Calls `access(line address)` for every line of [base, base+length),
  /// in address order: the warm-up loop of the paper condensed.
  template <typename Access>
  void for_each_line(std::uint32_t base, std::size_t length,
                     Access&& access) const {
    if (length == 0) {
      return;
    }
    const auto bytes = static_cast<std::uint32_t>(line_bytes);
    const std::uint32_t first = base / bytes * bytes;
    const std::uint32_t last =
        (base + static_cast<std::uint32_t>(length) - 1) / bytes * bytes;
    for (std::uint32_t addr = first;; addr += bytes) {
      access(addr);
      if (addr == last) {
        break;
      }
    }
  }

  std::size_t line_bytes;
  std::size_t ways;
  std::size_t sets;
  unsigned line_shift; ///< log2(line_bytes)
  unsigned tag_shift;  ///< log2(line_bytes * sets), at most 63
};

class cache {
public:
  explicit cache(const cache_config& config = {});

  /// Performs one access; returns the extra latency in cycles (0 on hit,
  /// `miss_penalty` on miss) and updates the replacement state.
  int access(std::uint32_t address);

  /// True if the access would hit, without updating any state.
  bool would_hit(std::uint32_t address) const noexcept;

  /// Pre-loads every line of [base, base+length) — the warm-up loop of the
  /// paper condensed into one call.
  void warm(std::uint32_t base, std::size_t length);

  /// Restores the freshly constructed state (no valid line, zero tick,
  /// hits and misses); returns the number of sets it cleared.
  std::size_t reset();

  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  const cache_config& config() const noexcept { return config_; }

private:
  struct line {
    bool valid = false;
    std::uint32_t tag = 0;
    std::uint64_t last_use = 0;
  };

  cache_config config_;
  cache_geometry geometry_;
  std::vector<line> lines_; ///< sets * ways, row-major by set
  /// Bit s: set s allocated a line since reset().  Hits touch only valid
  /// lines, which a miss in the same set allocated, so misses alone set
  /// bits.
  std::vector<std::uint64_t> touched_;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

} // namespace usca::mem

#endif // USCA_MEM_CACHE_H
