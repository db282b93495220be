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
// set and tag by shifts.  A bitmap of the sets that allocated a line since
// the last reset() lets reset() clear only those: restoring the fresh
// state between two simulated traces costs the sets the trace touched.
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

  std::size_t set_index(std::uint32_t address) const noexcept;
  std::uint32_t tag_of(std::uint32_t address) const noexcept;

  cache_config config_;
  std::size_t num_sets_;
  unsigned line_shift_; ///< log2(line_bytes)
  unsigned tag_shift_;  ///< log2(line_bytes * num_sets_), at most 63
  std::vector<line> lines_; ///< num_sets_ * ways, row-major by set
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
