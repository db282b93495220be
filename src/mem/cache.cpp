#include "mem/cache.h"

#include <algorithm>
#include <bit>

#include "util/error.h"

namespace usca::mem {

cache_geometry::cache_geometry(const cache_config& config)
    : line_bytes(config.line_bytes), ways(config.ways) {
  if (line_bytes == 0 || (line_bytes & (line_bytes - 1)) != 0) {
    throw util::usca_error("cache line size must be a power of two");
  }
  if (ways == 0) {
    throw util::usca_error("cache must have at least one way");
  }
  sets = config.size_bytes / (line_bytes * ways);
  if (sets == 0 || (sets & (sets - 1)) != 0) {
    throw util::usca_error("cache set count must be a power of two");
  }
  line_shift = static_cast<unsigned>(std::countr_zero(line_bytes));
  tag_shift = line_shift + static_cast<unsigned>(std::countr_zero(sets));
}

cache::cache(const cache_config& config)
    : config_(config), geometry_(config),
      lines_(geometry_.sets * geometry_.ways),
      touched_((geometry_.sets + 63) / 64) {}

int cache::access(std::uint32_t address) {
  if (!config_.enabled) {
    return 0;
  }
  ++tick_;
  const std::size_t set = geometry_.set_of(address);
  const std::uint32_t tag = geometry_.tag_of(address);
  for (std::size_t w = 0; w < config_.ways; ++w) {
    line& l = lines_[set * config_.ways + w];
    if (l.valid && l.tag == tag) {
      l.last_use = tick_;
      ++hits_;
      return 0;
    }
  }
  // Miss: evict an invalid line if present, else the true-LRU line.
  line* victim = &lines_[set * config_.ways];
  for (std::size_t w = 0; w < config_.ways; ++w) {
    line& l = lines_[set * config_.ways + w];
    if (!l.valid) {
      victim = &l;
      break;
    }
    if (l.last_use < victim->last_use) {
      victim = &l;
    }
  }
  ++misses_;
  touched_[set / 64] |= std::uint64_t{1} << (set % 64);
  victim->valid = true;
  victim->tag = tag;
  victim->last_use = tick_;
  return config_.miss_penalty;
}

bool cache::would_hit(std::uint32_t address) const noexcept {
  if (!config_.enabled) {
    return true;
  }
  const std::size_t set = geometry_.set_of(address);
  const std::uint32_t tag = geometry_.tag_of(address);
  for (std::size_t w = 0; w < config_.ways; ++w) {
    const line& l = lines_[set * config_.ways + w];
    if (l.valid && l.tag == tag) {
      return true;
    }
  }
  return false;
}

void cache::warm(std::uint32_t base, std::size_t length) {
  if (config_.enabled) {
    geometry_.for_each_line(base, length,
                            [this](std::uint32_t line) { access(line); });
  }
}

std::size_t cache::reset() {
  std::size_t sets = 0;
  for (std::size_t word = 0; word < touched_.size(); ++word) {
    for (std::uint64_t m = touched_[word]; m != 0; m &= m - 1) {
      const std::size_t set =
          word * 64 + static_cast<std::size_t>(std::countr_zero(m));
      std::fill_n(lines_.begin() +
                      static_cast<std::ptrdiff_t>(set * config_.ways),
                  config_.ways, line{});
      ++sets;
    }
    touched_[word] = 0;
  }
  tick_ = hits_ = misses_ = 0;
  return sets;
}

} // namespace usca::mem
