#include "sim/lane_memory.h"

#include <algorithm>
#include <bit>

#include "sim/lane_alu.h"
#include "util/telemetry.h"

namespace usca::sim {

namespace {

std::uint64_t all_lanes(std::size_t lanes) noexcept {
  return lanes >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
}

/// A word as the memories hold it (little-endian) to a value, or back:
/// the identity on a little-endian host.
constexpr std::uint32_t le_word(std::uint32_t word) noexcept {
  if constexpr (std::endian::native == std::endian::big) {
    return __builtin_bswap32(word);
  }
  return word;
}

/// The hit test of mem::cache::access on lane `lane`'s column: the line of
/// the set's ways [first, first + ways) that is valid and holds `tag`, or
/// first + ways on a miss.
[[gnu::always_inline]] inline std::size_t
find_line(const std::uint64_t* valid, const std::uint32_t* tags,
          std::size_t lanes, std::size_t lane, std::size_t first,
          std::size_t ways, std::uint32_t tag) noexcept {
  std::size_t line = first;
  for (; line != first + ways; ++line) {
    if (((valid[line] >> lane) & 1U) != 0 && tags[line * lanes + lane] == tag) {
      break;
    }
  }
  return line;
}

} // namespace

lane_memory::lane_memory(std::uint32_t data_base, std::size_t data_bytes,
                         const mem::cache_config& dcache, std::size_t lanes)
    : lanes_(lanes), memory_(lanes), base_(data_base & ~3U),
      words_(data_bytes == 0 ? 0 : (data_base % 4 + data_bytes + 3) / 4),
      rows_(words_ * lanes), stored_low_(words_), spans_(words_ * lanes),
      dcache_(dcache), geometry_(dcache) {
  const std::size_t lines = geometry_.sets * geometry_.ways;
  tag_.resize(lines * lanes_);
  last_use_.resize(lines * lanes_);
  valid_.resize(lines);
  touched_.resize(geometry_.sets);
}

void lane_memory::enter(std::size_t n) noexcept {
  for (std::size_t l = 0; l < n; ++l) {
    std::uint32_t* span = spans_.data() + l * words_;
    memory_[l].read(base_, reinterpret_cast<std::uint8_t*>(span), 4 * words_);
    for (std::size_t w = 0; w < words_; ++w) {
      span[w] = le_word(span[w]);
    }
  }
  // Row by row: each row is written once, contiguously.
  for (std::size_t w = 0; w < words_; ++w) {
    for (std::size_t l = 0; l < n; ++l) {
      rows_[w * lanes_ + l] = spans_[l * words_ + w];
    }
  }
}

void lane_memory::leave(std::size_t n) {
  // Only the words the run stored to can differ from the memories.
  if (stored_low_ < stored_high_) {
    for (std::size_t w = stored_low_; w < stored_high_; ++w) {
      for (std::size_t l = 0; l < n; ++l) {
        spans_[l * words_ + w] = le_word(rows_[w * lanes_ + l]);
      }
    }
    for (std::size_t l = 0; l < n; ++l) {
      const std::uint32_t* span = spans_.data() + l * words_ + stored_low_;
      memory_[l].load(base_ + static_cast<std::uint32_t>(4 * stored_low_),
                      reinterpret_cast<const std::uint8_t*>(span),
                      4 * (stored_high_ - stored_low_));
    }
  }
  stored_low_ = words_;
  stored_high_ = 0;
  static const telem::counter outside{"sim.batch.outside_window_accesses",
                                      "accesses", "sim"};
  outside.add(outside_);
  outside_ = 0;
}

// The miss path of mem::cache::access on lane `lane`'s column: the first
// invalid way of the set, else its least recently used one, takes `tag`.
std::size_t lane_memory::fill(std::size_t lane, std::size_t set,
                              std::uint32_t tag) noexcept {
  const std::uint64_t bit = std::uint64_t{1} << lane;
  const std::size_t first = set * geometry_.ways;
  std::size_t line = first;
  for (std::size_t way = first; way != first + geometry_.ways; ++way) {
    if ((valid_[way] & bit) == 0) {
      line = way;
      break;
    }
    if (last_use_[way * lanes_ + lane] < last_use_[line * lanes_ + lane]) {
      line = way;
    }
  }
  touched_[set] |= bit;
  valid_[line] |= bit;
  tag_[line * lanes_ + lane] = tag;
  last_use_[line * lanes_ + lane] = tick_;
  return line;
}

std::uint64_t lane_memory::probe(const std::uint32_t* address,
                                 std::uint64_t mask) {
  if (!dcache_.enabled) {
    return 0;
  }
  const std::uint64_t tick = ++tick_;
  uniform_ = false;
  // Hits first, from locals: the stamp stores cannot alias them.
  const mem::cache_geometry geometry = geometry_;
  const std::size_t lanes = lanes_;
  const std::uint64_t* valid = valid_.data();
  const std::uint32_t* tags = tag_.data();
  std::uint64_t* stamps = last_use_.data();
  std::uint64_t missed = 0;
  for (const std::size_t l : lanes_in(mask)) {
    const std::uint32_t tag = geometry.tag_of(address[l]);
    const std::size_t first = geometry.set_of(address[l]) * geometry.ways;
    const std::size_t line =
        find_line(valid, tags, lanes, l, first, geometry.ways, tag);
    if (line != first + geometry.ways) {
      stamps[line * lanes + l] = tick;
    } else {
      missed |= std::uint64_t{1} << l;
    }
  }
  // Each lane's cache is its own column, so its miss may come after the
  // other lanes' hits.
  for (const std::size_t l : lanes_in(missed)) {
    fill(l, geometry.set_of(address[l]), geometry.tag_of(address[l]));
  }
  return missed;
}

void lane_memory::warm(std::uint32_t base, std::size_t length) {
  if (!dcache_.enabled) {
    return;
  }
  const std::uint64_t every = all_lanes(lanes_);
  if (!uniform_) {
    lane_row address;
    geometry_.for_each_line(base, length, [&](std::uint32_t at) {
      address.fill(at);
      probe(address.data(), every);
    });
    return;
  }
  // Alike caches take alike accesses alike: warm lane 0, then give every
  // lane the lines it hit or filled.
  geometry_.for_each_line(base, length, [&](std::uint32_t at) {
    ++tick_;
    const std::uint32_t tag = geometry_.tag_of(at);
    const std::size_t set = geometry_.set_of(at);
    std::size_t line = find_line(valid_.data(), tag_.data(), lanes_, 0,
                                 set * geometry_.ways, geometry_.ways, tag);
    if (line == (set + 1) * geometry_.ways) {
      line = fill(0, set, tag);
    } else {
      last_use_[line * lanes_] = tick_;
    }
    valid_[line] = every;
    touched_[line / geometry_.ways] =
        touched_[line / geometry_.ways] != 0 ? every : 0;
    std::fill_n(&tag_[line * lanes_], lanes_, tag_[line * lanes_]);
    std::fill_n(&last_use_[line * lanes_], lanes_, last_use_[line * lanes_]);
  });
}

std::size_t lane_memory::reset_cache() noexcept {
  std::size_t sets = 0;
  for (std::size_t set = 0; set < touched_.size(); ++set) {
    if (touched_[set] != 0) {
      sets += static_cast<std::size_t>(std::popcount(touched_[set]));
      std::fill_n(&valid_[set * geometry_.ways], geometry_.ways, 0U);
      touched_[set] = 0;
    }
  }
  tick_ = 0;
  uniform_ = true;
  return sets;
}

void lane_memory::load(const std::uint32_t* address, int width,
                       std::uint64_t mask, std::uint32_t* value,
                       std::uint32_t* word) {
  const std::uint32_t keep =
      width == 4 ? ~0U : (std::uint32_t{1} << (8 * width)) - 1;
  for (const std::size_t l : lanes_in(mask)) {
    const std::uint32_t a = address[l];
    if (const std::size_t row = row_of(a, width); row != words_) {
      const std::uint32_t w = rows_[row * lanes_ + l];
      // Little-endian: the value is the word's low bytes from the offset on.
      value[l] = (w >> (8 * (a & 3U))) & keep;
      word[l] = w;
    } else {
      // Outside the window, or misaligned: that throws here.
      const mem::memory::word_load loaded = memory_[l].load_with_word(a, width);
      value[l] = loaded.value;
      word[l] = loaded.word;
      ++outside_;
    }
  }
}

void lane_memory::store(const std::uint32_t* address,
                        const std::uint32_t* data, int width,
                        std::uint64_t mask, std::uint32_t* word) {
  const std::uint32_t keep =
      width == 4 ? ~0U : (std::uint32_t{1} << (8 * width)) - 1;
  // The stored range lives in locals through the lane loop (no memory
  // round trip per lane) and is saved before anything can throw.
  std::size_t low = stored_low_;
  std::size_t high = stored_high_;
  for (const std::size_t l : lanes_in(mask)) {
    const std::uint32_t a = address[l];
    if (const std::size_t row = row_of(a, width); row != words_) {
      std::uint32_t& w = rows_[row * lanes_ + l];
      const unsigned shift = 8 * (a & 3U);
      w = (w & ~(keep << shift)) | ((data[l] & keep) << shift);
      word[l] = w;
      low = std::min(low, row);
      high = std::max(high, row + 1);
      continue;
    }
    stored_low_ = low;
    stored_high_ = high;
    // Outside the window, or misaligned: that throws here.
    mem::memory& m = memory_[l];
    if (width == 4) {
      m.write32(a, data[l]);
    } else if (width == 2) {
      m.write16(a, static_cast<std::uint16_t>(data[l]));
    } else {
      m.write8(a, static_cast<std::uint8_t>(data[l]));
    }
    word[l] = m.containing_word(a);
    ++outside_;
  }
  stored_low_ = low;
  stored_high_ = high;
}

} // namespace usca::sim
