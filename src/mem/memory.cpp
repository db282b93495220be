#include "mem/memory.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/error.h"

namespace usca::mem {

namespace {

constexpr std::uint32_t page_number(std::uint32_t address) noexcept {
  return address >> memory::page_bits;
}

constexpr std::size_t page_offset(std::uint32_t address) noexcept {
  return address & (memory::page_size - 1);
}

/// Dirty-mask bits of the blocks holding page bytes [offset, offset+size);
/// size >= 1 and the range lies in one page.
constexpr std::uint64_t block_bits_of(std::size_t offset,
                                      std::size_t size) noexcept {
  const std::size_t first = offset >> memory::block_bits;
  const std::size_t last = (offset + size - 1) >> memory::block_bits;
  return (~std::uint64_t{0} >> (63 - last)) & (~std::uint64_t{0} << first);
}

} // namespace

const memory::page* memory::find_page(std::uint32_t address) const noexcept {
  const std::uint32_t number = page_number(address);
  if (memo_page_ != nullptr && memo_number_ == number) {
    return memo_page_;
  }
  const auto it = pages_.find(number);
  if (it == pages_.end()) {
    return nullptr;
  }
  memo_number_ = number;
  memo_page_ = const_cast<page*>(&it->second);
  return &it->second;
}

memory::page& memory::touch_page(std::uint32_t address) {
  const std::uint32_t number = page_number(address);
  if (memo_page_ != nullptr && memo_number_ == number) {
    return *memo_page_;
  }
  page& p = pages_[number];
  if (p.bytes.empty()) {
    p.bytes.resize(page_size, 0);
  }
  memo_number_ = number;
  memo_page_ = &p;
  return p;
}

std::uint8_t memory::read8(std::uint32_t address) const noexcept {
  const page* p = find_page(address);
  return p ? p->bytes[page_offset(address)] : 0;
}

// An aligned word never straddles a page: one lookup, then the bytes
// assembled little-endian (a single load on little-endian hosts).
std::uint32_t memory::read_word(std::uint32_t address) const noexcept {
  const page* p = find_page(address);
  if (p == nullptr) {
    return 0;
  }
  const std::uint8_t* b = p->bytes.data() + page_offset(address);
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(b[i]) << (8 * i);
  }
  return value;
}

void memory::write_le(std::uint32_t address, std::uint32_t value, int width) {
  page& p = touch_page(address);
  const std::size_t offset = page_offset(address);
  p.dirty |= block_bits_of(offset, 1); // aligned: one block
  std::uint8_t* b = p.bytes.data() + offset;
  for (int i = 0; i < width; ++i) {
    b[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

std::uint16_t memory::read16(std::uint32_t address) const {
  return static_cast<std::uint16_t>(load_with_word(address, 2).value);
}

std::uint32_t memory::read32(std::uint32_t address) const {
  return load_with_word(address, 4).value;
}

void memory::write8(std::uint32_t address, std::uint8_t value) {
  write_le(address, value, 1);
}

void memory::write16(std::uint32_t address, std::uint16_t value) {
  if (address % 2 != 0) {
    throw util::simulation_error("unaligned halfword write");
  }
  write_le(address, value, 2);
}

void memory::write32(std::uint32_t address, std::uint32_t value) {
  if (address % 4 != 0) {
    throw util::simulation_error("unaligned word write");
  }
  write_le(address, value, 4);
}

void memory::load(std::uint32_t base, const std::vector<std::uint8_t>& bytes) {
  load(base, bytes.data(), bytes.size());
}

void memory::load(std::uint32_t base, const std::uint8_t* bytes,
                  std::size_t size) {
  // Page-sized chunks; the address wraps at 4 GiB like byte-wise writes.
  for (std::size_t done = 0; done < size;) {
    const std::uint32_t address = base + static_cast<std::uint32_t>(done);
    const std::size_t offset = page_offset(address);
    const std::size_t chunk = std::min(size - done, page_size - offset);
    page& p = touch_page(address);
    p.dirty |= block_bits_of(offset, chunk);
    std::copy_n(bytes + done, chunk, p.bytes.data() + offset);
    done += chunk;
  }
}

void memory::read(std::uint32_t base, std::uint8_t* bytes,
                  std::size_t size) const noexcept {
  for (std::size_t done = 0; done < size;) {
    const std::uint32_t address = base + static_cast<std::uint32_t>(done);
    const std::size_t offset = page_offset(address);
    const std::size_t chunk = std::min(size - done, page_size - offset);
    if (const page* p = find_page(address)) {
      std::copy_n(p->bytes.data() + offset, chunk, bytes + done);
    } else {
      std::fill_n(bytes + done, chunk, std::uint8_t{0});
    }
    done += chunk;
  }
}

std::uint32_t memory::containing_word(std::uint32_t address) const {
  return load_with_word(address, 1).word;
}

memory::word_load memory::load_with_word(std::uint32_t address,
                                         int width) const {
  if (width == 4 && address % 4 != 0) {
    throw util::simulation_error("unaligned word read");
  }
  if (width == 2 && address % 2 != 0) {
    throw util::simulation_error("unaligned halfword read");
  }
  const std::uint32_t word = read_word(address & ~3U);
  // Little-endian: the value is the word's low bytes from the offset on.
  const std::uint32_t value = word >> (8 * (address & 3U));
  return {width == 4 ? value
                     : value & ((std::uint32_t{1} << (8 * width)) - 1),
          word};
}

std::size_t memory::reset() noexcept {
  std::size_t blocks = 0;
  for (auto& [number, p] : pages_) {
    blocks += static_cast<std::size_t>(std::popcount(p.dirty));
    for (std::uint64_t m = p.dirty; m != 0; m &= m - 1) {
      std::memset(p.bytes.data() +
                      static_cast<std::size_t>(std::countr_zero(m)) *
                          block_size,
                  0, block_size);
    }
    p.dirty = 0;
  }
  return blocks * block_size;
}

} // namespace usca::mem
