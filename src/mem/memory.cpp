#include "mem/memory.h"

#include <algorithm>

#include "util/error.h"

namespace usca::mem {

namespace {

constexpr std::uint32_t page_number(std::uint32_t address) noexcept {
  return address >> memory::page_bits;
}

constexpr std::size_t page_offset(std::uint32_t address) noexcept {
  return address & (memory::page_size - 1);
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
  if (p.empty()) {
    p.resize(page_size, 0);
  }
  memo_number_ = number;
  memo_page_ = &p;
  return p;
}

std::uint8_t memory::read8(std::uint32_t address) const noexcept {
  const page* p = find_page(address);
  return p ? (*p)[page_offset(address)] : 0;
}

// Aligned halfwords and words never straddle a page: one lookup, then
// the bytes assembled little-endian (a single load on little-endian
// hosts).

std::uint32_t memory::read_le(std::uint32_t address, int width) const noexcept {
  const page* p = find_page(address);
  if (p == nullptr) {
    return 0;
  }
  const std::uint8_t* b = p->data() + page_offset(address);
  std::uint32_t value = 0;
  for (int i = 0; i < width; ++i) {
    value |= static_cast<std::uint32_t>(b[i]) << (8 * i);
  }
  return value;
}

void memory::write_le(std::uint32_t address, std::uint32_t value, int width) {
  std::uint8_t* b = touch_page(address).data() + page_offset(address);
  for (int i = 0; i < width; ++i) {
    b[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

std::uint16_t memory::read16(std::uint32_t address) const {
  if (address % 2 != 0) {
    throw util::simulation_error("unaligned halfword read");
  }
  return static_cast<std::uint16_t>(read_le(address, 2));
}

std::uint32_t memory::read32(std::uint32_t address) const {
  if (address % 4 != 0) {
    throw util::simulation_error("unaligned word read");
  }
  return read_le(address, 4);
}

void memory::write8(std::uint32_t address, std::uint8_t value) {
  touch_page(address)[page_offset(address)] = value;
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
    const std::size_t chunk =
        std::min(size - done, page_size - page_offset(address));
    std::copy_n(bytes + done, chunk,
                touch_page(address).data() + page_offset(address));
    done += chunk;
  }
}

std::uint32_t memory::containing_word(std::uint32_t address) const {
  return read32(address & ~3U);
}

void memory::clear() noexcept {
  pages_.clear();
  memo_page_ = nullptr;
}

void memory::reset() noexcept {
  for (auto& [number, bytes] : pages_) {
    std::fill(bytes.begin(), bytes.end(), std::uint8_t{0});
  }
}

} // namespace usca::mem
