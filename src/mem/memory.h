// Flat byte-addressable memory with sparse page allocation.
//
// The simulated system is single-address-space, little-endian.  Pages are
// allocated on first touch so that programs with a high data base (default
// 0x10000) do not cost memory for the unused gap.  Sub-word accesses are
// supported directly; word accesses must be 4-byte aligned (the pipeline
// model does not split unaligned accesses, matching the deterministic
// micro-benchmarks of the paper), so every access lies in one page and
// costs one page lookup.
//
// Every page keeps a mask of its 64-byte blocks written since the last
// reset(), so restoring the all-zero state between two simulated traces
// costs the blocks the trace wrote, not the pages it touched.
#ifndef USCA_MEM_MEMORY_H
#define USCA_MEM_MEMORY_H

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace usca::mem {

class memory {
public:
  static constexpr std::size_t page_bits = 12;
  static constexpr std::size_t page_size = std::size_t{1} << page_bits;
  /// Granule of reset(): one bit of a page's dirty mask per block.
  static constexpr std::size_t block_bits = 6;
  static constexpr std::size_t block_size = std::size_t{1} << block_bits;
  static_assert(page_size / block_size == 64, "one 64-bit mask per page");

  memory() = default;
  // The lookup memo points into pages_, so copies must not inherit it
  // (moves may: map nodes keep their addresses across a move).
  memory(const memory& other) : pages_(other.pages_) {}
  memory& operator=(const memory& other) {
    pages_ = other.pages_;
    memo_page_ = nullptr;
    return *this;
  }
  memory(memory&&) = default;
  memory& operator=(memory&&) = default;

  std::uint8_t read8(std::uint32_t address) const noexcept;
  std::uint16_t read16(std::uint32_t address) const;
  std::uint32_t read32(std::uint32_t address) const;

  void write8(std::uint32_t address, std::uint8_t value);
  void write16(std::uint32_t address, std::uint16_t value);
  void write32(std::uint32_t address, std::uint32_t value);

  /// Bulk load (used to install a program's data image), copied a page
  /// at a time; equivalent to write8 of every byte in order.
  void load(std::uint32_t base, const std::vector<std::uint8_t>& bytes);
  void load(std::uint32_t base, const std::uint8_t* bytes, std::size_t size);
  /// Bulk read, load()'s inverse: [base, base+size) copied out a page at a
  /// time, never-written addresses as zero; equivalent to read8 of every
  /// byte in order.
  void read(std::uint32_t base, std::uint8_t* bytes,
            std::size_t size) const noexcept;

  /// Reads the aligned 32-bit word containing `address` — the value the
  /// memory data register (MDR) observes on any access, including
  /// sub-word ones; central to the paper's MDR leakage model.
  std::uint32_t containing_word(std::uint32_t address) const;

  /// A load as the pipeline sees it: the `width`-byte value (1, 2 or 4)
  /// and the containing word the MDR observes.
  struct word_load {
    std::uint32_t value;
    std::uint32_t word;
  };
  /// read8/read16/read32 (by `width`) and containing_word of the same
  /// address from one page lookup; throws on misalignment as they do.
  word_load load_with_word(std::uint32_t address, int width) const;

  /// Restores the all-zero state while keeping the page allocations: the
  /// blocks written since the last reset() are zero-filled in place.
  /// Observationally equivalent to a freshly constructed memory
  /// (untouched addresses read as zero either way) but without freeing —
  /// the building block of the cores' allocation-free reset.  Returns the
  /// bytes it zeroed.
  std::size_t reset() noexcept;

private:
  struct page {
    std::vector<std::uint8_t> bytes;
    std::uint64_t dirty = 0; ///< bit b: block b written since reset()
  };

  const page* find_page(std::uint32_t address) const noexcept;
  page& touch_page(std::uint32_t address);
  /// Little-endian value of the aligned word at `address`.
  std::uint32_t read_word(std::uint32_t address) const noexcept;
  void write_le(std::uint32_t address, std::uint32_t value, int width);

  std::unordered_map<std::uint32_t, page> pages_;
  // One-entry lookup memo for the hot sequential-access pattern (AES state
  // and S-box share few pages).  Node pointers of an unordered_map stay
  // valid across inserts/rehash and no page is ever erased, so only a
  // copy drops the memo.  Purely an access-path cache: no observable
  // behaviour change.
  mutable std::uint32_t memo_number_ = 0;
  mutable page* memo_page_ = nullptr;
};

} // namespace usca::mem

#endif // USCA_MEM_MEMORY_H
