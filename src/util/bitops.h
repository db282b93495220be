// Bit-level primitives used throughout the leakage models.
//
// Side-channel power models in this repository are expressed as Hamming
// weights of values asserted on a set of wires (zero-precharged networks)
// or Hamming distances between consecutive values on the same wires
// (CMOS switching activity).  These helpers are the single definition of
// those primitives.
#ifndef USCA_UTIL_BITOPS_H
#define USCA_UTIL_BITOPS_H

#include <bit>
#include <cstdint>

namespace usca::util {

/// Number of set bits (Hamming weight) of a 32-bit word.
constexpr int hamming_weight(std::uint32_t value) noexcept {
  return std::popcount(value);
}

/// Number of set bits of a 64-bit word.
constexpr int hamming_weight64(std::uint64_t value) noexcept {
  return std::popcount(value);
}

/// Number of differing bits between two words: the switching activity of a
/// 32-bit bus transitioning from `before` to `after`.
constexpr int hamming_distance(std::uint32_t before,
                               std::uint32_t after) noexcept {
  return std::popcount(before ^ after);
}

/// Rotate left; `amount` is taken modulo 32.
constexpr std::uint32_t rotate_left(std::uint32_t value,
                                    unsigned amount) noexcept {
  return std::rotl(value, static_cast<int>(amount & 31U));
}

/// Extract the byte `index` (0 = least significant) of a word.
constexpr std::uint8_t byte_of(std::uint32_t value, unsigned index) noexcept {
  return static_cast<std::uint8_t>(value >> (8U * (index & 3U)));
}

/// Extract the halfword `index` (0 = least significant) of a word.
constexpr std::uint16_t half_of(std::uint32_t value, unsigned index) noexcept {
  return static_cast<std::uint16_t>(value >> (16U * (index & 1U)));
}

/// True if `value` fits an ARM-style modified immediate: an 8-bit constant
/// rotated right by an even amount.  Used by the assembler to validate
/// data-processing immediates.
bool is_arm_immediate(std::uint32_t value) noexcept;

} // namespace usca::util

#endif // USCA_UTIL_BITOPS_H
