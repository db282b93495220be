// CRC-32 (IEEE 802.3 polynomial, reflected) for file-format integrity
// checks.
//
// The chunked trace store writes one checksum per chunk header and per
// chunk payload so that a torn write (killed campaign, full disk) or
// bit rot is detected at open time instead of silently corrupting a
// re-analysis.  Every open CRCs every byte, so the checksum is on the
// replay critical path: a byte-at-a-time table CRC (~270 MB/s) made
// store validation 86% of traced archive-replay time (EXPERIMENTS.md,
// "Hardware CRC-32 for the trace store").  Two kernels therefore sit
// behind crc32(), both bit-identical to the classic table CRC:
//
//  * "clmul" (x86-64 with PCLMULQDQ) — four 128-bit lanes folded with
//    carry-less multiplies, ~16 GB/s; inputs under 64 bytes and the
//    sub-16-byte tail go through the portable kernel;
//  * "portable" — slicing-by-16 over sixteen 256-entry tables,
//    ~1.9 GB/s, on every other target.
//
// The kernel is picked once per process from the CPU's feature bits;
// there is no knob.  Neither kernel reads outside [data, data + size),
// which the mmap'd reader relies on (its last chunk ends at the file
// end).
#ifndef USCA_UTIL_CRC32_H
#define USCA_UTIL_CRC32_H

#include <cstddef>
#include <cstdint>

namespace usca::util {

/// CRC-32 of `size` bytes continuing from `seed` (pass the previous
/// return value to checksum discontiguous regions as one stream).
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0) noexcept;

/// The slicing-by-16 kernel alone, whatever the CPU supports — the same
/// value as crc32(); exposed so tests and benches can reach both paths
/// on one machine.
std::uint32_t crc32_portable(const void* data, std::size_t size,
                             std::uint32_t seed = 0) noexcept;

/// Name of the kernel crc32() dispatches to: "clmul" or "portable".
const char* crc32_kernel() noexcept;

} // namespace usca::util

#endif // USCA_UTIL_CRC32_H
