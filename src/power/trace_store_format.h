// The trace store's on-disk format, defined once: magic numbers, header
// sizes, field offsets and the little-endian field accessors.  Internal
// to power/: the writer (trace_io.cpp) owns the encoder, the mmap reader
// (trace_store_reader.cpp) owns the decoder and all validation, and
// nothing else reads or writes store bytes.
//
// Store layout (all little endian):
//
//   file_header (64 bytes)
//     char      magic[8]   = "USCATRC2"
//     u32       version    = 2
//     u32       scalar     (0 = float64, 1 = float32 samples)
//     u64       samples    per trace
//     u32       labels     per trace (always stored as float64)
//     u32       chunk_traces  nominal records per chunk (last may be short)
//     u64       seed          campaign master seed
//     u64       config_hash   hash of the producing configuration
//     u64       first_index   global index of record 0
//     u32       reserved   = 0
//     u32       header_crc    CRC-32 of the preceding 60 bytes
//
//   chunk*  — each:
//     chunk_header (32 bytes)
//       u32     magic      = "CHNK"
//       u32     trace_count
//       u64     first_index   global index of the chunk's first record
//       u64     payload_bytes = trace_count * record_bytes
//       u32     payload_crc   CRC-32 of the payload
//       u32     header_crc    CRC-32 of the preceding 28 bytes
//     payload — trace_count records, each:
//       labels  × f64,  samples × (f64 | f32)
//
// Both header sizes are multiples of 8 and a float64 record is too, so
// every record of an f64 store is 8-byte aligned in the file.
#ifndef USCA_POWER_TRACE_STORE_FORMAT_H
#define USCA_POWER_TRACE_STORE_FORMAT_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace usca::power::store_format {

static_assert(std::endian::native == std::endian::little,
              "the trace store is defined little endian and this "
              "implementation serializes by memcpy");

inline constexpr char magic[8] = {'U', 'S', 'C', 'A', 'T', 'R', 'C', '2'};
inline constexpr std::uint32_t version = 2;
inline constexpr std::uint32_t chunk_magic = 0x4b4e4843; // "CHNK"

inline constexpr std::size_t file_header_bytes = 64;
inline constexpr std::size_t chunk_header_bytes = 32;

// File header field offsets.
inline constexpr std::size_t hdr_version = 8;
inline constexpr std::size_t hdr_scalar = 12;
inline constexpr std::size_t hdr_samples = 16;
inline constexpr std::size_t hdr_labels = 24;
inline constexpr std::size_t hdr_chunk_traces = 28;
inline constexpr std::size_t hdr_seed = 32;
inline constexpr std::size_t hdr_config_hash = 40;
inline constexpr std::size_t hdr_first_index = 48;
inline constexpr std::size_t hdr_crc = 60; ///< covers bytes [0, 60)

// Chunk header field offsets.
inline constexpr std::size_t chk_count = 4;
inline constexpr std::size_t chk_first_index = 8;
inline constexpr std::size_t chk_payload_bytes = 16;
inline constexpr std::size_t chk_payload_crc = 24;
inline constexpr std::size_t chk_crc = 28; ///< covers bytes [0, 28)

template <typename T>
void put(unsigned char* buf, std::size_t offset, T value) noexcept {
  std::memcpy(buf + offset, &value, sizeof value);
}

template <typename T>
T get(const unsigned char* buf, std::size_t offset) noexcept {
  T value{};
  std::memcpy(&value, buf + offset, sizeof value);
  return value;
}

} // namespace usca::power::store_format

#endif // USCA_POWER_TRACE_STORE_FORMAT_H
