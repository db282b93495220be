// Seeded mutation fuzz of the trace store reader.  Small f64 and f32
// stores are damaged at random — byte flips, truncation at any length,
// and header fields forged with their CRC recomputed so the damage gets
// past the checksum — and reopened in both modes:
//
//  * strict: either throws util::analysis_error, or serves only records
//    bit-identical to the original record with the same global index
//    (a cut exactly on a chunk boundary is a valid shorter store and
//    must open);
//  * salvage: never crashes, and every record it serves is bit-identical
//    to the original record with the same global index.
//
// The payload lengths are chosen so the CRC kernels see both whole
// 16-byte blocks and ragged tails, and every mutated file is mapped at
// its exact size, so an ASan build also catches a reader or checksum
// read past the end of the mapping.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "power/trace_io.h"
#include "power/trace_store_reader.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/rng.h"

namespace usca {
namespace {

constexpr std::uint64_t k_file_header = 64;
constexpr std::uint64_t k_chunk_header = 32;
constexpr std::uint64_t k_first_index = 1000;
constexpr int k_iterations = 400;

struct store_shape {
  const char* name;
  power::trace_scalar scalar;
  std::uint32_t labels;
  std::uint64_t samples;
  std::uint32_t chunk_traces;
  std::size_t records;
};

// f64: 64-byte records, 512-byte payloads (whole CRC blocks).
// f32: 76-byte records, 380-byte payloads (a 12-byte CRC tail).
constexpr store_shape k_f64{"f64", power::trace_scalar::f64, 2, 6, 8, 37};
constexpr store_shape k_f32{"f32", power::trace_scalar::f32, 3, 13, 5, 23};

using bytes = std::vector<unsigned char>;

/// One record's labels then samples, as the reader serves them.
using record_bits = std::vector<std::uint64_t>;

std::string store_path(const store_shape& shape) {
  return std::string("/tmp/usca_trace_store_salvage_fuzz_") + shape.name +
         ".trc";
}

bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return bytes(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const bytes& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(out.good());
}

record_bits to_bits(std::span<const double> labels,
                    std::span<const double> samples) {
  record_bits bits;
  for (const double v : labels) {
    bits.push_back(std::bit_cast<std::uint64_t>(v));
  }
  for (const double v : samples) {
    bits.push_back(std::bit_cast<std::uint64_t>(v));
  }
  return bits;
}

/// Writes a store of random records and returns its bytes.
bytes build_store(const store_shape& shape) {
  power::trace_store_descriptor desc;
  desc.scalar = shape.scalar;
  desc.labels = shape.labels;
  desc.samples = shape.samples;
  desc.chunk_traces = shape.chunk_traces;
  desc.first_index = k_first_index;
  desc.seed = 0xf022;
  desc.config_hash = 0xc0ffee;
  const std::string path = store_path(shape);
  std::remove(path.c_str());
  {
    power::trace_store_writer writer =
        power::trace_store_writer::create(path, desc);
    util::xoshiro256 rng(0x5a1f);
    std::vector<double> labels(shape.labels), samples(shape.samples);
    for (std::size_t i = 0; i < shape.records; ++i) {
      for (double& v : labels) {
        v = static_cast<double>(rng.bounded(256));
      }
      for (double& v : samples) {
        v = rng.next_gaussian();
      }
      writer.append(labels, samples);
    }
    writer.close();
  }
  bytes data = read_file(path);
  std::remove(path.c_str());
  return data;
}

/// Every record of the intact store at `path`, in index order.
std::vector<record_bits> records_of(const std::string& path) {
  std::vector<record_bits> records;
  const power::trace_store_reader reader(path);
  reader.stream([&](std::size_t, std::span<const double> labels,
                    std::span<const double> samples) {
    records.push_back(to_bits(labels, samples));
  });
  return records;
}

/// Records served by `reader`, checked against `original` by global
/// index; returns how many were served.
std::size_t expect_original_rows(const power::trace_store_reader& reader,
                                 const std::vector<record_bits>& original,
                                 const std::string& what) {
  std::size_t served = 0;
  reader.stream([&](std::size_t global, std::span<const double> labels,
                    std::span<const double> samples) {
    ++served;
    ASSERT_GE(global, k_first_index) << what;
    ASSERT_LT(global - k_first_index, original.size()) << what;
    EXPECT_EQ(to_bits(labels, samples), original[global - k_first_index])
        << what << ": record " << global << " served altered";
  });
  return served;
}

/// Opens `path` in both modes and checks the fuzz contract.  Returns the
/// record count of a successful strict open, or -1 when it threw.
long check_open(const std::string& path,
                const std::vector<record_bits>& original,
                const std::string& what) {
  long strict_rows = -1;
  try {
    const power::trace_store_reader reader(path);
    strict_rows =
        static_cast<long>(expect_original_rows(reader, original, what));
    EXPECT_EQ(static_cast<std::size_t>(strict_rows), reader.traces()) << what;
  } catch (const util::analysis_error&) {
  }
  try {
    const power::trace_store_reader reader(path,
                                           power::store_open_mode::salvage);
    EXPECT_EQ(expect_original_rows(reader, original, what), reader.traces())
        << what;
    if (strict_rows >= 0) {
      EXPECT_EQ(reader.traces(), static_cast<std::size_t>(strict_rows))
          << what << ": salvage lost records a strict open accepted";
    }
  } catch (const util::analysis_error&) {
    // Only file-header damage may reject a salvage open, and that
    // rejects a strict open too.
    EXPECT_EQ(strict_rows, -1) << what;
  }
  return strict_rows;
}

template <typename T>
void put(bytes& data, std::uint64_t offset, T value) {
  std::memcpy(data.data() + offset, &value, sizeof value);
}

template <typename T> T get(const bytes& data, std::uint64_t offset) {
  T value{};
  std::memcpy(&value, data.data() + offset, sizeof value);
  return value;
}

/// A plausible-or-wild replacement for a header field.
template <typename T> T forge_value(T old, util::xoshiro256& rng) {
  switch (rng.bounded(4)) {
  case 0:
    return static_cast<T>(rng());
  case 1:
    return static_cast<T>(old + 1 + rng.bounded(3));
  case 2:
    return static_cast<T>(old - 1 - rng.bounded(3));
  default:
    return static_cast<T>(old ^ (T{1} << rng.bounded(sizeof(T) * 8)));
  }
}

/// Rewrites one field of the file header or of one chunk header and
/// recomputes that header's CRC, so only the reader's structural checks
/// stand between the forgery and the served records.
std::string forge_header(bytes& data, const store_shape& shape,
                         util::xoshiro256& rng) {
  const std::uint64_t scalar_bytes =
      shape.scalar == power::trace_scalar::f32 ? 4 : 8;
  const std::uint64_t stride =
      k_chunk_header +
      shape.chunk_traces * (shape.labels * 8 + shape.samples * scalar_bytes);
  const std::uint64_t chunks = (data.size() - k_file_header + stride - 1) /
                               stride;
  if (rng.bounded(3) == 0) {
    // File header: scalar, samples, labels, chunk_traces, seed,
    // config_hash, first_index.
    constexpr std::uint64_t fields[] = {12, 16, 24, 28, 32, 40, 48};
    const std::uint64_t at = fields[rng.bounded(std::size(fields))];
    if (at == 16 || at >= 32) {
      put(data, at, forge_value(get<std::uint64_t>(data, at), rng));
    } else {
      put(data, at, forge_value(get<std::uint32_t>(data, at), rng));
    }
    put(data, 60, util::crc32(data.data(), 60));
    return "file header field " + std::to_string(at);
  }
  // Chunk header: count, first_index, payload_bytes, payload CRC.
  const std::uint64_t chunk = rng.bounded(chunks);
  const std::uint64_t base = k_file_header + chunk * stride;
  constexpr std::uint64_t fields[] = {4, 8, 16, 24};
  const std::uint64_t at = fields[rng.bounded(std::size(fields))];
  if (at == 8 || at == 16) {
    put(data, base + at,
        forge_value(get<std::uint64_t>(data, base + at), rng));
  } else {
    put(data, base + at,
        forge_value(get<std::uint32_t>(data, base + at), rng));
  }
  put(data, base + 28, util::crc32(data.data() + base, 28));
  return "chunk " + std::to_string(chunk) + " header field " +
         std::to_string(at);
}

void fuzz_store(const store_shape& shape, std::uint64_t seed) {
  const bytes pristine = build_store(shape);
  const std::string path = store_path(shape);
  write_file(path, pristine);
  const std::vector<record_bits> original = records_of(path);
  ASSERT_EQ(original.size(), shape.records);

  util::xoshiro256 rng(seed);
  for (int it = 0; it < k_iterations; ++it) {
    bytes data = pristine;
    std::string what = std::string(shape.name) + " iteration " +
                       std::to_string(it) + ": ";
    switch (rng.bounded(3)) {
    case 0: {
      const std::uint64_t flips = 1 + rng.bounded(3);
      for (std::uint64_t f = 0; f < flips; ++f) {
        const std::uint64_t at = rng.bounded(data.size());
        data[at] ^= static_cast<unsigned char>(1 + rng.bounded(255));
        what += "flip@" + std::to_string(at) + " ";
      }
      break;
    }
    case 1: {
      const std::uint64_t size = rng.bounded(data.size());
      data.resize(size);
      what += "truncate to " + std::to_string(size);
      break;
    }
    default:
      what += "forged " + forge_header(data, shape, rng);
      break;
    }
    write_file(path, data);
    check_open(path, original, what);
    if (testing::Test::HasFailure()) {
      break;
    }
  }
  std::remove(path.c_str());
}

/// Every cut on a chunk boundary is a valid shorter store: a strict open
/// succeeds and serves exactly the original prefix.
void cut_at_every_chunk_boundary(const store_shape& shape) {
  const bytes pristine = build_store(shape);
  const std::string path = store_path(shape);
  write_file(path, pristine);
  const std::vector<record_bits> original = records_of(path);
  std::uint64_t offset = k_file_header;
  std::size_t records = 0;
  while (true) {
    bytes data(pristine.begin(),
               pristine.begin() + static_cast<std::ptrdiff_t>(offset));
    write_file(path, data);
    const std::string what = std::string(shape.name) + " cut at " +
                             std::to_string(offset);
    EXPECT_EQ(check_open(path, original, what),
              static_cast<long>(records))
        << what;
    if (offset == pristine.size()) {
      break;
    }
    const std::uint32_t count = get<std::uint32_t>(pristine, offset + 4);
    offset += k_chunk_header + get<std::uint64_t>(pristine, offset + 16);
    records += count;
  }
  EXPECT_EQ(records, shape.records);
  std::remove(path.c_str());
}

TEST(TraceStoreSalvageFuzz, CutsOnChunkBoundariesAreValidStores) {
  cut_at_every_chunk_boundary(k_f64);
  cut_at_every_chunk_boundary(k_f32);
}

TEST(TraceStoreSalvageFuzz, MutatedF64StoresNeverServeAlteredRecords) {
  fuzz_store(k_f64, 0xf64f64);
}

TEST(TraceStoreSalvageFuzz, MutatedF32StoresNeverServeAlteredRecords) {
  fuzz_store(k_f32, 0xf32f32);
}

} // namespace
} // namespace usca
