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
//
// A second loop holds the writer's resume() to the reader: stores of 37
// records in chunks of 8 are truncated, bit-flipped or given zeroed
// runs, then resumed.  Either resume() and a salvage open both throw, or
// resume() keeps exactly the salvage reader's leading run of chunks
// whose indices continue from 0, through the first short chunk; and
// re-appending the lost records then reproduces the uninterrupted file
// byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "power/trace_io.h"
#include "power/trace_store_reader.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/rng.h"
#include "../scratch_path.h"

namespace usca {
namespace {

constexpr std::uint64_t k_file_header = 64;
constexpr std::uint64_t k_chunk_header = 32;
constexpr std::uint64_t k_first_index = 1000;
constexpr int k_iterations = 400;
constexpr int k_resume_iterations = 4000;

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
// The resume loop's shapes: 37 records in chunks of 8 (a short last
// chunk of 5), f32 records of 76 bytes.
constexpr store_shape k_f64_resume = k_f64;
constexpr store_shape k_f32_resume{"f32_resume", power::trace_scalar::f32,
                                   3, 13, 8, 37};

using bytes = std::vector<unsigned char>;

/// One record's labels then samples, as the reader serves them.
using record_bits = std::vector<std::uint64_t>;

std::string store_path(const store_shape& shape) {
  return tests::scratch_path(std::string("trace_store_salvage_fuzz_") +
                             shape.name + ".trc");
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

power::trace_store_descriptor descriptor_of(const store_shape& shape) {
  power::trace_store_descriptor desc;
  desc.scalar = shape.scalar;
  desc.labels = shape.labels;
  desc.samples = shape.samples;
  desc.chunk_traces = shape.chunk_traces;
  desc.first_index = k_first_index;
  desc.seed = 0xf022;
  desc.config_hash = 0xc0ffee;
  return desc;
}

/// Writes a store of random records and returns its bytes.
bytes build_store(const store_shape& shape) {
  const std::string path = store_path(shape);
  std::remove(path.c_str());
  {
    power::trace_store_writer writer =
        power::trace_store_writer::create(path, descriptor_of(shape));
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

struct record_values {
  std::vector<double> labels;
  std::vector<double> samples;
};

/// Records a resume may keep: the salvage reader's leading chunks whose
/// indices continue from 0, through the first short chunk.
std::size_t leading_run(const power::trace_store_reader& reader) {
  std::size_t records = 0;
  for (std::size_t c = 0; c < reader.chunk_count(); ++c) {
    const power::batch_rows rows = reader.chunk_rows(c);
    if (rows.first_record != records) {
      break;
    }
    records += rows.count;
    if (rows.count < reader.descriptor().chunk_traces) {
      break;
    }
  }
  return records;
}

/// Writes `data` to `path`, resumes it and checks the resume contract.
/// Returns true when resume() agreed with the reader's leading run, false
/// when both threw.
bool check_resume(const std::string& path, const bytes& data,
                  const bytes& pristine, const store_shape& shape,
                  const std::vector<record_values>& original,
                  const std::string& what) {
  write_file(path, data);
  std::optional<std::size_t> kept;
  if (data.empty()) {
    kept = 0; // an empty file resumes like create()
  } else {
    try {
      const power::trace_store_reader reader(
          path, power::store_open_mode::salvage);
      kept = leading_run(reader);
    } catch (const util::analysis_error&) {
    }
  }
  std::optional<power::trace_store_writer> writer;
  try {
    writer.emplace(
        power::trace_store_writer::resume(path, descriptor_of(shape)));
  } catch (const util::analysis_error&) {
  }
  EXPECT_EQ(writer.has_value(), kept.has_value())
      << what << ": resume() and the salvage reader disagree on throwing";
  if (!writer || !kept) {
    return false;
  }
  EXPECT_EQ(writer->next_index(), k_first_index + *kept) << what;
  for (std::size_t i = writer->next_index() - k_first_index;
       i < original.size(); ++i) {
    writer->append(original[i].labels, original[i].samples);
  }
  writer->close();
  EXPECT_TRUE(read_file(path) == pristine)
      << what << ": resumed file differs from the uninterrupted one";
  return true;
}

void fuzz_resume(const store_shape& shape, std::uint64_t seed) {
  const bytes pristine = build_store(shape);
  const std::string path = store_path(shape);
  write_file(path, pristine);
  std::vector<record_values> original;
  {
    const power::trace_store_reader reader(path);
    reader.stream([&](std::size_t, std::span<const double> labels,
                      std::span<const double> samples) {
      original.push_back({{labels.begin(), labels.end()},
                          {samples.begin(), samples.end()}});
    });
  }
  ASSERT_EQ(original.size(), shape.records);

  util::xoshiro256 rng(seed);
  int agreed = 0;
  for (int it = 0; it < k_resume_iterations; ++it) {
    bytes data = pristine;
    std::string what = std::string(shape.name) + " resume iteration " +
                       std::to_string(it) + ": ";
    switch (rng.bounded(3)) {
    case 0: {
      const std::uint64_t size = rng.bounded(data.size());
      data.resize(size);
      what += "truncate to " + std::to_string(size);
      break;
    }
    case 1: {
      const std::uint64_t flips = 1 + rng.bounded(3);
      for (std::uint64_t f = 0; f < flips; ++f) {
        const std::uint64_t at = rng.bounded(data.size());
        data[at] ^= static_cast<unsigned char>(1U << rng.bounded(8));
        what += "bit flip@" + std::to_string(at) + " ";
      }
      break;
    }
    default: {
      const std::uint64_t at = rng.bounded(data.size());
      const std::uint64_t run =
          std::min<std::uint64_t>(1 + rng.bounded(80), data.size() - at);
      std::fill_n(data.begin() + static_cast<std::ptrdiff_t>(at), run, 0);
      what += "zeroed " + std::to_string(run) + " bytes@" +
              std::to_string(at);
      break;
    }
    }
    agreed += check_resume(path, data, pristine, shape, original, what);
    if (testing::Test::HasFailure()) {
      break;
    }
  }
  // Most mutations leave the file header intact, so most cases must
  // exercise the keep-and-re-append path rather than the double throw.
  EXPECT_GT(agreed, k_resume_iterations / 2);
  std::remove(path.c_str());
  std::remove((path + ".quarantine").c_str());
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

TEST(TraceStoreSalvageFuzz, MutatedF64StoresResumeToTheReadersLeadingRun) {
  fuzz_resume(k_f64_resume, 0x2e5f64);
}

TEST(TraceStoreSalvageFuzz, MutatedF32StoresResumeToTheReadersLeadingRun) {
  fuzz_resume(k_f32_resume, 0x2e5f32);
}

} // namespace
} // namespace usca
