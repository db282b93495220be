// Tests for salvage-mode store reading: the corruption taxonomy (file
// header bit-flip, chunk header bit-flip, payload bit-flip, mid-chunk
// truncation) must produce exact damage maps in salvage mode and
// diagnostic-rich throws in strict mode, while every surviving record
// replays bit-exactly with its original global index.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include <unistd.h>

#include "power/trace_io.h"
#include "power/trace_store_reader.h"
#include "util/error.h"
#include "../scratch_path.h"

namespace usca {
namespace {

constexpr std::size_t k_labels = 2;
constexpr std::size_t k_samples = 6;
constexpr std::uint32_t k_chunk_traces = 8;
constexpr std::size_t k_records = 37; // 4 full chunks + a 5-record tail
constexpr std::uint64_t k_file_header = 64;
constexpr std::uint64_t k_chunk_header = 32;

power::trace_store_descriptor test_descriptor(power::trace_scalar scalar) {
  power::trace_store_descriptor desc;
  desc.samples = k_samples;
  desc.labels = k_labels;
  desc.scalar = scalar;
  desc.chunk_traces = k_chunk_traces;
  desc.seed = 0xfab;
  desc.config_hash = 0x5eed;
  return desc;
}

double label_of(std::size_t record, std::size_t l) {
  return static_cast<double>(record * 10 + l);
}

double sample_of(std::size_t record, std::size_t s,
                 power::trace_scalar scalar) {
  const double value = static_cast<double>(record * 1000 + s);
  return scalar == power::trace_scalar::f32
             ? static_cast<double>(static_cast<float>(value))
             : value;
}

std::string build_store(const char* name, power::trace_scalar scalar =
                                              power::trace_scalar::f64) {
  const std::string path =
      tests::scratch_path(std::string("salvage_test_") + name + ".trc");
  std::remove(path.c_str());
  power::trace_store_writer writer =
      power::trace_store_writer::create(path, test_descriptor(scalar));
  std::vector<double> labels(k_labels), samples(k_samples);
  for (std::size_t i = 0; i < k_records; ++i) {
    for (std::size_t l = 0; l < k_labels; ++l) {
      labels[l] = label_of(i, l);
    }
    for (std::size_t s = 0; s < k_samples; ++s) {
      samples[s] = static_cast<double>(i * 1000 + s);
    }
    writer.append(labels, samples);
  }
  writer.close();
  return path;
}

/// Byte offset of chunk `c`'s header for the test store's geometry.
std::uint64_t chunk_offset(std::uint64_t c, power::trace_scalar scalar) {
  const std::uint64_t stride =
      k_chunk_header + k_chunk_traces * test_descriptor(scalar).record_bytes();
  return k_file_header + c * stride;
}

void flip_byte(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  byte ^= 0x20;
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
}

void truncate_to(const std::string& path, std::uint64_t size) {
  ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(size)), 0);
}

/// Asserts that the surviving records are exactly `expected` (original
/// global indices) and that each replays its original bits.
void expect_survivors(const power::trace_store_reader& reader,
                      const std::vector<std::size_t>& expected) {
  ASSERT_EQ(reader.traces(), expected.size());
  std::size_t at = 0;
  reader.stream([&](std::size_t index, std::span<const double> labels,
                    std::span<const double> samples) {
    ASSERT_LT(at, expected.size());
    EXPECT_EQ(index, expected[at]);
    for (std::size_t l = 0; l < labels.size(); ++l) {
      EXPECT_EQ(labels[l], label_of(index, l));
    }
    for (std::size_t s = 0; s < samples.size(); ++s) {
      EXPECT_EQ(samples[s], sample_of(index, s, reader.descriptor().scalar));
    }
    ++at;
  });
  EXPECT_EQ(at, expected.size());
}

std::vector<std::size_t> all_but_chunk(std::size_t lost_chunk) {
  std::vector<std::size_t> survivors;
  for (std::size_t i = 0; i < k_records; ++i) {
    if (i / k_chunk_traces != lost_chunk) {
      survivors.push_back(i);
    }
  }
  return survivors;
}

TEST(Salvage, IntactStoreHasEmptyDamageMap) {
  const std::string path = build_store("intact");
  const power::trace_store_reader reader(path,
                                         power::store_open_mode::salvage);
  EXPECT_TRUE(reader.intact());
  EXPECT_TRUE(reader.damage().empty());
  EXPECT_EQ(reader.lost_records(), 0u);
  std::vector<std::size_t> everything;
  for (std::size_t i = 0; i < k_records; ++i) {
    everything.push_back(i);
  }
  expect_survivors(reader, everything);
  std::remove(path.c_str());
}

TEST(Salvage, FileHeaderDamageIsFatalInBothModes) {
  const std::string path = build_store("file_header");
  flip_byte(path, 2); // inside the magic
  // No salvage is possible without a trusted file header: the geometry
  // that locates every chunk lives there.
  for (const auto mode :
       {power::store_open_mode::strict, power::store_open_mode::salvage}) {
    try {
      const power::trace_store_reader reader(path, mode);
      FAIL() << "damaged file header must throw";
    } catch (const util::analysis_error& e) {
      const std::string what = e.what();
      // The open-failure diagnostics contract: path, byte offset and
      // failure class in every validation error.
      EXPECT_NE(what.find(path), std::string::npos) << what;
      EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
      EXPECT_NE(what.find("fault file_"), std::string::npos) << what;
    }
  }
  std::remove(path.c_str());
}

TEST(Salvage, ChunkHeaderMagicFlipLosesExactlyThatChunk) {
  const std::string path = build_store("chunk_magic");
  const std::uint64_t offset = chunk_offset(2, power::trace_scalar::f64);
  flip_byte(path, offset); // chunk 2's "CHNK" magic

  EXPECT_THROW(power::trace_store_reader{path}, util::analysis_error);

  const power::trace_store_reader reader(path,
                                         power::store_open_mode::salvage);
  ASSERT_EQ(reader.damage().size(), 1u); // exactly that chunk
  const power::chunk_damage& d = reader.damage().front();
  EXPECT_EQ(d.chunk, 2u);
  EXPECT_EQ(d.byte_offset, offset);
  EXPECT_EQ(d.fault, power::store_fault::chunk_bad_magic);
  EXPECT_FALSE(reader.intact());
  EXPECT_EQ(reader.lost_records(), k_chunk_traces);
  EXPECT_EQ(reader.next_index(), k_records); // holes don't shrink the range
  expect_survivors(reader, all_but_chunk(2));
  std::remove(path.c_str());
}

TEST(Salvage, ChunkHeaderFieldFlipFailsTheHeaderCrc) {
  const std::string path = build_store("chunk_field");
  const std::uint64_t offset = chunk_offset(1, power::trace_scalar::f64);
  flip_byte(path, offset + 16); // payload_bytes field: magic ok, CRC not

  try {
    const power::trace_store_reader reader(path);
    FAIL() << "strict open of a damaged store must throw";
  } catch (const util::analysis_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("chunk 1"), std::string::npos) << what;
    EXPECT_NE(what.find("fault chunk_header_crc"), std::string::npos)
        << what;
  }

  const power::trace_store_reader reader(path,
                                         power::store_open_mode::salvage);
  ASSERT_EQ(reader.damage().size(), 1u);
  EXPECT_EQ(reader.damage().front().chunk, 1u);
  EXPECT_EQ(reader.damage().front().fault,
            power::store_fault::chunk_header_crc);
  expect_survivors(reader, all_but_chunk(1));
  std::remove(path.c_str());
}

TEST(Salvage, PayloadBitRotFailsThePayloadCrc) {
  const std::string path = build_store("payload");
  const std::uint64_t offset =
      chunk_offset(3, power::trace_scalar::f64) + k_chunk_header + 100;
  flip_byte(path, offset);

  EXPECT_THROW(power::trace_store_reader{path}, util::analysis_error);

  const power::trace_store_reader reader(path,
                                         power::store_open_mode::salvage);
  ASSERT_EQ(reader.damage().size(), 1u);
  const power::chunk_damage& d = reader.damage().front();
  EXPECT_EQ(d.chunk, 3u);
  EXPECT_EQ(d.fault, power::store_fault::chunk_payload_crc);
  // Trusted header: the skip is the chunk's exact extent.
  EXPECT_EQ(d.bytes_skipped,
            k_chunk_header +
                k_chunk_traces *
                    test_descriptor(power::trace_scalar::f64).record_bytes());
  expect_survivors(reader, all_but_chunk(3));
  // The hole is stepped over: its neighbours keep their original
  // record positions, and no chunk serves the lost range.
  EXPECT_EQ(reader.chunk_rows(2).first_record, 2 * k_chunk_traces);
  EXPECT_EQ(reader.chunk_rows(2).labels[0], label_of(2 * k_chunk_traces, 0));
  EXPECT_EQ(reader.chunk_rows(3).first_record, 4 * k_chunk_traces);
  EXPECT_THROW(reader.chunk_rows(reader.chunk_count()),
               util::analysis_error);
  std::remove(path.c_str());
}

TEST(Salvage, MidChunkTruncationKeepsThePrefix) {
  const std::string path = build_store("truncated");
  const std::uint64_t tail = chunk_offset(4, power::trace_scalar::f64);
  truncate_to(path, tail + k_chunk_header + 100); // mid-payload of chunk 4

  EXPECT_THROW(power::trace_store_reader{path}, util::analysis_error);

  const power::trace_store_reader reader(path,
                                         power::store_open_mode::salvage);
  ASSERT_EQ(reader.damage().size(), 1u);
  EXPECT_EQ(reader.damage().front().chunk, 4u);
  EXPECT_EQ(reader.damage().front().fault,
            power::store_fault::chunk_truncated);
  EXPECT_EQ(reader.traces(), 4u * k_chunk_traces);
  // A torn TAIL is not a hole: next_index() stops at the last surviving
  // record (the archive resume point), so nothing counts as lost.
  EXPECT_EQ(reader.next_index(), 4u * k_chunk_traces);
  EXPECT_EQ(reader.lost_records(), 0u);
  expect_survivors(reader, all_but_chunk(4));

  // Cut inside the chunk header instead: a torn-header class.
  const std::string torn = build_store("torn_header");
  truncate_to(torn, tail + 10);
  const power::trace_store_reader torn_reader(
      torn, power::store_open_mode::salvage);
  ASSERT_EQ(torn_reader.damage().size(), 1u);
  EXPECT_EQ(torn_reader.damage().front().fault,
            power::store_fault::chunk_torn_header);
  std::remove(path.c_str());
  std::remove(torn.c_str());
}

TEST(Salvage, MultipleDamagedChunksAreAllReported) {
  const std::string path = build_store("multi");
  flip_byte(path, chunk_offset(0, power::trace_scalar::f64) + k_chunk_header +
                      7); // chunk 0 payload
  flip_byte(path, chunk_offset(2, power::trace_scalar::f64)); // chunk 2 magic

  const power::trace_store_reader reader(path,
                                         power::store_open_mode::salvage);
  ASSERT_EQ(reader.damage().size(), 2u);
  EXPECT_EQ(reader.damage()[0].chunk, 0u);
  EXPECT_EQ(reader.damage()[0].fault, power::store_fault::chunk_payload_crc);
  EXPECT_EQ(reader.damage()[1].chunk, 2u);
  EXPECT_EQ(reader.damage()[1].fault, power::store_fault::chunk_bad_magic);
  EXPECT_EQ(reader.lost_records(), 2u * k_chunk_traces);
  std::vector<std::size_t> survivors;
  for (std::size_t i = 0; i < k_records; ++i) {
    const std::size_t c = i / k_chunk_traces;
    if (c != 0 && c != 2) {
      survivors.push_back(i);
    }
  }
  expect_survivors(reader, survivors);
  std::remove(path.c_str());
}

TEST(Salvage, F32StoresSalvageThroughTheDecodeTile) {
  const std::string path =
      build_store("f32", power::trace_scalar::f32);
  flip_byte(path, chunk_offset(1, power::trace_scalar::f32) +
                      k_chunk_header + 11);

  const power::trace_store_reader reader(path,
                                         power::store_open_mode::salvage);
  ASSERT_EQ(reader.damage().size(), 1u);
  EXPECT_EQ(reader.damage().front().chunk, 1u);
  EXPECT_EQ(reader.damage().front().fault,
            power::store_fault::chunk_payload_crc);
  expect_survivors(reader, all_but_chunk(1));
  std::remove(path.c_str());
}

TEST(Salvage, StrictReaderPathsRejectSalvageHoles) {
  // chunk_rows stays dense over the SURVIVING chunks; first_record keeps
  // the original position so downstream indexing is correct.
  const std::string path = build_store("rows");
  flip_byte(path, chunk_offset(1, power::trace_scalar::f64));
  const power::trace_store_reader reader(path,
                                         power::store_open_mode::salvage);
  ASSERT_EQ(reader.chunk_count(), 4u);
  const power::batch_rows rows = reader.chunk_rows(1); // second SURVIVOR
  EXPECT_EQ(rows.first_record, 2u * k_chunk_traces);
  EXPECT_EQ(rows.count, k_chunk_traces);
  EXPECT_EQ(rows.labels[0], label_of(2 * k_chunk_traces, 0));
  std::remove(path.c_str());
}

} // namespace
} // namespace usca
