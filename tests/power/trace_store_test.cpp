// Tests for the chunked binary trace store: round-trip bit-identity
// through the mmap reader, zero-copy views, f32 quantization, rejection
// of truncated/corrupt files, and the writer's resume contract
// (truncate-to-full-chunk + byte-identical re-append).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "power/trace_io.h"
#include "power/trace_store_reader.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/telemetry.h"
#include "../scratch_path.h"

namespace usca::power {
namespace {

struct record {
  std::vector<double> labels;
  std::vector<double> samples;
};

/// Deterministic record content for global index `i` — the stand-in for
/// a per-index-seeded campaign.
record record_at(std::size_t i, std::size_t n_labels,
                 std::size_t n_samples) {
  util::xoshiro256 rng(0x5707e + i);
  record r;
  for (std::size_t l = 0; l < n_labels; ++l) {
    r.labels.push_back(static_cast<double>(rng.next_u8()));
  }
  for (std::size_t s = 0; s < n_samples; ++s) {
    r.samples.push_back(5.0 + rng.next_gaussian());
  }
  return r;
}

std::string temp_path(const char* name) {
  return tests::scratch_path(std::string("trace_store_test_") + name + ".trc");
}

trace_store_descriptor small_desc() {
  trace_store_descriptor desc;
  desc.labels = 2;
  desc.chunk_traces = 8;
  desc.seed = 0xfeed;
  desc.config_hash = 0xc0ffee;
  return desc;
}

void write_records(trace_store_writer& writer, std::size_t first,
                   std::size_t count, std::size_t n_labels,
                   std::size_t n_samples) {
  for (std::size_t i = first; i < first + count; ++i) {
    const record r = record_at(i, n_labels, n_samples);
    writer.append(r.labels, r.samples);
  }
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(TraceStore, RoundTripIsBitIdentical) {
  const std::string path = temp_path("roundtrip");
  const std::size_t n = 21; // 2 full chunks of 8 + a short tail chunk
  {
    auto writer = trace_store_writer::create(path, small_desc());
    write_records(writer, 0, n, 2, 5);
    EXPECT_EQ(writer.next_index(), n);
    writer.close();
  }

  trace_store_reader reader(path);
  EXPECT_EQ(reader.traces(), n);
  EXPECT_EQ(reader.samples(), 5u);
  EXPECT_EQ(reader.labels(), 2u);
  EXPECT_EQ(reader.first_index(), 0u);
  EXPECT_EQ(reader.next_index(), n);
  EXPECT_EQ(reader.chunk_count(), 3u);
  EXPECT_EQ(reader.descriptor().seed, 0xfeedu);
  EXPECT_EQ(reader.descriptor().config_hash, 0xc0ffeeu);

  // Zero-copy chunk rows, in index order.
  std::size_t row_index = 0;
  for (std::size_t c = 0; c < reader.chunk_count(); ++c) {
    const batch_rows rows = reader.chunk_rows(c);
    EXPECT_EQ(rows.first_record, row_index);
    ASSERT_EQ(rows.stride, 2u + 5u);
    for (std::size_t r = 0; r < rows.count; ++r, ++row_index) {
      const record expect = record_at(row_index, 2, 5);
      for (std::size_t l = 0; l < 2; ++l) {
        EXPECT_EQ(rows.labels[r * rows.stride + l], expect.labels[l]);
      }
      for (std::size_t s = 0; s < 5; ++s) {
        EXPECT_EQ(rows.samples[r * rows.stride + s], expect.samples[s]);
      }
    }
  }
  EXPECT_EQ(row_index, n);

  // Streaming delivers the same bytes in index order.
  std::size_t seen = 0;
  reader.stream([&](std::size_t index, std::span<const double> labels,
                    std::span<const double> samples) {
    EXPECT_EQ(index, seen);
    const record expect = record_at(index, 2, 5);
    for (std::size_t s = 0; s < samples.size(); ++s) {
      EXPECT_EQ(samples[s], expect.samples[s]);
    }
    EXPECT_EQ(labels[0], expect.labels[0]);
    ++seen;
  });
  EXPECT_EQ(seen, n);
  std::remove(path.c_str());
}

TEST(TraceStore, DeferredSampleCountComesFromFirstRecord) {
  const std::string path = temp_path("deferred");
  trace_store_descriptor desc = small_desc();
  desc.samples = 0;
  {
    auto writer = trace_store_writer::create(path, desc);
    write_records(writer, 0, 3, 2, 7);
    EXPECT_EQ(writer.descriptor().samples, 7u);
    // A record of another shape is rejected.
    const record bad = record_at(3, 2, 6);
    EXPECT_THROW(writer.append(bad.labels, bad.samples),
                 util::analysis_error);
    writer.close();
  }
  trace_store_reader reader(path);
  EXPECT_EQ(reader.samples(), 7u);
  EXPECT_EQ(reader.traces(), 3u);
  std::remove(path.c_str());
}

TEST(TraceStore, F32StoreQuantizesToFloat) {
  const std::string path = temp_path("f32");
  trace_store_descriptor desc = small_desc();
  desc.scalar = trace_scalar::f32;
  {
    auto writer = trace_store_writer::create(path, desc);
    write_records(writer, 0, 10, 2, 5);
    writer.close();
  }
  trace_store_reader reader(path);
  EXPECT_EQ(reader.descriptor().scalar, trace_scalar::f32);
  // Half the payload of an f64 store for the samples, so the rows are
  // decoded into a scratch tile instead of aliasing the mapping.
  const std::span<const unsigned char> mapped = reader.file_bytes();
  const auto* decoded =
      reinterpret_cast<const unsigned char*>(reader.chunk_rows(0).samples);
  EXPECT_TRUE(decoded < mapped.data() ||
              decoded >= mapped.data() + mapped.size());
  std::size_t seen = 0;
  reader.stream([&](std::size_t index, std::span<const double> labels,
                    std::span<const double> samples) {
    const record expect = record_at(index, 2, 5);
    for (std::size_t s = 0; s < samples.size(); ++s) {
      EXPECT_EQ(samples[s],
                static_cast<double>(static_cast<float>(expect.samples[s])));
    }
    EXPECT_EQ(labels[1], expect.labels[1]); // labels stay f64 exact
    ++seen;
  });
  EXPECT_EQ(seen, 10u);
  std::remove(path.c_str());
}

TEST(TraceStore, RejectsBadMagicAndHeaderDamage) {
  const std::string path = temp_path("badmagic");
  {
    auto writer = trace_store_writer::create(path, small_desc());
    write_records(writer, 0, 8, 2, 5);
    writer.close();
  }
  std::string bytes = file_bytes(path);
  {
    std::string broken = bytes;
    broken[0] = 'X';
    std::ofstream(path, std::ios::binary) << broken;
    EXPECT_THROW(trace_store_reader reader(path), util::analysis_error);
  }
  {
    // Flip a header field (seed) without fixing the header CRC.
    std::string broken = bytes;
    broken[33] ^= 0x5a;
    std::ofstream(path, std::ios::binary) << broken;
    EXPECT_THROW(trace_store_reader reader(path), util::analysis_error);
  }
  std::remove(path.c_str());
}

TEST(TraceStore, ProbeRecognisesStoresOnly) {
  const std::string path = temp_path("probe");
  {
    auto writer = trace_store_writer::create(path, small_desc());
    write_records(writer, 0, 8, 2, 5);
    writer.close();
  }
  EXPECT_TRUE(trace_store_reader::probe(path));
  const std::string bytes = file_bytes(path);
  // A header with no chunk yet is still a store.
  std::ofstream(path, std::ios::binary) << bytes.substr(0, 64);
  EXPECT_TRUE(trace_store_reader::probe(path));
  // Cut inside the header: the magic alone does not make a store.
  std::ofstream(path, std::ios::binary) << bytes.substr(0, 63);
  EXPECT_FALSE(trace_store_reader::probe(path));
  std::ofstream(path, std::ios::binary) << bytes.substr(0, 8);
  EXPECT_FALSE(trace_store_reader::probe(path));
  // A fabric manifest, and a store whose magic lost a byte.
  std::ofstream(path, std::ios::binary)
      << "usca-fabric-manifest 1\n" << std::string(64, ' ') << "\n";
  EXPECT_FALSE(trace_store_reader::probe(path));
  std::string renamed = bytes;
  renamed[7] = '3';
  std::ofstream(path, std::ios::binary) << renamed;
  EXPECT_FALSE(trace_store_reader::probe(path));
  std::remove(path.c_str());
  EXPECT_FALSE(trace_store_reader::probe(path));
}

TEST(TraceStore, RejectsCorruptChunkPayload) {
  const std::string path = temp_path("corrupt");
  {
    auto writer = trace_store_writer::create(path, small_desc());
    write_records(writer, 0, 16, 2, 5);
    writer.close();
  }
  std::string bytes = file_bytes(path);
  // Flip one payload byte in the middle of the second chunk.
  bytes[bytes.size() - 40] ^= 0x01;
  std::ofstream(path, std::ios::binary) << bytes;
  EXPECT_THROW(trace_store_reader reader(path), util::analysis_error);
  std::remove(path.c_str());
}

TEST(TraceStore, RejectsTruncatedChunk) {
  const std::string path = temp_path("truncated");
  {
    auto writer = trace_store_writer::create(path, small_desc());
    write_records(writer, 0, 8, 2, 5);
    writer.close();
  }
  const std::string bytes = file_bytes(path);
  std::ofstream(path, std::ios::binary)
      << bytes.substr(0, bytes.size() - 11);
  EXPECT_THROW(trace_store_reader reader(path), util::analysis_error);
  std::remove(path.c_str());
}

TEST(TraceStore, MissingFileThrows) {
  EXPECT_THROW(trace_store_reader reader("/nonexistent/usca.trc"),
               util::analysis_error);
}

TEST(TraceStore, RejectsForgedGeometryWithValidChecksums) {
  // An attacker-controlled (or badly corrupted) file whose checksums are
  // *recomputed* must still be rejected by the bounds checks rather than
  // driving an out-of-range read: forge an absurd sample count in the
  // header, and separately an absurd payload size in a chunk header.
  const std::string path = temp_path("forged");
  {
    auto writer = trace_store_writer::create(path, small_desc());
    write_records(writer, 0, 8, 2, 5);
    writer.close();
  }
  const std::string bytes = file_bytes(path);

  const auto patch_u64 = [](std::string& buf, std::size_t offset,
                            std::uint64_t value) {
    std::memcpy(buf.data() + offset, &value, sizeof value);
  };
  const auto fix_crc = [](std::string& buf, std::size_t start,
                          std::size_t length) {
    const std::uint32_t crc = util::crc32(buf.data() + start, length);
    std::memcpy(buf.data() + start + length, &crc, sizeof crc);
  };

  {
    std::string forged = bytes;
    patch_u64(forged, 16, (1ULL << 61) - 1); // header sample count
    fix_crc(forged, 0, 60);
    std::ofstream(path, std::ios::binary) << forged;
    EXPECT_THROW(trace_store_reader reader(path), util::analysis_error);
    EXPECT_THROW(trace_store_writer::resume(path, small_desc()),
                 util::analysis_error);
  }
  {
    std::string forged = bytes;
    patch_u64(forged, 64 + 16, ~0ULL - 7); // chunk payload_bytes
    fix_crc(forged, 64, 28);
    std::ofstream(path, std::ios::binary) << forged;
    EXPECT_THROW(trace_store_reader reader(path), util::analysis_error);
    // resume() treats the invalid chunk as a torn tail and truncates.
    auto writer = trace_store_writer::resume(path, small_desc());
    EXPECT_EQ(writer.next_index(), 0u);
    writer.close();
  }
  std::remove(path.c_str());
}

TEST(TraceStore, ResumeReproducesUninterruptedFileByteForByte) {
  const std::string full_path = temp_path("resume_full");
  const std::string part_path = temp_path("resume_part");
  const std::size_t n = 29; // chunks of 8: 3 full + 5-record tail
  {
    auto writer = trace_store_writer::create(full_path, small_desc());
    write_records(writer, 0, n, 2, 5);
    writer.close();
  }
  {
    // "Killed" after 19 records: 2 full chunks on disk + 3 buffered
    // records flushed as a short chunk by close().
    auto writer = trace_store_writer::create(part_path, small_desc());
    write_records(writer, 0, 19, 2, 5);
    writer.close();
  }
  {
    // Resume re-buffers the short tail chunk (records 16..18) and appends
    // the remainder — no record is lost or duplicated.
    auto writer = trace_store_writer::resume(part_path, small_desc());
    EXPECT_EQ(writer.next_index(), 19u);
    write_records(writer, 19, n - 19, 2, 5);
    writer.close();
  }
  EXPECT_EQ(file_bytes(part_path), file_bytes(full_path));

  // Resuming a complete archive and appending nothing leaves it
  // byte-identical (the re-buffered tail chunk flushes back on close).
  {
    auto writer = trace_store_writer::resume(full_path, small_desc());
    EXPECT_EQ(writer.next_index(), n);
    writer.close();
  }
  EXPECT_EQ(file_bytes(part_path), file_bytes(full_path));
  std::remove(full_path.c_str());
  std::remove(part_path.c_str());
}

TEST(TraceStore, ResumeDropsTornTrailingBytes) {
  const std::string path = temp_path("torn");
  {
    auto writer = trace_store_writer::create(path, small_desc());
    write_records(writer, 0, 16, 2, 5);
    writer.close();
  }
  // Simulate a kill mid-write: append garbage (a torn chunk header).
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "CHNKgarbage";
  }
  auto writer = trace_store_writer::resume(path, small_desc());
  EXPECT_EQ(writer.next_index(), 16u);
  write_records(writer, 16, 4, 2, 5);
  writer.close();
  trace_store_reader reader(path);
  EXPECT_EQ(reader.traces(), 20u);
  std::remove(path.c_str());
}

TEST(TraceStore, ResumeRejectsForeignConfigurationWithoutTouchingIt) {
  const std::string path = temp_path("foreign");
  {
    auto writer = trace_store_writer::create(path, small_desc());
    write_records(writer, 0, 8, 2, 5);
    writer.close();
  }
  const std::string before = file_bytes(path);
  trace_store_descriptor other = small_desc();
  other.seed = 0xbad;
  EXPECT_THROW(trace_store_writer::resume(path, other),
               util::analysis_error);
  other = small_desc();
  other.config_hash = 0xbad;
  EXPECT_THROW(trace_store_writer::resume(path, other),
               util::analysis_error);
  // The rejected attempts must not have altered a single byte (a rewrite
  // of the header would launder the foreign config hash into a "valid"
  // one and let a retry silently mix trace populations).
  EXPECT_EQ(file_bytes(path), before);
  {
    auto writer = trace_store_writer::resume(path, small_desc());
    EXPECT_EQ(writer.next_index(), 8u);
    writer.close();
  }
  EXPECT_EQ(file_bytes(path), before);
  std::remove(path.c_str());
}

// A foreign store is refused on its header alone: no chunk of it is
// checksummed (store.read.crc_validations stays put), however many it
// has, and the file keeps every byte.
TEST(TraceStore, ResumeRejectsForeignStoreBeforeReadingItsChunks) {
  const telem::counter crc_checks{"store.read.crc_validations", "checks",
                                  "store"};
  const std::string path = temp_path("foreign_chunks");
  {
    auto writer = trace_store_writer::create(path, small_desc());
    write_records(writer, 0, 8 * 6 + 3, 2, 5); // six full chunks, a short one
    writer.close();
  }
  const std::string before = file_bytes(path);
  trace_store_descriptor other = small_desc();
  other.config_hash = 0xbad;
  const std::uint64_t checks = crc_checks.value();
  EXPECT_THROW(trace_store_writer::resume(path, other),
               util::analysis_error);
  EXPECT_EQ(crc_checks.value(), checks);
  EXPECT_EQ(file_bytes(path), before);

  // The matching configuration still walks the whole store.
  {
    auto writer = trace_store_writer::resume(path, small_desc());
    EXPECT_EQ(writer.next_index(), 8u * 6 + 3);
    writer.close();
  }
  EXPECT_EQ(crc_checks.value(), checks + 1 + 2 * 7);
  EXPECT_EQ(file_bytes(path), before);
  std::remove(path.c_str());
}

TEST(TraceStore, ResumeLeavesNonStoreFilesUntouched) {
  const std::string path = temp_path("notastore");
  const std::string content(200, 'x');
  std::ofstream(path, std::ios::binary) << content;
  EXPECT_THROW(trace_store_writer::resume(path, small_desc()),
               util::analysis_error);
  EXPECT_EQ(file_bytes(path), content);
  std::remove(path.c_str());
}

TEST(TraceStore, ResumeTruncatesAtMidChainShortChunk) {
  // A short chunk is only valid as the LAST chunk.  Craft a file with a
  // short chunk FOLLOWED by a full one (valid CRCs, contiguous indices):
  // the reader must reject it outright, and resume() must treat
  // everything after the short chunk as torn tail — truncate, re-buffer,
  // and re-simulating the dropped suffix must reproduce the
  // uninterrupted file byte for byte.
  const std::string path = temp_path("midshort");
  {
    auto writer = trace_store_writer::create(path, small_desc());
    write_records(writer, 0, 4, 2, 5); // one short chunk (4 < 8)
    writer.close();
  }
  std::string crafted = file_bytes(path);
  {
    // Append a hand-built FULL chunk holding records 4..11.
    const std::size_t record_bytes = (2 + 5) * sizeof(double);
    std::string payload;
    for (std::size_t i = 4; i < 12; ++i) {
      const record r = record_at(i, 2, 5);
      for (const double v : r.labels) {
        payload.append(reinterpret_cast<const char*>(&v), sizeof v);
      }
      for (const double v : r.samples) {
        payload.append(reinterpret_cast<const char*>(&v), sizeof v);
      }
    }
    ASSERT_EQ(payload.size(), 8 * record_bytes);
    std::string chdr(32, '\0');
    const std::uint32_t magic = 0x4b4e4843; // "CHNK"
    const std::uint32_t count = 8;
    const std::uint64_t first_index = 4;
    const auto payload_bytes = static_cast<std::uint64_t>(payload.size());
    const std::uint32_t payload_crc =
        util::crc32(payload.data(), payload.size());
    std::memcpy(chdr.data() + 0, &magic, 4);
    std::memcpy(chdr.data() + 4, &count, 4);
    std::memcpy(chdr.data() + 8, &first_index, 8);
    std::memcpy(chdr.data() + 16, &payload_bytes, 8);
    std::memcpy(chdr.data() + 24, &payload_crc, 4);
    const std::uint32_t header_crc = util::crc32(chdr.data(), 28);
    std::memcpy(chdr.data() + 28, &header_crc, 4);
    crafted += chdr + payload;
    std::ofstream(path, std::ios::binary) << crafted;
  }
  EXPECT_THROW(trace_store_reader reader(path), util::analysis_error);

  auto writer = trace_store_writer::resume(path, small_desc());
  EXPECT_EQ(writer.next_index(), 4u); // the full chunk after the short
                                      // one was dropped as torn tail
  write_records(writer, 4, 12, 2, 5);
  writer.close();

  const std::string reference_path = temp_path("midshort_ref");
  {
    auto reference = trace_store_writer::create(reference_path, small_desc());
    write_records(reference, 0, 16, 2, 5);
    reference.close();
  }
  EXPECT_EQ(file_bytes(path), file_bytes(reference_path));
  const trace_store_reader repaired(path);
  EXPECT_EQ(repaired.traces(), 16u);
  std::remove(path.c_str());
  std::remove(reference_path.c_str());
}

TEST(TraceStore, HeaderOnlyStoreIsAValidEmptyArchive) {
  const std::string path = temp_path("headeronly");
  trace_store_descriptor desc = small_desc();
  desc.samples = 5; // shape known up front => close() writes the header
  {
    auto writer = trace_store_writer::create(path, desc);
    writer.close();
  }
  trace_store_reader reader(path);
  EXPECT_EQ(reader.traces(), 0u);
  EXPECT_EQ(reader.next_index(), 0u);
  EXPECT_EQ(reader.samples(), 5u);
  std::remove(path.c_str());
}

TEST(TraceStore, ResumeOfMissingOrEmptyFileCreates) {
  const std::string path = temp_path("fresh");
  std::remove(path.c_str());
  {
    auto writer = trace_store_writer::resume(path, small_desc());
    EXPECT_EQ(writer.next_index(), 0u);
    write_records(writer, 0, 4, 2, 5);
    writer.close();
  }
  trace_store_reader reader(path);
  EXPECT_EQ(reader.traces(), 4u);
  std::remove(path.c_str());
}

} // namespace
} // namespace usca::power
