// Trace persistence: the chunked binary trace store.
//
// The paper's methodology is simulate-once, analyse-many: the Figure-3/4
// CPA sweeps, the Table-2 attribution and the TVLA assessment all consume
// the *same* synthesized traces.  The trace store makes that workflow
// literal — a campaign archives its ordered (index, labels, samples)
// stream once, and any number of later analyses replay it through the
// mmap reader (power/trace_store_reader.h) without re-simulation.
//
// One module owns the format: power/trace_store_format.h defines the
// layout, magic numbers, header sizes and field offsets once.  This
// writer holds the only encoder; the reader holds the only decoder and
// all validation, and resume() reads an existing store through it.
//
// Chunks are written atomically (buffered in memory, flushed as one
// write), so a killed campaign leaves a prefix of whole chunks; resume()
// cuts any torn bytes, re-buffers a trailing short chunk, and appending
// the re-simulated records reproduces the uninterrupted file byte for
// byte.
#ifndef USCA_POWER_TRACE_IO_H
#define USCA_POWER_TRACE_IO_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "power/trace.h"

namespace usca::power {

// ------------------------------------------------------------------ store

enum class trace_scalar : std::uint32_t {
  f64 = 0, ///< bit-exact archive (replay reproduces live analyses exactly)
  f32 = 1, ///< half-size archive; samples quantized to float
};

/// Self-describing shape and provenance of a store, written into the file
/// header and validated on open/resume.
struct trace_store_descriptor {
  std::uint64_t samples = 0; ///< samples per trace (0 = learn from record 0)
  std::uint32_t labels = 0;  ///< labels per trace
  trace_scalar scalar = trace_scalar::f64;
  std::uint32_t chunk_traces = 256; ///< nominal records per chunk
  std::uint64_t seed = 0;           ///< producing campaign's master seed
  std::uint64_t config_hash = 0;    ///< hash of the producing configuration
  std::uint64_t first_index = 0;    ///< global index of record 0

  /// Bytes of one serialized record under this descriptor.
  std::uint64_t record_bytes() const noexcept;
};

/// The torn tail resume() cut off: bytes after the last intact chunk,
/// left behind by a killed writer or disk corruption.  Zero and empty on
/// a clean resume and on the create() fallback.
struct store_resume_report {
  std::uint64_t truncated_bytes = 0; ///< torn bytes cut from the file
  std::string quarantine_path;       ///< where they went ("" = none cut)
};

/// Streaming chunked writer.  Records are buffered and written one whole
/// chunk at a time; close() flushes the trailing short chunk.  Throws
/// util::analysis_error on I/O failure or shape mismatch.
///
/// Failpoint sites (util/failpoint.h): `store_write_header` and
/// `store_write_chunk` fire before the corresponding write; a `corrupt`
/// rule on store_write_chunk flips one payload bit AFTER the chunk CRC
/// is computed, planting exactly the bit-rot the reader's
/// chunk_payload_crc class detects.
class trace_store_writer {
public:
  /// Creates (truncates) `path`.  When desc.samples is 0, the sample
  /// count is taken from the first appended record; nothing is written
  /// until the first chunk flush, so an abandoned empty store stays an
  /// empty file.
  static trace_store_writer create(const std::string& path,
                                   const trace_store_descriptor& desc);

  /// Reopens an existing store for appending.  The file header's
  /// descriptor must match `desc` (seed, config hash, scalar, chunk
  /// size, first index, labels, and samples when nonzero in desc); it is
  /// read and checked first (trace_store_reader::read_header), so a
  /// foreign store is refused without its chunks being read.  A matching
  /// file is then validated by a salvage-mode trace_store_reader, and
  /// resume() keeps the reader's
  /// leading chunks whose indices continue from 0, through the first
  /// short chunk, and cuts everything after them as torn tail, preserved
  /// in `<path>.quarantine`: after a successful resume that file holds
  /// exactly what this resume cut, and it is removed when nothing was
  /// cut (a missing or empty store included).  A kept short chunk
  /// is re-buffered as pending records, so appending after a kill
  /// reproduces an uninterrupted file byte for byte, and resuming an
  /// already-complete store re-simulates nothing.  next_index() is
  /// positioned after the last kept record.  A missing or empty file
  /// behaves like create().  A rejected file is left untouched.
  /// `report` (optional) receives the cut tail.
  static trace_store_writer resume(const std::string& path,
                                   const trace_store_descriptor& desc,
                                   store_resume_report* report = nullptr);

  trace_store_writer(trace_store_writer&& other) noexcept;
  ~trace_store_writer();

  /// Appends one record; labels/samples sizes must match the descriptor
  /// (the first append fixes a deferred sample count).
  void append(std::span<const double> labels, std::span<const double> samples);

  /// Flushes buffered records and closes the file; further appends throw.
  void close();

  /// Global index the next append() will receive.
  std::size_t next_index() const noexcept {
    return static_cast<std::size_t>(desc_.first_index + written_ + buffered_);
  }

  /// Records already durably flushed plus buffered.
  std::size_t records() const noexcept {
    return static_cast<std::size_t>(written_ + buffered_);
  }

  const trace_store_descriptor& descriptor() const noexcept { return desc_; }

private:
  trace_store_writer(std::string path, const trace_store_descriptor& desc);

  /// The resume() body once the file is open: validate through the
  /// reader, quarantine the tail, re-buffer, truncate; true when a tail
  /// was cut.  Throws without touching the file's bytes.
  bool resume_existing(store_resume_report* report);
  void write_header();
  void flush_chunk();

  std::string path_;
  trace_store_descriptor desc_;
  int fd_ = -1;
  bool header_written_ = false;
  std::uint64_t written_ = 0;  ///< records in flushed chunks
  std::uint32_t buffered_ = 0; ///< records in the pending chunk
  std::vector<unsigned char> chunk_buf_;
};

} // namespace usca::power

#endif // USCA_POWER_TRACE_IO_H
