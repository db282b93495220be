// Zero-copy mmap reader for the chunked trace store (power/trace_io.h).
//
// The reader owns the store's decoder and every validation rule; the
// format itself is defined once in power/trace_store_format.h, and the
// writer's resume() validates an existing store by opening it here in
// salvage mode.  The whole file is mapped read-only once; opening
// validates the header and every chunk (structure, index contiguity,
// CRC-32 of header and payload).  Two open modes:
//
//  * strict (default) — any structural damage throws util::analysis_error
//    carrying the file path, byte offset, chunk index and failure class,
//    so a reader that constructs successfully is a verified archive.
//  * salvage — damage never throws (only an unreadable or corrupt FILE
//    header does, since without it no chunk geometry exists).  Damaged
//    chunks are skipped — a chunk whose header still checks out is
//    skipped by its exact recorded extent, one with an untrusted header
//    by the store's fixed nominal chunk stride — and every skip is
//    recorded in a per-chunk damage map (chunk index, byte offset,
//    failure class, bytes skipped).  The surviving chunks, before AND
//    after the damage, are served through the normal zero-copy API, so
//    an analysis degrades to N-of-M chunks instead of failing closed.
//    Surviving records keep their original store-relative indices (the
//    stream has holes where chunks were lost); the CPA/TVLA sinks
//    accumulate whatever arrives, and index-keyed labels stay correct.
//    While the walk is still on the writer's fixed chunk grid, a chunk
//    must claim exactly its grid slot's first index, so a header forged
//    with a recomputed CRC cannot move records to other indices.
//
// Float64 stores hand out std::span<const double> views straight into
// the mapping — replaying a 100k-trace campaign into the CPA/TVLA
// accumulators touches each page exactly once and copies nothing.  The
// batch unit is the store chunk: chunk_rows() exposes one whole chunk
// as strided f64 rows, aliasing the mapping for f64 stores and decoded
// chunk-at-once into a reused scratch tile for f32 stores (no
// per-record copies on the replay hot path).
//
// Thread-safety: chunk_rows()/stream() of an f32 store share one
// mutable scratch tile, so one reader serves ONE replaying thread at a
// time; concurrent analyses of an f32 archive need a reader each (f64
// replay is pure mmap aliasing and is safe to share).
#ifndef USCA_POWER_TRACE_STORE_READER_H
#define USCA_POWER_TRACE_STORE_READER_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "power/trace_io.h"

namespace usca::power {

enum class store_open_mode {
  strict,  ///< throw on the first structural fault (verified archive)
  salvage, ///< skip damaged chunks, report them in the damage map
};

/// Failure taxonomy of store validation.  The file_* classes concern the
/// 64-byte file header and are fatal in BOTH modes; the chunk_* classes
/// are per-chunk and salvageable.
enum class store_fault : std::uint32_t {
  file_short_header,  ///< file smaller than the 64-byte header
  file_bad_magic,     ///< not a usca trace store
  file_bad_version,   ///< unsupported format version
  file_header_crc,    ///< header checksum mismatch (bit rot in byte 0..59)
  file_bad_shape,     ///< implausible sample count / degenerate record
  chunk_torn_header,  ///< EOF inside a chunk header (killed writer)
  chunk_bad_magic,    ///< chunk header does not start with "CHNK"
  chunk_header_crc,   ///< chunk header checksum mismatch
  chunk_geometry,     ///< count/payload_bytes inconsistent with the shape
  chunk_index,        ///< first_index breaks the chunk chain's order
  chunk_short_mid_chain, ///< short chunk followed by more chunks
  chunk_payload_crc,  ///< payload checksum mismatch (bit rot in records)
  chunk_truncated,    ///< EOF inside the payload (killed writer)
};

/// Stable lower-case token for a failure class (log / JSON vocabulary).
const char* store_fault_name(store_fault fault) noexcept;

/// One damaged region found by a salvage-mode open.
struct chunk_damage {
  std::size_t chunk = 0;          ///< ordinal chunk slot in the file
  std::uint64_t byte_offset = 0;  ///< file offset of the damaged header
  store_fault fault = store_fault::chunk_payload_crc;
  std::uint64_t bytes_skipped = 0; ///< extent stepped over to resync
};

/// Where a surviving chunk lies in the file and which records it holds.
struct chunk_extent {
  std::uint64_t offset = 0;     ///< file offset of the chunk header
  std::uint64_t bytes = 0;      ///< chunk header plus payload
  std::size_t first_record = 0; ///< original store-relative index
  std::uint32_t count = 0;      ///< records in the chunk
};

/// One chunk of a store viewed as strided rows of doubles: row r's labels
/// start at labels + r * stride, its samples at samples + r * stride.
/// For f64 stores the pointers alias the mapping (zero-copy); for f32
/// stores they point into the reader's chunk-wide scratch tile, which the
/// next chunk_rows()/stream() call overwrites.
struct batch_rows {
  std::size_t first_record = 0; ///< store-relative record index of row 0
  std::size_t count = 0;        ///< records in the chunk
  const double* labels = nullptr;
  const double* samples = nullptr;
  std::size_t stride = 0; ///< doubles between consecutive rows
};

class trace_store_reader {
public:
  /// Maps and fully validates `path`.  In strict mode any structural
  /// damage throws util::analysis_error (message carries path, byte
  /// offset, chunk index and failure class); in salvage mode only file
  /// header damage throws and chunk damage lands in damage().
  explicit trace_store_reader(const std::string& path,
                              store_open_mode mode = store_open_mode::strict);

  /// True when `path` holds at least a whole file header and starts
  /// with the store magic: how a caller tells a store from another file
  /// (a fabric manifest, say) without copying the magic.  Validates
  /// nothing else; false for a missing or unreadable file and for one
  /// cut short inside its header.
  static bool probe(const std::string& path) noexcept;

  /// The descriptor of the store at `path`, from its 64-byte file header
  /// alone: reads those bytes, validates them as a strict open would
  /// (magic, version, CRC, shape) and throws util::analysis_error on any
  /// fault, but reads no chunk.  How resume() turns away a store of
  /// another configuration before mapping and walking it.
  static trace_store_descriptor read_header(const std::string& path);

  trace_store_reader(trace_store_reader&& other) noexcept;
  ~trace_store_reader();

  const trace_store_descriptor& descriptor() const noexcept { return desc_; }

  /// Surviving (validated) records in the store.
  std::size_t traces() const noexcept { return traces_; }
  std::size_t samples() const noexcept {
    return static_cast<std::size_t>(desc_.samples);
  }
  std::size_t labels() const noexcept { return desc_.labels; }

  /// Global index range [first_index, next_index) held by the archive —
  /// the campaign-manifest view a resumed run appends after.  After a
  /// salvage open the range may contain holes: next_index() is one past
  /// the LAST surviving record, and next_index() - first_index() can
  /// exceed traces() by the records lost to damaged chunks.
  std::size_t first_index() const noexcept {
    return static_cast<std::size_t>(desc_.first_index);
  }
  std::size_t next_index() const noexcept {
    return first_index() + end_record_;
  }

  std::size_t chunk_count() const noexcept { return chunks_.size(); }
  /// Total surviving record payload in the file (MB/s accounting).
  std::uint64_t payload_bytes() const noexcept {
    return desc_.record_bytes() * traces_;
  }

  /// Damage map of a salvage open (empty after a strict open, which
  /// would have thrown instead).
  std::span<const chunk_damage> damage() const noexcept { return damage_; }
  /// True when the whole file validated clean (always true for strict).
  bool intact() const noexcept { return damage_.empty(); }
  /// Records lost to damaged chunks BEFORE the last surviving record
  /// (tail loss has no record count: a torn tail's length is unknown).
  std::size_t lost_records() const noexcept { return end_record_ - traces_; }

  /// Views surviving chunk `chunk` (0 .. chunk_count()) as strided rows;
  /// first_record is the chunk's ORIGINAL store-relative position, so
  /// salvaged streams keep correct global indices.  f64 stores alias the
  /// mapping; f32 stores are decoded whole-chunk into a reused scratch
  /// tile that stays valid until the next chunk_rows()/stream() call.
  batch_rows chunk_rows(std::size_t chunk) const;

  /// Streams every surviving record in index order (row unrolling of
  /// chunk_rows).  For f64 stores the spans alias the mapping; for f32
  /// stores they point into the chunk scratch tile and are overwritten
  /// chunk by chunk.
  using record_fn = std::function<void(
      std::size_t index, std::span<const double> labels,
      std::span<const double> samples)>;
  void stream(const record_fn& fn) const;

  /// Raw byte extent of surviving chunk `chunk` in file_bytes(), for
  /// resume(), which keeps a prefix of whole chunks byte for byte.
  const chunk_extent& extent(std::size_t chunk) const;
  /// The whole mapped file; valid while the reader lives.
  std::span<const unsigned char> file_bytes() const noexcept {
    return {map_, static_cast<std::size_t>(map_size_)};
  }

private:
  void parse(const std::string& path);

  trace_store_descriptor desc_;
  store_open_mode mode_ = store_open_mode::strict;
  const unsigned char* map_ = nullptr;
  std::uint64_t map_size_ = 0;
  std::size_t traces_ = 0;
  std::size_t end_record_ = 0; ///< one past the last surviving record
  std::vector<chunk_extent> chunks_;
  std::vector<chunk_damage> damage_;
  mutable std::vector<double> scratch_; ///< f32 whole-chunk decode tile
};

} // namespace usca::power

#endif // USCA_POWER_TRACE_STORE_READER_H
