#include "power/trace_store_reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cassert>
#include <cstring>
#include <utility>

#include "power/trace_store_format.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/telemetry.h"

namespace usca::power {

namespace {

using namespace store_format;

/// The one formatting path for validation failures: every strict-mode
/// throw names the file, the byte offset of the damage, the chunk slot
/// (SIZE_MAX = file header, no chunk) and the failure class, so a failed
/// open is actionable without a hexdump.
[[noreturn]] void reject(const std::string& path, store_fault fault,
                         std::uint64_t byte_offset, std::size_t chunk,
                         const std::string& what) {
  std::string msg = "trace store '" + path + "': " + what + " [fault " +
                    store_fault_name(fault) + ", byte offset " +
                    std::to_string(byte_offset);
  if (chunk != static_cast<std::size_t>(-1)) {
    msg += ", chunk " + std::to_string(chunk);
  }
  msg += "]";
  throw util::analysis_error(msg);
}

/// Decodes and validates the 64-byte file header: magic, version, CRC and
/// a plausible record shape.  Faults here are fatal in BOTH open modes:
/// without a trusted header there is no record geometry to salvage by.
trace_store_descriptor decode_file_header(const unsigned char* header,
                                          const std::string& path) {
  constexpr std::size_t no_chunk = static_cast<std::size_t>(-1);
  if (std::memcmp(header, magic, sizeof magic) != 0) {
    reject(path, store_fault::file_bad_magic, 0, no_chunk,
           "bad magic (not a usca trace store)");
  }
  if (get<std::uint32_t>(header, hdr_version) != version) {
    reject(path, store_fault::file_bad_version, hdr_version, no_chunk,
           "unsupported version " +
               std::to_string(get<std::uint32_t>(header, hdr_version)));
  }
  if (get<std::uint32_t>(header, hdr_crc) != util::crc32(header, hdr_crc)) {
    reject(path, store_fault::file_header_crc, 0, no_chunk,
           "header checksum mismatch");
  }
  const auto scalar = get<std::uint32_t>(header, hdr_scalar);
  if (scalar > static_cast<std::uint32_t>(trace_scalar::f32)) {
    reject(path, store_fault::file_bad_shape, hdr_scalar, no_chunk,
           "unknown sample scalar kind");
  }
  trace_store_descriptor desc;
  desc.scalar = static_cast<trace_scalar>(scalar);
  desc.samples = get<std::uint64_t>(header, hdr_samples);
  desc.labels = get<std::uint32_t>(header, hdr_labels);
  desc.chunk_traces = get<std::uint32_t>(header, hdr_chunk_traces);
  desc.seed = get<std::uint64_t>(header, hdr_seed);
  desc.config_hash = get<std::uint64_t>(header, hdr_config_hash);
  desc.first_index = get<std::uint64_t>(header, hdr_first_index);
  // Bound the shape before any arithmetic on it: a corrupt header must
  // not be able to overflow record_bytes / payload computations into
  // "valid" ranges (the CRC catches honest bit rot, but the reject path
  // must be safe for arbitrary bytes too).  With samples <= 2^32 and
  // 32-bit labels, record_bytes < 2^36, so no product or sum below can
  // wrap.  A header-only file (zero records) is a valid empty store.
  if (desc.samples > (1ULL << 32)) {
    reject(path, store_fault::file_bad_shape, hdr_samples, no_chunk,
           "implausible sample count");
  }
  if (desc.chunk_traces == 0 || desc.record_bytes() == 0) {
    reject(path, store_fault::file_bad_shape, hdr_samples, no_chunk,
           "degenerate record shape");
  }
  return desc;
}

[[noreturn]] void reject_short_header(const std::string& path,
                                      std::uint64_t size) {
  reject(path, store_fault::file_short_header, 0,
         static_cast<std::size_t>(-1),
         "too small to hold a header (" + std::to_string(size) + " bytes)");
}

} // namespace

const char* store_fault_name(store_fault fault) noexcept {
  switch (fault) {
  case store_fault::file_short_header:
    return "file_short_header";
  case store_fault::file_bad_magic:
    return "file_bad_magic";
  case store_fault::file_bad_version:
    return "file_bad_version";
  case store_fault::file_header_crc:
    return "file_header_crc";
  case store_fault::file_bad_shape:
    return "file_bad_shape";
  case store_fault::chunk_torn_header:
    return "chunk_torn_header";
  case store_fault::chunk_bad_magic:
    return "chunk_bad_magic";
  case store_fault::chunk_header_crc:
    return "chunk_header_crc";
  case store_fault::chunk_geometry:
    return "chunk_geometry";
  case store_fault::chunk_index:
    return "chunk_index";
  case store_fault::chunk_short_mid_chain:
    return "chunk_short_mid_chain";
  case store_fault::chunk_payload_crc:
    return "chunk_payload_crc";
  case store_fault::chunk_truncated:
    return "chunk_truncated";
  }
  return "unknown";
}

trace_store_reader::trace_store_reader(const std::string& path,
                                       store_open_mode mode)
    : mode_(mode) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw util::analysis_error("cannot open trace store '" + path + "'");
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw util::analysis_error("cannot stat trace store '" + path + "'");
  }
  map_size_ = static_cast<std::uint64_t>(st.st_size);
  if (map_size_ < file_header_bytes) {
    ::close(fd);
    reject_short_header(path, map_size_);
  }
  void* map = ::mmap(nullptr, map_size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd); // the mapping keeps the file alive
  if (map == MAP_FAILED) {
    throw util::analysis_error("cannot mmap trace store '" + path + "'");
  }
  map_ = static_cast<const unsigned char*>(map);
  try {
    parse(path);
  } catch (...) {
    ::munmap(const_cast<unsigned char*>(map_), map_size_);
    throw;
  }
}

bool trace_store_reader::probe(const std::string& path) noexcept {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return false;
  }
  unsigned char header[file_header_bytes];
  const ::ssize_t got = ::pread(fd, header, sizeof header, 0);
  ::close(fd);
  return got == static_cast<::ssize_t>(sizeof header) &&
         std::memcmp(header, magic, sizeof magic) == 0;
}

trace_store_descriptor trace_store_reader::read_header(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw util::analysis_error("cannot open trace store '" + path + "'");
  }
  unsigned char header[file_header_bytes];
  const ::ssize_t got = ::pread(fd, header, sizeof header, 0);
  ::close(fd);
  if (got < 0) {
    throw util::analysis_error("cannot read trace store '" + path + "'");
  }
  if (got != static_cast<::ssize_t>(sizeof header)) {
    reject_short_header(path, static_cast<std::uint64_t>(got));
  }
  return decode_file_header(header, path);
}

void trace_store_reader::parse(const std::string& path) {
  // --- header ----------------------------------------------------------
  desc_ = decode_file_header(map_, path);
  const std::uint64_t record_bytes = desc_.record_bytes();

  // --- chunk chain -----------------------------------------------------
  // Every chunk except the last is full, so the file has a fixed nominal
  // chunk stride — the resync distance when a damaged chunk's own header
  // cannot be trusted.
  const std::uint64_t nominal_stride =
      chunk_header_bytes + desc_.chunk_traces * record_bytes;
  std::uint64_t offset = file_header_bytes;
  std::size_t ordinal = 0;       ///< chunk slots walked, damaged included
  std::size_t expected_next = 0; ///< store-relative index after last chunk
  bool prev_short = false;
  bool stop = false;
  // While every slot walked so far spanned exactly the nominal stride,
  // the byte offset pins the position: slot `ordinal` is where the
  // writer put records [ordinal * chunk_traces, ...).
  bool on_grid = true;

  // Damage handler: strict throws, salvage records and resyncs.  A
  // trusted-extent fault (the chunk header's CRC checked out) skips the
  // chunk's exact recorded size; an untrusted one skips the nominal
  // stride.  `skip` == 0 means "to end of file" (unrecoverable tail).
  const auto damaged = [&](store_fault fault, std::uint64_t skip,
                           const std::string& what) {
    if (mode_ == store_open_mode::strict) {
      reject(path, fault, offset, ordinal, what);
    }
    if (skip == 0 || offset + skip > map_size_) {
      skip = map_size_ - offset;
      stop = true;
    }
    damage_.push_back(chunk_damage{ordinal, offset, fault, skip});
    on_grid = on_grid && skip == nominal_stride;
    offset += skip;
    ++ordinal;
  };

  while (offset != map_size_ && !stop) {
    if (offset + chunk_header_bytes > map_size_) {
      damaged(store_fault::chunk_torn_header, 0,
              "torn chunk header at end of file");
      continue;
    }
    const unsigned char* chdr = map_ + offset;
    if (get<std::uint32_t>(chdr, 0) != chunk_magic) {
      damaged(store_fault::chunk_bad_magic, nominal_stride,
              "bad chunk magic");
      continue;
    }
    if (get<std::uint32_t>(chdr, chk_crc) != util::crc32(chdr, chk_crc)) {
      damaged(store_fault::chunk_header_crc, nominal_stride,
              "chunk header checksum mismatch");
      continue;
    }
    // Header CRC checked out: count/payload_bytes/first_index are
    // trustworthy, so later faults can resync by the exact extent.
    const std::uint32_t count = get<std::uint32_t>(chdr, chk_count);
    const std::uint64_t payload_bytes =
        get<std::uint64_t>(chdr, chk_payload_bytes);
    // Overflow-safe bounds: the payload must fit in what remains of the
    // mapping (offset + header is already known <= map_size_), and the
    // count comparison divides instead of multiplying, so neither check
    // can wrap whatever the forged fields hold.
    if (payload_bytes > map_size_ - offset - chunk_header_bytes) {
      damaged(store_fault::chunk_truncated, 0, "truncated chunk payload");
      continue;
    }
    if (count == 0 || count > desc_.chunk_traces ||
        payload_bytes / record_bytes != count ||
        payload_bytes % record_bytes != 0) {
      damaged(store_fault::chunk_geometry, nominal_stride,
              "inconsistent chunk geometry");
      continue;
    }
    const std::uint64_t chunk_bytes = chunk_header_bytes + payload_bytes;
    const std::uint64_t first_field =
        get<std::uint64_t>(chdr, chk_first_index);
    if (first_field < desc_.first_index ||
        (mode_ == store_open_mode::strict
             ? first_field - desc_.first_index != expected_next
             // Salvage trusts the chunk's own (CRC-covered) position as
             // long as the chain stays monotonic and, on the grid, the
             // position matches the chunk's slot — a header forged with
             // a recomputed CRC must not move records to other indices.
             : first_field - desc_.first_index < expected_next ||
                   (on_grid && first_field - desc_.first_index !=
                                   std::uint64_t{ordinal} *
                                       desc_.chunk_traces))) {
      damaged(store_fault::chunk_index, chunk_bytes,
              "chunk index discontinuity");
      continue;
    }
    if (prev_short) {
      // The previous chunk was short but is not the last one.  Strict
      // rejects (the writer never produces this); salvage keeps both
      // chunks — their payloads verified — and notes the anomaly.
      if (mode_ == store_open_mode::strict) {
        reject(path, store_fault::chunk_short_mid_chain, offset, ordinal,
               "short chunk in the middle of the store");
      }
      damage_.push_back(chunk_damage{ordinal - 1, 0,
                                     store_fault::chunk_short_mid_chain,
                                     0});
      prev_short = false; // note the anomaly once, not per later chunk
    }
    const unsigned char* payload = chdr + chunk_header_bytes;
    if (get<std::uint32_t>(chdr, chk_payload_crc) !=
        util::crc32(payload, payload_bytes)) {
      damaged(store_fault::chunk_payload_crc, chunk_bytes,
              "chunk payload checksum mismatch");
      continue;
    }
    const auto rec_first =
        static_cast<std::size_t>(first_field - desc_.first_index);
    chunks_.push_back(chunk_extent{offset, chunk_bytes, rec_first, count});
    traces_ += count;
    expected_next = rec_first + count;
    prev_short = count < desc_.chunk_traces;
    on_grid = on_grid && chunk_bytes == nominal_stride;
    offset += chunk_bytes;
    ++ordinal;
  }
  end_record_ = expected_next;

  // Flushed once per open, not per chunk: the reader walk is also the
  // salvage scan, and a status probe over many shards should cost many
  // increments, not many mutex acquisitions.
  static const telem::counter chunks{"store.read.chunks", "chunks", "store"};
  static const telem::counter bytes{"store.read.bytes", "bytes", "store"};
  static const telem::counter crc_checks{"store.read.crc_validations",
                                         "checks", "store"};
  static const telem::counter skips{"store.read.salvage_skips", "chunks",
                                    "store"};
  chunks.add(chunks_.size());
  bytes.add(map_size_);
  // One file-header CRC + one header CRC per non-torn chunk slot + one
  // payload CRC per chunk that got that far.
  crc_checks.add(1 + ordinal + chunks_.size());
  skips.add(damage_.size());
  // The decode scratch row is allocated lazily by stream(): the common
  // (f64, aligned) path never needs it, and a forged header must not be
  // able to trigger a huge allocation before any record exists.
}

trace_store_reader::trace_store_reader(trace_store_reader&& other) noexcept
    : desc_(other.desc_), mode_(other.mode_),
      map_(std::exchange(other.map_, nullptr)),
      map_size_(std::exchange(other.map_size_, 0)), traces_(other.traces_),
      end_record_(other.end_record_), chunks_(std::move(other.chunks_)),
      damage_(std::move(other.damage_)),
      scratch_(std::move(other.scratch_)) {}

trace_store_reader::~trace_store_reader() {
  if (map_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(map_), map_size_);
  }
}

const chunk_extent& trace_store_reader::extent(std::size_t chunk) const {
  if (chunk >= chunks_.size()) {
    throw util::analysis_error("trace store chunk index out of range");
  }
  return chunks_[chunk];
}

batch_rows trace_store_reader::chunk_rows(std::size_t chunk) const {
  const chunk_extent& entry = extent(chunk);
  const std::size_t n_labels = desc_.labels;
  const std::size_t n_samples = static_cast<std::size_t>(desc_.samples);
  batch_rows rows;
  rows.first_record = entry.first_record;
  rows.count = entry.count;
  const unsigned char* payload = map_ + entry.offset + chunk_header_bytes;
  if (desc_.scalar == trace_scalar::f64) {
    // An f64 record is labels*8 + samples*8 bytes and every payload
    // offset is 8-aligned (header sizes are multiples of 8), so the
    // mapping IS the tile.
    assert(reinterpret_cast<std::uintptr_t>(payload) % alignof(double) ==
           0);
    rows.labels = reinterpret_cast<const double*>(payload);
    rows.samples = rows.labels + n_labels;
    rows.stride = n_labels + n_samples;
    return rows;
  }
  // f32 store: decode the whole chunk into one packed scratch tile —
  // one pass over the chunk, no per-record scratch churn on replay.
  const std::size_t row_doubles = n_labels + n_samples;
  scratch_.resize(rows.count * row_doubles);
  const std::uint64_t record_bytes = desc_.record_bytes();
  for (std::size_t r = 0; r < rows.count; ++r) {
    const unsigned char* rec = payload + r * record_bytes;
    double* dst = scratch_.data() + r * row_doubles;
    std::memcpy(dst, rec, n_labels * sizeof(double));
    const unsigned char* src = rec + n_labels * sizeof(double);
    for (std::size_t s = 0; s < n_samples; ++s) {
      float f;
      std::memcpy(&f, src + s * sizeof(float), sizeof f);
      dst[n_labels + s] = static_cast<double>(f);
    }
  }
  rows.labels = scratch_.data();
  rows.samples = scratch_.data() + n_labels;
  rows.stride = row_doubles;
  return rows;
}

void trace_store_reader::stream(const record_fn& fn) const {
  const std::size_t n_labels = desc_.labels;
  const std::size_t n_samples = static_cast<std::size_t>(desc_.samples);
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    const batch_rows rows = chunk_rows(c);
    for (std::size_t r = 0; r < rows.count; ++r) {
      const double* row_labels = rows.labels + r * rows.stride;
      const double* row_samples = rows.samples + r * rows.stride;
      fn(first_index() + rows.first_record + r, {row_labels, n_labels},
         {row_samples, n_samples});
    }
  }
}

} // namespace usca::power
