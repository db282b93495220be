#include "power/trace_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <utility>

#include "util/crc32.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/telemetry.h"

namespace usca::power {

static_assert(std::endian::native == std::endian::little,
              "the trace store is defined little endian and this "
              "implementation serializes by memcpy");

namespace {

// ------------------------------------------------------- store constants

constexpr char store_magic[8] = {'U', 'S', 'C', 'A', 'T', 'R', 'C', '2'};
constexpr std::uint32_t store_version = 2;
constexpr std::uint32_t chunk_magic = 0x4b4e4843; // "CHNK"
constexpr std::size_t file_header_bytes = 64;
constexpr std::size_t chunk_header_bytes = 32;

std::size_t scalar_bytes(trace_scalar scalar) noexcept {
  return scalar == trace_scalar::f32 ? 4 : 8;
}

template <typename T>
void put(unsigned char* buf, std::size_t offset, T value) noexcept {
  std::memcpy(buf + offset, &value, sizeof value);
}

template <typename T> T get(const unsigned char* buf, std::size_t offset) {
  T value{};
  std::memcpy(&value, buf + offset, sizeof value);
  return value;
}

/// Serializes the 64-byte file header (including its CRC).
void encode_file_header(const trace_store_descriptor& desc,
                        unsigned char (&buf)[file_header_bytes]) {
  std::memset(buf, 0, sizeof buf);
  std::memcpy(buf, store_magic, sizeof store_magic);
  put(buf, 8, store_version);
  put(buf, 12, static_cast<std::uint32_t>(desc.scalar));
  put(buf, 16, desc.samples);
  put(buf, 24, desc.labels);
  put(buf, 28, desc.chunk_traces);
  put(buf, 32, desc.seed);
  put(buf, 40, desc.config_hash);
  put(buf, 48, desc.first_index);
  put(buf, 56, std::uint32_t{0}); // reserved
  put(buf, 60, util::crc32(buf, 60));
}

void full_write(int fd, const void* data, std::size_t size,
                const std::string& path) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, bytes, size);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw util::analysis_error("write to trace store '" + path +
                                 "' failed");
    }
    bytes += n;
    size -= static_cast<std::size_t>(n);
  }
}

bool full_pread(int fd, void* data, std::size_t size, std::uint64_t offset) {
  auto* bytes = static_cast<unsigned char*>(data);
  while (size > 0) {
    const ssize_t n =
        ::pread(fd, bytes, size, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    if (n == 0) {
      return false; // short file
    }
    bytes += n;
    size -= static_cast<std::size_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
  return true;
}

} // namespace

std::uint64_t trace_store_descriptor::record_bytes() const noexcept {
  return std::uint64_t{labels} * 8 + samples * scalar_bytes(scalar);
}

// ------------------------------------------------------------- writer

trace_store_writer::trace_store_writer(std::string path,
                                       const trace_store_descriptor& desc)
    : path_(std::move(path)), desc_(desc) {
  if (desc_.chunk_traces == 0) {
    throw util::analysis_error("trace store chunk_traces must be positive");
  }
}

trace_store_writer::trace_store_writer(trace_store_writer&& other) noexcept
    : path_(std::move(other.path_)), desc_(other.desc_),
      fd_(std::exchange(other.fd_, -1)),
      header_written_(other.header_written_), written_(other.written_),
      buffered_(other.buffered_), chunk_buf_(std::move(other.chunk_buf_)) {}

trace_store_writer&
trace_store_writer::operator=(trace_store_writer&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      ::close(fd_);
    }
    path_ = std::move(other.path_);
    desc_ = other.desc_;
    fd_ = std::exchange(other.fd_, -1);
    header_written_ = other.header_written_;
    written_ = other.written_;
    buffered_ = other.buffered_;
    chunk_buf_ = std::move(other.chunk_buf_);
  }
  return *this;
}

trace_store_writer::~trace_store_writer() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; an explicit close() reports the error.
  }
}

trace_store_writer
trace_store_writer::create(const std::string& path,
                           const trace_store_descriptor& desc) {
  trace_store_writer writer(path, desc);
  writer.fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (writer.fd_ < 0) {
    throw util::analysis_error("cannot open '" + path + "' for writing");
  }
  return writer;
}

trace_store_writer
trace_store_writer::resume(const std::string& path,
                           const trace_store_descriptor& desc,
                           const store_resume_options& options,
                           store_resume_report* report) {
  if (report != nullptr) {
    *report = store_resume_report{};
  }
  trace_store_writer writer(path, desc);
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    return create(path, desc); // missing file: fresh store
  }
  writer.fd_ = fd;
  try {
    writer.resume_existing(path, desc, options, report);
  } catch (...) {
    // Release the descriptor without going through close(): a rejected
    // file (foreign configuration, not a store at all) must be left
    // untouched, and close() would stamp a deferred header over its
    // first bytes.
    ::close(writer.fd_);
    writer.fd_ = -1;
    throw;
  }
  return writer;
}

void trace_store_writer::resume_existing(const std::string& path,
                                         const trace_store_descriptor& desc,
                                         const store_resume_options& options,
                                         store_resume_report* report) {
  const int fd = fd_;
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    throw util::analysis_error("cannot stat '" + path + "'");
  }
  const auto file_size = static_cast<std::uint64_t>(st.st_size);
  if (file_size == 0) {
    return; // empty file: behaves like create()
  }

  unsigned char header[file_header_bytes];
  if (file_size < file_header_bytes ||
      !full_pread(fd, header, sizeof header, 0)) {
    throw util::analysis_error("'" + path + "' is not a usca trace store "
                               "(short header)");
  }
  if (std::memcmp(header, store_magic, sizeof store_magic) != 0 ||
      get<std::uint32_t>(header, 8) != store_version) {
    throw util::analysis_error("'" + path + "' is not a version-" +
                               std::to_string(store_version) +
                               " usca trace store");
  }
  if (get<std::uint32_t>(header, 60) != util::crc32(header, 60)) {
    throw util::analysis_error("trace store '" + path +
                               "' header checksum mismatch");
  }

  trace_store_descriptor file_desc;
  file_desc.scalar =
      static_cast<trace_scalar>(get<std::uint32_t>(header, 12));
  file_desc.samples = get<std::uint64_t>(header, 16);
  if (file_desc.samples > (1ULL << 32)) {
    throw util::analysis_error("trace store '" + path +
                               "' header has an implausible sample count");
  }
  file_desc.labels = get<std::uint32_t>(header, 24);
  file_desc.chunk_traces = get<std::uint32_t>(header, 28);
  file_desc.seed = get<std::uint64_t>(header, 32);
  file_desc.config_hash = get<std::uint64_t>(header, 40);
  file_desc.first_index = get<std::uint64_t>(header, 48);

  const bool mismatch =
      file_desc.scalar != desc.scalar ||
      file_desc.chunk_traces != desc.chunk_traces ||
      file_desc.seed != desc.seed ||
      file_desc.config_hash != desc.config_hash ||
      file_desc.first_index != desc.first_index ||
      file_desc.labels != desc.labels ||
      (desc.samples != 0 && file_desc.samples != desc.samples);
  if (mismatch) {
    throw util::analysis_error(
        "trace store '" + path +
        "' was written by a different campaign configuration; refusing "
        "to resume into it");
  }
  desc_ = file_desc; // adopt the file's (known) sample count
  header_written_ = true;

  // Walk the chunk chain; stop at the first torn/corrupt chunk.
  const std::uint64_t record_bytes = file_desc.record_bytes();
  std::uint64_t offset = file_header_bytes;
  std::uint64_t records = 0;
  std::uint64_t last_chunk_offset = offset;
  std::uint32_t last_chunk_count = 0;
  std::vector<unsigned char> payload;
  for (;;) {
    unsigned char chdr[chunk_header_bytes];
    if (offset + chunk_header_bytes > file_size ||
        !full_pread(fd, chdr, sizeof chdr, offset)) {
      break;
    }
    if (get<std::uint32_t>(chdr, 0) != chunk_magic ||
        get<std::uint32_t>(chdr, 28) != util::crc32(chdr, 28)) {
      break;
    }
    const std::uint32_t count = get<std::uint32_t>(chdr, 4);
    const std::uint64_t payload_bytes = get<std::uint64_t>(chdr, 16);
    // Overflow-safe (samples and chunk_traces were bounds-checked above,
    // so count * record_bytes cannot wrap, and the fit test subtracts
    // from the known-larger file size).
    if (count == 0 || count > file_desc.chunk_traces ||
        payload_bytes != count * record_bytes ||
        get<std::uint64_t>(chdr, 8) != file_desc.first_index + records ||
        payload_bytes > file_size - offset - chunk_header_bytes) {
      break;
    }
    payload.resize(payload_bytes);
    if (!full_pread(fd, payload.data(), payload_bytes,
                    offset + chunk_header_bytes) ||
        util::crc32(payload.data(), payload.size()) !=
            get<std::uint32_t>(chdr, 24)) {
      break;
    }
    last_chunk_offset = offset;
    last_chunk_count = count;
    records += count;
    offset += chunk_header_bytes + payload_bytes;
    if (count < file_desc.chunk_traces) {
      // A short chunk is only valid as the LAST chunk (the reader
      // rejects a short chunk mid-chain).  Stop the walk here: whatever
      // follows is treated as torn tail, the short chunk is re-buffered
      // below, and the truncated records re-simulate deterministically —
      // the resumed file satisfies the reader's invariant again.
      break;
    }
  }

  // The bytes past the last intact chunk are a torn tail (killed writer,
  // bit rot) the truncation below destroys.  Preserve them first when
  // asked: `<path>.quarantine` holds the exact cut region, so forensics
  // — and the corruption-taxonomy tests — can inspect what was lost
  // while the store itself is repaired to the reader's invariant.
  if (report != nullptr) {
    report->truncated_bytes = file_size - offset;
  }
  if (options.quarantine_torn_tail && offset < file_size) {
    const std::string qpath = path + ".quarantine";
    const int qfd = ::open(qpath.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                           0644);
    if (qfd < 0) {
      throw util::analysis_error("cannot open quarantine file '" + qpath +
                                 "'");
    }
    std::vector<unsigned char> tail(
        static_cast<std::size_t>(file_size - offset));
    if (!full_pread(fd, tail.data(), tail.size(), offset)) {
      ::close(qfd);
      throw util::analysis_error("cannot read the torn tail of '" + path +
                                 "' for quarantine");
    }
    try {
      full_write(qfd, tail.data(), tail.size(), qpath);
    } catch (...) {
      ::close(qfd);
      throw;
    }
    if (::close(qfd) != 0) {
      throw util::analysis_error("closing quarantine file '" + qpath +
                                 "' failed");
    }
    if (report != nullptr) {
      report->quarantine_path = qpath;
    }
  }

  // Re-buffer a trailing short chunk instead of keeping it on disk: its
  // records go back into the pending-chunk buffer and the file is cut at
  // the last full-chunk boundary.  Appends then fill the pending chunk to
  // its nominal size, so the chunk layout — and therefore the bytes — is
  // identical to a single uninterrupted run; a resume that appends
  // nothing flushes the same short chunk back on close().
  if (last_chunk_count != 0 && last_chunk_count < file_desc.chunk_traces) {
    records -= last_chunk_count;
    offset = last_chunk_offset;
    chunk_buf_.resize(last_chunk_count * record_bytes);
    if (!full_pread(fd, chunk_buf_.data(), chunk_buf_.size(),
                    last_chunk_offset + chunk_header_bytes)) {
      throw util::analysis_error("cannot re-read the tail chunk of '" +
                                 path + "'");
    }
    buffered_ = last_chunk_count;
  }

  if (::ftruncate(fd, static_cast<off_t>(offset)) != 0 ||
      ::lseek(fd, 0, SEEK_END) < 0) {
    throw util::analysis_error("cannot truncate '" + path +
                               "' to its last intact chunk");
  }
  written_ = records;
  if (report != nullptr) {
    report->intact_records = records + buffered_;
  }
}

void trace_store_writer::write_header() {
  util::failpoint("store_write_header");
  unsigned char buf[file_header_bytes];
  encode_file_header(desc_, buf);
  full_write(fd_, buf, sizeof buf, path_);
  header_written_ = true;
}

void trace_store_writer::append(std::span<const double> labels,
                                std::span<const double> samples) {
  if (fd_ < 0) {
    throw util::analysis_error("append to a closed trace store");
  }
  if (desc_.samples == 0 && written_ == 0 && buffered_ == 0) {
    desc_.samples = samples.size();
  }
  if (labels.size() != desc_.labels || samples.size() != desc_.samples) {
    throw util::analysis_error(
        "trace store record shape mismatch (got " +
        std::to_string(labels.size()) + " labels x " +
        std::to_string(samples.size()) + " samples, store holds " +
        std::to_string(desc_.labels) + " x " +
        std::to_string(desc_.samples) + ")");
  }

  const std::size_t old = chunk_buf_.size();
  chunk_buf_.resize(old + desc_.record_bytes());
  unsigned char* out = chunk_buf_.data() + old;
  std::memcpy(out, labels.data(), labels.size() * sizeof(double));
  out += labels.size() * sizeof(double);
  if (desc_.scalar == trace_scalar::f32) {
    for (const double v : samples) {
      const float f = static_cast<float>(v);
      std::memcpy(out, &f, sizeof f);
      out += sizeof f;
    }
  } else {
    std::memcpy(out, samples.data(), samples.size() * sizeof(double));
  }
  if (++buffered_ == desc_.chunk_traces) {
    flush_chunk();
  }
}

void trace_store_writer::flush_chunk() {
  if (buffered_ == 0) {
    return;
  }
  if (!header_written_) {
    write_header();
  }
  unsigned char chdr[chunk_header_bytes];
  std::memset(chdr, 0, sizeof chdr);
  put(chdr, 0, chunk_magic);
  put(chdr, 4, buffered_);
  put(chdr, 8, desc_.first_index + written_);
  put(chdr, 16, static_cast<std::uint64_t>(chunk_buf_.size()));
  put(chdr, 24, util::crc32(chunk_buf_.data(), chunk_buf_.size()));
  put(chdr, 28, util::crc32(chdr, 28));
  if (util::failpoint("store_write_chunk")) {
    // `corrupt` action: flip one payload bit AFTER the CRCs above were
    // computed — the chunk lands on disk with exactly the silent bit rot
    // the reader's chunk_payload_crc fault class exists to catch.
    chunk_buf_[chunk_buf_.size() / 2] ^= 0x10;
  }
  full_write(fd_, chdr, sizeof chdr, path_);
  full_write(fd_, chunk_buf_.data(), chunk_buf_.size(), path_);
  static const telem::counter chunks{"store.write.chunks", "chunks", "store"};
  static const telem::counter bytes{"store.write.bytes", "bytes", "store"};
  chunks.add();
  bytes.add(sizeof chdr + chunk_buf_.size());
  written_ += buffered_;
  buffered_ = 0;
  chunk_buf_.clear();
}

void trace_store_writer::close() {
  if (fd_ < 0) {
    return;
  }
  try {
    flush_chunk();
    if (!header_written_ && desc_.samples != 0) {
      write_header(); // zero-record store with a known shape
    }
  } catch (...) {
    // The flush failed (e.g. disk full): still release the descriptor so
    // a caller that handles the error does not leak fds.
    ::close(fd_);
    fd_ = -1;
    throw;
  }
  const int rc = ::close(fd_);
  fd_ = -1;
  if (rc != 0) {
    throw util::analysis_error("closing trace store '" + path_ +
                               "' failed");
  }
}

} // namespace usca::power
