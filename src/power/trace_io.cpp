#include "power/trace_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "power/trace_store_format.h"
#include "power/trace_store_reader.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/telemetry.h"

namespace usca::power {

namespace {

using namespace store_format;

std::size_t scalar_bytes(trace_scalar scalar) noexcept {
  return scalar == trace_scalar::f32 ? 4 : 8;
}

/// Serializes the 64-byte file header (including its CRC).
void encode_file_header(const trace_store_descriptor& desc,
                        unsigned char (&buf)[file_header_bytes]) {
  std::memset(buf, 0, sizeof buf); // the reserved word stays 0
  std::memcpy(buf, magic, sizeof magic);
  put(buf, hdr_version, version);
  put(buf, hdr_scalar, static_cast<std::uint32_t>(desc.scalar));
  put(buf, hdr_samples, desc.samples);
  put(buf, hdr_labels, desc.labels);
  put(buf, hdr_chunk_traces, desc.chunk_traces);
  put(buf, hdr_seed, desc.seed);
  put(buf, hdr_config_hash, desc.config_hash);
  put(buf, hdr_first_index, desc.first_index);
  put(buf, hdr_crc, util::crc32(buf, hdr_crc));
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
                           store_resume_report* report) {
  if (report != nullptr) {
    *report = store_resume_report{};
  }
  // The quarantine holds what the last successful resume cut: a resume
  // that cuts nothing removes the one an earlier repair left.
  const std::string qpath = path + ".quarantine";
  trace_store_writer writer(path, desc);
  writer.fd_ = ::open(path.c_str(), O_RDWR);
  if (writer.fd_ < 0) {
    trace_store_writer fresh = create(path, desc); // missing file
    ::unlink(qpath.c_str());
    return fresh;
  }
  bool cut = false;
  try {
    cut = writer.resume_existing(report);
  } catch (...) {
    // Release the descriptor without going through close(): a rejected
    // file (foreign configuration, not a store at all) must be left
    // untouched, and close() would stamp a deferred header over its
    // first bytes.
    ::close(writer.fd_);
    writer.fd_ = -1;
    throw;
  }
  if (!cut) {
    ::unlink(qpath.c_str());
  }
  return writer;
}

bool trace_store_writer::resume_existing(store_resume_report* report) {
  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    throw util::analysis_error("cannot stat '" + path_ + "'");
  }
  if (st.st_size == 0) {
    return false; // empty file: behaves like create()
  }

  const auto refuse_foreign = [this](const trace_store_descriptor& file) {
    if (file.scalar != desc_.scalar ||
        file.chunk_traces != desc_.chunk_traces || file.seed != desc_.seed ||
        file.config_hash != desc_.config_hash ||
        file.first_index != desc_.first_index ||
        file.labels != desc_.labels ||
        (desc_.samples != 0 && file.samples != desc_.samples)) {
      throw util::analysis_error(
          "trace store '" + path_ +
          "' was written by a different campaign configuration; refusing "
          "to resume into it");
    }
  };
  // The header alone decides whether this campaign may resume the file,
  // so a store of another configuration is turned away before a single
  // chunk is mapped or checksummed.
  refuse_foreign(trace_store_reader::read_header(path_));

  std::uint64_t keep = file_header_bytes; // file bytes that stay on disk
  std::uint64_t records = 0;              // records in kept chunks
  bool cut = false;                       // a torn tail was quarantined
  {
    const trace_store_reader reader(path_, store_open_mode::salvage);
    refuse_foreign(reader.descriptor()); // the header as mapped
    desc_ = reader.descriptor(); // adopt the file's (known) sample count
    header_written_ = true;

    // Keep the leading chunks that lie back to back from the header with
    // indices continuing from 0.  A short chunk is only valid as the last
    // one, so the run ends with the first short chunk; whatever follows
    // is torn tail, and the dropped records re-simulate deterministically.
    const chunk_extent* short_chunk = nullptr;
    for (std::size_t c = 0; c < reader.chunk_count(); ++c) {
      const chunk_extent& chunk = reader.extent(c);
      if (chunk.offset != keep || chunk.first_record != records) {
        break;
      }
      keep += chunk.bytes;
      records += chunk.count;
      if (chunk.count < desc_.chunk_traces) {
        short_chunk = &chunk;
        break;
      }
    }

    // The torn tail goes to `<path>.quarantine` before the truncation
    // below destroys it, so forensics can inspect what was lost while
    // the store itself is repaired to the reader's invariant.
    const std::span<const unsigned char> bytes = reader.file_bytes();
    const std::span<const unsigned char> tail = bytes.subspan(keep);
    cut = !tail.empty();
    if (cut) {
      const std::string qpath = path_ + ".quarantine";
      const int qfd =
          ::open(qpath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (qfd < 0) {
        throw util::analysis_error("cannot open quarantine file '" + qpath +
                                   "'");
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
        report->truncated_bytes = tail.size();
        report->quarantine_path = qpath;
      }
    }

    // Re-buffer a kept short chunk instead of keeping it on disk: its
    // records go back into the pending-chunk buffer and the file is cut
    // at the last full-chunk boundary.  Appends then fill the pending
    // chunk to its nominal size, so the chunk layout — and therefore the
    // bytes — is identical to a single uninterrupted run; a resume that
    // appends nothing flushes the same short chunk back on close().
    if (short_chunk != nullptr) {
      const std::span<const unsigned char> payload =
          bytes.subspan(short_chunk->offset + chunk_header_bytes,
                        short_chunk->bytes - chunk_header_bytes);
      chunk_buf_.assign(payload.begin(), payload.end());
      buffered_ = short_chunk->count;
      keep = short_chunk->offset;
      records -= short_chunk->count;
    }
  } // the reader unmaps the file before it is truncated

  if (::ftruncate(fd_, static_cast<off_t>(keep)) != 0 ||
      ::lseek(fd_, 0, SEEK_END) < 0) {
    throw util::analysis_error("cannot truncate '" + path_ +
                               "' to its last intact chunk");
  }
  written_ = records;
  return cut;
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
  put(chdr, chk_count, buffered_);
  put(chdr, chk_first_index, desc_.first_index + written_);
  put(chdr, chk_payload_bytes,
      static_cast<std::uint64_t>(chunk_buf_.size()));
  put(chdr, chk_payload_crc,
      util::crc32(chunk_buf_.data(), chunk_buf_.size()));
  put(chdr, chk_crc, util::crc32(chdr, chk_crc));
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
