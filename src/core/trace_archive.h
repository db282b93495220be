// Resumable campaign archiving: the checkpoint/resume driver on top of
// the chunked trace store.
//
// Because every record of a campaign derives from (seed, index) alone,
// an archive IS a checkpoint: the store's self-describing header records
// the seed and a hash of the producing configuration, its chunk chain
// records exactly which [first_index, next_index) range is already on
// disk, and a restarted campaign simply appends the missing suffix —
// producing a file byte-identical to one uninterrupted run (the resume
// tests pin this, for both core models).  The same prefix property turns
// the archive functions into a distributed range hand-out primitive:
// disjoint first_index ranges archived on different machines concatenate
// into one logical campaign.
//
// The config hash binds an archive to its producing configuration so a
// resume (or a replay analysis) cannot silently mix trace populations;
// it covers everything that influences record content except the fields
// that are free to vary (thread count, trace count, first index).
#ifndef USCA_CORE_TRACE_ARCHIVE_H
#define USCA_CORE_TRACE_ARCHIVE_H

#include <cstdint>
#include <string>

#include "core/acquisition.h"
#include "core/campaign.h"
#include "power/trace_io.h"

namespace usca::core {

/// FNV-1a over explicitly enumerated fields — the one hashing scheme
/// every stored config hash uses (raw struct bytes would hash padding).
/// Shared so producers that salt extra identity into the hash (e.g. the
/// characterizer's benchmark salt) stay in sync with validation.
class config_hasher {
public:
  void mix(std::uint64_t value) noexcept {
    hash_ ^= value;
    hash_ *= 0x100000001b3ULL;
  }
  void mix(double value) noexcept;
  void mix(bool value) noexcept { mix(std::uint64_t{value}); }

  std::uint64_t value() const noexcept { return hash_; }

private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct archive_options {
  power::trace_scalar scalar = power::trace_scalar::f64;
  std::uint32_t chunk_traces = 256;
  /// Extra identity mixed into the stored config hash, for producers
  /// whose record content depends on more than the acquisition config
  /// (e.g. a non-default plaintext policy, see archive_aes_campaign).
  std::uint64_t config_salt = 0;
};

struct archive_result {
  std::size_t simulated = 0; ///< records newly simulated by this call
  std::size_t total = 0;     ///< records now in the archive
  /// Torn-tail bytes a resume cut off (and preserved in
  /// quarantine_path) before re-simulating the lost range — 0 for a
  /// clean resume or a fresh archive.  The resulting file is
  /// byte-identical to an uninterrupted run either way; the quarantine
  /// keeps the damaged bytes available for forensics.
  std::uint64_t quarantined_bytes = 0;
  std::string quarantine_path; ///< "" when nothing was quarantined
};

/// Hash of every acquisition_config field that influences record content
/// (window, averaging, synthesis weights/noise, micro-architecture,
/// backend).  Excludes traces/first_index/threads — those may differ
/// between the runs that cooperate on one archive — and the seed, which
/// the store header records verbatim.
std::uint64_t acquisition_config_hash(const acquisition_config& config) noexcept;

/// Ditto for an AES trace campaign; additionally covers the key.
std::uint64_t aes_campaign_config_hash(const campaign_config& config,
                                       const crypto::aes_key& key) noexcept;

/// The hash actually stored for (config_hash, archive_options.config_salt)
/// — exposed so replay paths can validate an archive's provenance.
std::uint64_t salted_config_hash(std::uint64_t config_hash,
                                 std::uint64_t salt) noexcept;

/// Creates or resumes the archive at `path` and simulates exactly the
/// records in [config.first_index, config.first_index + config.traces)
/// that the archive does not already hold.  Record labels/samples are the
/// acquisition_record's; as a store row holds nothing else, each trial is
/// simulated only up to its window's end mark (acquisition_source).  Throws util::analysis_error when `path` holds a
/// store written by a different configuration.  An unrecoverable tail
/// (torn or corrupted chunks after the last intact one) is quarantined
/// to `path + ".quarantine"` and only the lost range is re-simulated —
/// a damaged archive degrades to extra simulation, never to data loss
/// or a failed campaign.  Failpoint site `archive_record` fires once
/// per newly simulated record (crash/delay injection for the fabric
/// kill-and-resume tests).
archive_result archive_acquisition(const sim::program_image& image,
                                   const acquisition_config& config,
                                   const acquisition_campaign::setup_fn& setup,
                                   const std::string& path,
                                   const archive_options& options = {});

/// Ditto for an AES trace campaign (labels = 16 plaintext bytes).  Pass
/// `plaintext` to replace the default uniform-random policy (e.g. the
/// TVLA fixed-vs-random split); like the campaign's own contract it must
/// be a pure function of (index, rng) or the resume bit-identity breaks.
/// CAUTION: the stored config hash cannot cover the policy callback —
/// when archiving with a non-default policy, salt its identity in via
/// archive_options.config_salt, or a later resume with a different
/// policy will pass the provenance check and silently mix trace
/// populations.
archive_result
archive_aes_campaign(const campaign_config& config, const crypto::aes_key& key,
                     const std::string& path,
                     const archive_options& options = {},
                     const trace_campaign::plaintext_fn& plaintext = {});

} // namespace usca::core

#endif // USCA_CORE_TRACE_ARCHIVE_H
