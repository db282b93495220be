// Fault-tolerant campaign fabric: coordinator/worker range leases over
// the resumable archive layer.
//
// A million-trace campaign is hours of wall clock across many worker
// processes — workers WILL be killed, stall, or land on corrupted disks.
// The substrate already guarantees that disjoint [first_index,
// first_index + n) shards of one configuration concatenate into one
// logical campaign, and that a killed archive resumes byte-identically
// (core/trace_archive.h).  The fabric adds the missing control plane:
//
//  * The campaign range is split into LEASES of lease_traces records,
//    each backed by one shard store.  Lease state lives in a journaled
//    MANIFEST — a small text file bound to the campaign's (salted)
//    config hash and seed, atomically rewritten (tmp + fsync + rename)
//    on every transition, so a killed coordinator resumes exactly where
//    it died: done leases stay done, in-flight leases are re-issued.
//  * A coordinator loop hands leases to workers (up to `workers`
//    concurrently), detects crashes (worker exit) and stragglers (lease
//    deadline -> SIGKILL), and re-issues failed ranges with capped
//    exponential backoff until max_attempts is exhausted.  A re-issued
//    worker RESUMES its shard — only the records that never reached
//    disk are re-simulated.
//  * Completed shards are strictly validated (full CRC walk + config
//    binding + exact lease range) before a lease counts as done; a
//    done shard that later fails validation (bit rot between runs) is
//    quarantined back to pending and re-simulated.
//  * merge() concatenates the validated shards into one store that is
//    byte-identical to a single uninterrupted archive of the whole
//    range — the acceptance property the fabric tests pin.
//
// Workers are abstracted behind worker_runner so the same coordinator
// drives OS processes (process_worker_runner — the production path,
// used by examples/usca_fabric.cpp) and in-process threads
// (thread_worker_runner — the deterministic test path, where failpoint
// `error` actions stand in for worker deaths).
#ifndef USCA_CORE_CAMPAIGN_FABRIC_H
#define USCA_CORE_CAMPAIGN_FABRIC_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace usca::core {

enum class lease_state {
  pending, ///< waiting for a worker (or re-issued after a failure)
  leased,  ///< handed to a live worker (reloads as pending: worker died)
  done,    ///< shard validated and complete
};

const char* lease_state_name(lease_state state) noexcept;

struct fabric_lease {
  std::size_t id = 0;          ///< dense ordinal, also the shard number
  std::size_t first_index = 0; ///< global index of the range's record 0
  std::size_t traces = 0;      ///< records in the range
  unsigned attempts = 0;       ///< worker launches so far
  lease_state state = lease_state::pending;
  std::string shard_path;
};

/// A fabric manifest as the coordinator journals it: the campaign's
/// binding and split, and every lease with its state as written
/// (`leased` included; the coordinator demotes it to pending on load,
/// status views show it).  The one reader of the format, so health
/// checks and status views read exactly what the coordinator accepts.
struct fabric_manifest {
  std::uint64_t config_hash = 0;
  std::uint64_t seed = 0;
  std::size_t first_index = 0;
  std::size_t traces = 0;
  std::size_t lease_traces = 0;
  std::vector<fabric_lease> leases; ///< in id order

  /// Parses the manifest at `path`.  Accepts only what the coordinator
  /// writes: the magic line, the five campaign lines in order, then one
  /// lease line per lease of the campaign's split, in id order, every
  /// line newline-terminated.  Throws util::analysis_error naming the
  /// path and the first line at fault otherwise.
  static fabric_manifest read(const std::string& path);

  /// True when `path` starts with the manifest magic line: how a caller
  /// tells a manifest from a trace store or another file without a
  /// parse.  False for a missing or unreadable file.
  static bool probe(const std::string& path) noexcept;
};

/// Point-in-time coordinator view handed to fabric_config::on_progress:
/// enough to render a progress line (done trace count, live workers)
/// or a full per-lease health report without touching coordinator
/// internals.  `leases` aliases the coordinator's vector — valid only
/// for the duration of the callback.
struct fabric_progress {
  const std::vector<fabric_lease>* leases = nullptr;
  std::size_t done_leases = 0;
  std::size_t done_traces = 0;  ///< records in done leases
  std::size_t total_traces = 0; ///< campaign size
  std::size_t live_workers = 0; ///< leases currently in flight
  bool finished = false;        ///< final invocation of this run()
};

struct fabric_config {
  std::string manifest_path; ///< journaled lease state
  std::string shard_dir;     ///< shard stores land here (shard-NNNNNN.trc)
  std::size_t first_index = 0;
  std::size_t traces = 0;
  std::size_t lease_traces = 4096; ///< records per lease (last may be short)
  std::uint64_t seed = 0;
  /// Salted config hash of the producing campaign
  /// (core::salted_config_hash) — bound into the manifest and checked
  /// against every shard header, so a fabric can never mix trace
  /// populations across configurations.
  std::uint64_t config_hash = 0;
  unsigned workers = 1;      ///< concurrently outstanding leases
  unsigned max_attempts = 5; ///< worker launches per lease before giving up
  /// Kill a worker that holds a lease longer than this (0 = no deadline;
  /// only the process runner can actually kill — see cancel()).
  std::chrono::milliseconds lease_deadline{0};
  std::chrono::milliseconds backoff_base{100}; ///< delay after 1st failure
  std::chrono::milliseconds backoff_cap{5'000};
  std::chrono::milliseconds poll_interval{10};
  /// Observational hook called from run() every progress_interval (and
  /// once more, with finished = true, when the run completes).  Must not
  /// throw; lease mutation belongs to the coordinator alone.
  std::function<void(const fabric_progress&)> on_progress;
  std::chrono::milliseconds progress_interval{500};
};

enum class worker_status { running, succeeded, failed };

/// How the coordinator launches and supervises one lease's worker.
/// Handles are runner-scoped tokens; every started handle is polled
/// until it leaves `running` (or is cancelled), never abandoned.
class worker_runner {
public:
  virtual ~worker_runner() = default;

  /// Launches a worker for `lease`; throws util::analysis_error when the
  /// launch itself fails (counts as a failed attempt).
  virtual std::size_t start(const fabric_lease& lease) = 0;

  /// Non-blocking status of a started worker.
  virtual worker_status poll(std::size_t handle) = 0;

  /// Best-effort kill of a straggler (lease deadline exceeded).  The
  /// process runner SIGKILLs; the thread runner can only wait the thread
  /// out (std::thread is not interruptible), so deadlines there detect
  /// but cannot preempt.
  virtual void cancel(std::size_t handle) = 0;
};

/// Runs each lease as `fn(lease)` on a dedicated std::thread; an
/// exception from fn fails the lease.  The failpoint site
/// `fabric_worker` fires at worker entry (an `error` rule is the
/// in-process stand-in for a worker crash).
class thread_worker_runner final : public worker_runner {
public:
  using worker_fn = std::function<void(const fabric_lease&)>;

  explicit thread_worker_runner(worker_fn fn);
  ~thread_worker_runner() override;

  std::size_t start(const fabric_lease& lease) override;
  worker_status poll(std::size_t handle) override;
  void cancel(std::size_t handle) override;

private:
  struct job;
  worker_fn fn_;
  std::vector<std::unique_ptr<job>> jobs_;
};

/// fork/execs `argv_for(lease)` per lease (argv[0] is the binary path);
/// exit code 0 is success, anything else — including a failpoint crash
/// or a real SIGKILL — is a failed attempt.  cancel() SIGKILLs.
class process_worker_runner final : public worker_runner {
public:
  using argv_fn =
      std::function<std::vector<std::string>(const fabric_lease&)>;

  explicit process_worker_runner(argv_fn argv_for);

  std::size_t start(const fabric_lease& lease) override;
  worker_status poll(std::size_t handle) override;
  void cancel(std::size_t handle) override;

private:
  struct job {
    long pid = -1;
    worker_status status = worker_status::running;
  };
  argv_fn argv_for_;
  std::vector<job> jobs_;
};

struct fabric_report {
  std::size_t leases = 0;         ///< total leases in the manifest
  std::size_t already_done = 0;   ///< valid before this run started
  std::size_t completed = 0;      ///< completed by this run
  std::size_t worker_failures = 0;///< worker exits/throws observed
  std::size_t deadline_kills = 0; ///< stragglers cancelled at deadline
  std::size_t invalid_shards = 0; ///< shards that failed validation
  std::size_t relaunches = 0;     ///< launches beyond each lease's first
};

/// The coordinator.  Construction loads the manifest at
/// config.manifest_path when it exists (validating the config binding)
/// or creates and journals a fresh lease split.  Throws
/// util::analysis_error for an empty campaign or lease size and for a
/// range whose end, first_index + traces, overflows.
class campaign_fabric {
public:
  explicit campaign_fabric(fabric_config config);

  const fabric_config& config() const noexcept { return config_; }
  const std::vector<fabric_lease>& leases() const noexcept {
    return leases_;
  }

  /// Drives every lease to `done` through `runner` (see class comment).
  /// Throws util::analysis_error when a lease exhausts max_attempts —
  /// the manifest keeps all completed work, so a later run() resumes.
  fabric_report run(worker_runner& runner);

  /// Validates every shard against its lease and the config binding,
  /// then concatenates them into `out_path` — byte-identical to one
  /// uninterrupted archive of [first_index, first_index + traces).
  /// Returns the merged record count.  Requires every lease done.
  std::size_t merge(const std::string& out_path) const;

private:
  bool load_manifest();
  void save_manifest() const;
  /// Full strict validation of a done lease's shard; throws on any
  /// mismatch or damage.
  void validate_shard(const fabric_lease& lease) const;

  fabric_config config_;
  std::vector<fabric_lease> leases_;
};

/// Validates and concatenates contiguous shard stores (identical
/// descriptors, gapless index ranges) into one store at `out_path`,
/// byte-identical to a single-writer archive of the union range; the
/// failpoint site `fabric_merge_shard` fires once per shard.  Returns
/// the merged record count.  The building block behind
/// campaign_fabric::merge(), exposed for benches and ad-hoc merges of
/// ranges archived on different machines.
std::size_t merge_stores(const std::vector<std::string>& shard_paths,
                         const std::string& out_path);

} // namespace usca::core

#endif // USCA_CORE_CAMPAIGN_FABRIC_H
