// Fault-tolerant distributed campaign driver over core::campaign_fabric:
//
//   ./build/example_usca_fabric run --out=PATH [--traces=N] [--lease=N]
//        [--workers=N] [--backend=inorder|ooo] [--seed=N]
//        [--deadline-ms=N] [--max-attempts=N] [--dir=PATH]
//        [--inject=LEASE:FAILPOINT_SPEC]... [--keep-shards]
//        [--progress] [--telemetry=PATH]
//   ./build/example_usca_fabric worker --first=N --traces=N --shard=PATH
//        [--backend=inorder|ooo] [--seed=N] [--failpoint=SPEC]
//   ./build/example_usca_fabric verify PATH [--strict]
//   ./build/example_usca_fabric status PATH [--probe]
//
// `run` is the coordinator: it splits the campaign into range leases,
// re-execs this binary as one worker process per lease (each worker
// archives its range with core::archive_acquisition — so a killed and
// re-issued worker resumes its shard instead of starting over), and
// merges the validated shards into --out, a store byte-identical to one
// uninterrupted single-process archive.  The acquisition is the same
// demo AES-128 campaign as example_aes_cpa_demo, so the merged store
// replays there: `example_aes_cpa_demo --replay=OUT`.
//
// --inject=LEASE:SPEC arms a util/failpoint spec (e.g. `3:archive_
// record:crash@500`) in that lease's FIRST worker attempt only — the
// re-issued attempt runs clean and resumes the dead worker's shard.
// That is the kill-at-N-points robustness drill from the fabric tests,
// runnable from the shell.
//
// `verify` is the health checker (machine-readable: one JSON object on
// stdout, exit 0 = healthy): a trace store is opened in salvage mode
// and its damage map printed; a fabric manifest is read with
// core::fabric_manifest::read, the coordinator's own reader, and walked
// lease by lease with every shard probed strict-then-salvage.  A
// manifest the reader refuses (any line the coordinator would not
// write) exits 1 with the reader's error in the JSON object.
//
// `status` is the live campaign monitor: it renders manifest + worker
// heartbeats (`<shard>.hb`, written by every worker every 250 ms) as
// one JSON object WITHOUT touching any shard bytes, so it is safe and
// cheap to run against a mid-campaign directory from another terminal.
// PATH may be the manifest, the --out path (".manifest" is appended),
// or a directory containing exactly one "*.manifest".  Exit 0 = the
// manifest read, even when the campaign is still running; a manifest
// the reader refuses exits 1 with the reader's error on stderr.
// --probe additionally opens every shard in salvage mode like `verify`.
//
// Counts (--traces, --seed, --inject's lease id, ...) are unsigned
// decimals: a sign or any other character exits 2 before anything runs.
//
// `--progress` makes the coordinator print a live one-line report
// (traces/s, ETA, worker liveness from heartbeats) to stderr;
// `--telemetry=PATH` appends JSON-lines telemetry snapshots — from the
// coordinator on the progress cadence and from every worker at exit —
// to PATH (workers inherit it via USCA_TELEMETRY_PATH).
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "core/campaign_fabric.h"
#include "core/campaign_telemetry.h"
#include "core/trace_archive.h"
#include "crypto/aes_codegen.h"
#include "power/trace_store_reader.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/json_writer.h"
#include "util/telemetry.h"

using namespace usca;

namespace {

// Same campaign as example_aes_cpa_demo — the merged archive replays
// there bit-identically.
const crypto::aes_key demo_key = {0xde, 0xad, 0xbe, 0xef, 0x01, 0x23,
                                  0x45, 0x67, 0x89, 0xab, 0xcd, 0xef,
                                  0x10, 0x32, 0x54, 0x76};

core::acquisition_config demo_config(sim::backend_kind backend,
                                     std::uint64_t seed,
                                     std::size_t first_index,
                                     std::size_t traces) {
  core::acquisition_config config;
  config.first_index = first_index;
  config.traces = traces;
  config.seed = seed;
  config.averaging = 8;
  config.window = core::campaign_window{crypto::mark_encrypt_begin,
                                        crypto::mark_round1_end};
  config.backend = backend;
  config.uarch = backend == sim::backend_kind::ooo ? sim::cortex_a7_ooo()
                                                   : sim::cortex_a7();
  return config;
}

core::acquisition_campaign::setup_fn
demo_setup(const crypto::aes_program_layout& layout,
           const crypto::aes_round_keys& rk) {
  return [&layout, &rk](std::size_t, util::xoshiro256& rng,
                        sim::backend& core, std::vector<double>& labels) {
    crypto::aes_block pt;
    for (auto& b : pt) {
      b = rng.next_u8();
    }
    crypto::install_aes_inputs(core.memory(), layout, rk, pt);
    labels.resize(pt.size());
    for (std::size_t b = 0; b < pt.size(); ++b) {
      labels[b] = static_cast<double>(pt[b]);
    }
  };
}

std::string self_exe(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    return std::string(buf, static_cast<std::size_t>(n));
  }
  return argv0;
}

/// A whole unsigned decimal: strtoull alone would wrap "-1" to 2^64 - 1
/// and clamp an out-of-range value to it.
std::optional<std::uint64_t> to_u64(const std::string& text) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (*end != '\0' || errno == ERANGE) {
    return std::nullopt;
  }
  return value;
}

bool parse_u64(std::string_view arg, std::string_view prefix,
               std::uint64_t& out) {
  if (arg.rfind(prefix, 0) != 0) {
    return false;
  }
  const std::string text(arg.substr(prefix.size()));
  const std::optional<std::uint64_t> value = to_u64(text);
  if (!value) {
    std::fprintf(stderr, "%.*s wants a non-negative integer, got '%s'\n",
                 static_cast<int>(prefix.size()), prefix.data(),
                 text.c_str());
    std::exit(2);
  }
  out = *value;
  return true;
}

/// Prints one finished json_writer document to stdout with a trailing
/// newline — every machine-readable subcommand funnels through here.
void print_json(util::json_writer& w) {
  const std::string text = w.str();
  std::fwrite(text.data(), 1, text.size(), stdout);
  std::fputc('\n', stdout);
}

// ------------------------------------------------------------- worker

int run_worker(int argc, char** argv) {
  sim::backend_kind backend = sim::backend_kind::inorder;
  std::uint64_t seed = 42, first = 0, traces = 0;
  std::string shard, failpoint_spec;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--backend=", 0) == 0) {
      const auto kind = sim::parse_backend_kind(arg.substr(10));
      if (!kind) {
        std::fprintf(stderr, "unknown backend '%s'\n", argv[i] + 10);
        return 2;
      }
      backend = *kind;
    } else if (arg.rfind("--shard=", 0) == 0) {
      shard = arg.substr(8);
    } else if (arg.rfind("--failpoint=", 0) == 0) {
      failpoint_spec = arg.substr(12);
    } else if (!parse_u64(arg, "--seed=", seed) &&
               !parse_u64(arg, "--first=", first) &&
               !parse_u64(arg, "--traces=", traces)) {
      std::fprintf(stderr, "worker: unknown option '%s'\n", argv[i]);
      return 2;
    }
  }
  if (shard.empty() || traces == 0) {
    std::fprintf(stderr, "worker: --shard and --traces are required\n");
    return 2;
  }
  try {
    if (!failpoint_spec.empty()) {
      util::failpoint_configure(failpoint_spec);
    }
    // Same site the thread runner fires at worker entry, so a
    // `fabric_worker` rule kills a process worker before it archives
    // anything.
    util::failpoint("fabric_worker");
    const crypto::aes_program_layout layout =
        crypto::generate_aes128_program();
    const crypto::aes_round_keys rk = crypto::expand_key(demo_key);
    const core::acquisition_config config =
        demo_config(backend, seed, static_cast<std::size_t>(first),
                    static_cast<std::size_t>(traces));

    // Heartbeat next to the shard: `produced` is read back from the
    // archive loop's own telemetry counter, no second bookkeeping.  A
    // crash (failpoint or real SIGKILL) leaves the last "running" record
    // behind — `status` reports its age instead of a false "done".
    core::worker_heartbeat hb;
    hb.pid = static_cast<std::uint64_t>(::getpid());
    hb.first_index = first;
    hb.traces = traces;
    const std::size_t produced_id = telem::register_metric(
        "archive.records", "records", "archive", telem::metric_kind::counter);
    core::heartbeat_publisher heartbeat(
        core::heartbeat_path(shard), hb,
        [produced_id]() { return telem::counter_value(produced_id); });

    core::archive_acquisition(sim::program_image(layout.prog), config,
                              demo_setup(layout, rk), shard);
    heartbeat.finish("done");
    core::export_snapshot("worker");
    return 0;
  } catch (const util::usca_error& e) {
    std::fprintf(stderr, "worker (records %llu..%llu): %s\n",
                 static_cast<unsigned long long>(first),
                 static_cast<unsigned long long>(first + traces), e.what());
    core::export_snapshot("worker");
    return 1;
  }
}

// -------------------------------------------------------- coordinator

int run_coordinator(int argc, char** argv) {
  sim::backend_kind backend = sim::backend_kind::inorder;
  std::uint64_t seed = 42, traces = 2'000, lease = 500, workers = 2;
  std::uint64_t deadline_ms = 0, max_attempts = 5;
  std::string out, dir, telemetry_path;
  std::map<std::size_t, std::string> inject;
  bool keep_shards = false;
  bool progress = false;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--backend=", 0) == 0) {
      const auto kind = sim::parse_backend_kind(arg.substr(10));
      if (!kind) {
        std::fprintf(stderr, "unknown backend '%s'\n", argv[i] + 10);
        return 2;
      }
      backend = *kind;
    } else if (arg.rfind("--out=", 0) == 0) {
      out = arg.substr(6);
    } else if (arg.rfind("--dir=", 0) == 0) {
      dir = arg.substr(6);
    } else if (arg.rfind("--inject=", 0) == 0) {
      const std::string_view spec = arg.substr(9);
      const std::size_t colon = spec.find(':');
      if (colon == std::string_view::npos) {
        std::fprintf(stderr,
                     "--inject wants LEASE:FAILPOINT_SPEC, got '%s'\n",
                     argv[i] + 9);
        return 2;
      }
      const std::optional<std::uint64_t> lease_id =
          to_u64(std::string(spec.substr(0, colon)));
      if (!lease_id) {
        std::fprintf(stderr,
                     "--inject wants a non-negative lease id, got '%s'\n",
                     argv[i] + 9);
        return 2;
      }
      inject[static_cast<std::size_t>(*lease_id)] =
          std::string(spec.substr(colon + 1));
    } else if (arg == "--keep-shards") {
      keep_shards = true;
    } else if (arg == "--progress") {
      progress = true;
    } else if (arg.rfind("--telemetry=", 0) == 0) {
      telemetry_path = arg.substr(12);
    } else if (!parse_u64(arg, "--seed=", seed) &&
               !parse_u64(arg, "--traces=", traces) &&
               !parse_u64(arg, "--lease=", lease) &&
               !parse_u64(arg, "--workers=", workers) &&
               !parse_u64(arg, "--deadline-ms=", deadline_ms) &&
               !parse_u64(arg, "--max-attempts=", max_attempts)) {
      std::fprintf(stderr, "run: unknown option '%s'\n", argv[i]);
      return 2;
    }
  }
  if (out.empty()) {
    std::fprintf(stderr, "run: --out is required\n");
    return 2;
  }

  core::fabric_config config;
  config.manifest_path = out + ".manifest";
  config.shard_dir = dir.empty() ? out + ".shards" : dir;
  config.traces = static_cast<std::size_t>(traces);
  config.lease_traces = static_cast<std::size_t>(lease);
  config.seed = seed;
  // Must equal what archive_acquisition writes into every shard header.
  config.config_hash = core::salted_config_hash(
      core::acquisition_config_hash(demo_config(backend, seed, 0, 1)), 0);
  config.workers = static_cast<unsigned>(workers);
  config.max_attempts = static_cast<unsigned>(max_attempts);
  config.lease_deadline = std::chrono::milliseconds(deadline_ms);

  if (!telemetry_path.empty()) {
    telem::set_export_path(telemetry_path);
    // Forked workers read the sink from the environment at static init;
    // their exit snapshots land in the same JSON-lines file.
    ::setenv("USCA_TELEMETRY_PATH", telemetry_path.c_str(), 1);
  }

  // Live progress: the fabric's census gives done-lease trace counts;
  // worker heartbeats refine it with mid-lease partial progress and a
  // liveness count (heartbeat younger than 4 heartbeat intervals).
  core::progress_meter meter;
  const bool tty = ::isatty(STDERR_FILENO) == 1;
  if (progress || !telemetry_path.empty()) {
    config.on_progress = [&meter, progress, tty,
                          &telemetry_path](const core::fabric_progress& p) {
      std::size_t produced = p.done_traces;
      std::size_t live = 0;
      for (const core::fabric_lease& l : *p.leases) {
        if (l.state != core::lease_state::leased) {
          continue;
        }
        const auto hb =
            core::read_heartbeat(core::heartbeat_path(l.shard_path));
        if (!hb) {
          continue;
        }
        produced += std::min<std::uint64_t>(hb->produced, l.traces);
        const std::uint64_t now = core::wall_clock_ms();
        if ((hb->state == "starting" || hb->state == "running") &&
            now - hb->wall_ms < 1000) {
          ++live;
        }
      }
      meter.observe(std::min<std::uint64_t>(produced, p.total_traces));
      if (progress) {
        const std::string line = meter.format_line(live);
        if (tty) {
          std::fprintf(stderr, "\r\x1b[K%s%s", line.c_str(),
                       p.finished ? "\n" : "");
        } else {
          std::fprintf(stderr, "%s\n", line.c_str());
        }
        std::fflush(stderr);
      }
      if (!telemetry_path.empty()) {
        core::export_snapshot("coordinator");
      }
    };
  }

  const std::string self = self_exe(argv[0]);
  const std::string backend_name(sim::backend_kind_name(backend));
  core::process_worker_runner runner(
      [&](const core::fabric_lease& l) {
        std::vector<std::string> worker_argv = {
            self,
            "worker",
            "--first=" + std::to_string(l.first_index),
            "--traces=" + std::to_string(l.traces),
            "--shard=" + l.shard_path,
            "--backend=" + backend_name,
            "--seed=" + std::to_string(seed),
        };
        const auto it = inject.find(l.id);
        if (it != inject.end() && l.attempts == 1) {
          // Injected faults hit the first attempt only: the re-issued
          // worker runs clean and resumes the dead one's shard.
          worker_argv.push_back("--failpoint=" + it->second);
        }
        return worker_argv;
      });

  try {
    core::campaign_fabric fabric(config);
    std::printf("fabric: %zu traces in %zu leases of <=%zu, %u workers "
                "(%s backend)\n",
                config.traces, fabric.leases().size(), config.lease_traces,
                config.workers, backend_name.c_str());
    std::size_t inherited = 0;
    for (const core::fabric_lease& l : fabric.leases()) {
      if (l.state == core::lease_state::done) {
        inherited += l.traces;
      }
    }
    meter.start(config.traces, inherited);
    const core::fabric_report report = fabric.run(runner);
    std::printf("fabric: %zu/%zu leases done (%zu already archived, "
                "%zu worker failures, %zu deadline kills, %zu invalid "
                "shards, %zu relaunches)\n",
                report.already_done + report.completed, report.leases,
                report.already_done, report.worker_failures,
                report.deadline_kills, report.invalid_shards,
                report.relaunches);
    const std::size_t merged = fabric.merge(out);
    std::printf("fabric: merged %zu records into '%s' (replay with "
                "example_aes_cpa_demo --replay=%s)\n",
                merged, out.c_str(), out.c_str());
    if (!keep_shards) {
      for (const core::fabric_lease& l : fabric.leases()) {
        ::unlink(l.shard_path.c_str());
        ::unlink(core::heartbeat_path(l.shard_path).c_str());
      }
      ::unlink(config.manifest_path.c_str());
      ::rmdir(config.shard_dir.c_str());
    }
    if (!telemetry_path.empty()) {
      core::export_snapshot("coordinator");
    }
    return 0;
  } catch (const util::usca_error& e) {
    std::fprintf(stderr, "fabric: %s\n", e.what());
    return 1;
  }
}

// -------------------------------------------------------------- verify

void print_store_json(const std::string& path,
                      const power::trace_store_reader& reader) {
  util::json_writer w;
  w.begin_object();
  w.member("kind", "store");
  w.member("path", path);
  w.member("ok", reader.intact());
  w.member("traces", reader.traces());
  w.member("samples", reader.samples());
  w.member("labels", reader.labels());
  w.member("first_index", reader.first_index());
  w.member("next_index", reader.next_index());
  w.member("lost_records", reader.lost_records());
  w.member("chunks", reader.chunk_count());
  w.key("damage");
  w.begin_array();
  for (const power::chunk_damage& d : reader.damage()) {
    w.begin_object();
    w.member("chunk", d.chunk);
    w.member("byte_offset", d.byte_offset);
    w.member("fault", power::store_fault_name(d.fault));
    w.member("bytes_skipped", d.bytes_skipped);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  print_json(w);
}

int verify_store(const std::string& path, bool strict) {
  try {
    const power::trace_store_reader reader(
        path, strict ? power::store_open_mode::strict
                     : power::store_open_mode::salvage);
    print_store_json(path, reader);
    return reader.intact() ? 0 : 1;
  } catch (const util::usca_error& e) {
    util::json_writer w;
    w.begin_object();
    w.member("kind", "store");
    w.member("path", path);
    w.member("ok", false);
    w.member("error", e.what());
    w.end_object();
    print_json(w);
    return 1;
  }
}

/// The campaign fields every manifest view prints first, in the order
/// the coordinator writes them.
void campaign_members(util::json_writer& w, const core::fabric_manifest& m) {
  w.member("config_hash", m.config_hash);
  w.member("seed", m.seed);
  w.member("first_index", m.first_index);
  w.member("traces", m.traces);
  w.member("lease_traces", m.lease_traces);
}

/// The lease fields `verify` and `status` share.
void lease_members(util::json_writer& w, const core::fabric_lease& lease) {
  w.member("id", lease.id);
  w.member("first_index", lease.first_index);
  w.member("traces", lease.traces);
  w.member("attempts", lease.attempts);
  w.member("state", core::lease_state_name(lease.state));
  w.member("shard", lease.shard_path);
}

/// Shard paths in the manifest are relative to the coordinator's cwd;
/// resolving against the manifest's parent directory lets `verify` and
/// `status` run from anywhere as long as the campaign tree moved as a
/// unit.
std::string resolve_shard(const std::string& manifest_path,
                          const std::string& shard) {
  if (!shard.empty() && shard.front() == '/') {
    return shard;
  }
  const std::size_t slash = manifest_path.rfind('/');
  if (slash == std::string::npos) {
    return shard;
  }
  return manifest_path.substr(0, slash + 1) + shard;
}

/// Strict-then-salvage shard probe shared by `verify` and `status
/// --probe`; returns the status word and fills `detail` when useful.
std::string probe_shard(const std::string& shard,
                        const core::fabric_lease& lease,
                        std::string& detail) {
  try {
    const power::trace_store_reader reader(shard);
    if (reader.first_index() != lease.first_index ||
        reader.traces() != lease.traces) {
      return "range_mismatch";
    }
    return "valid";
  } catch (const util::usca_error& strict_err) {
    try {
      const power::trace_store_reader reader(
          shard, power::store_open_mode::salvage);
      detail = std::to_string(reader.damage().size()) +
               " damaged chunk(s), " + std::to_string(reader.traces()) +
               " records survive";
      return "damaged";
    } catch (const util::usca_error&) {
      detail = strict_err.what();
      return "unreadable";
    }
  }
}

int verify_manifest(const std::string& path) {
  util::json_writer w;
  w.begin_object();
  w.member("kind", "manifest");
  w.member("path", path);
  core::fabric_manifest m;
  try {
    m = core::fabric_manifest::read(path);
  } catch (const util::usca_error& e) {
    w.member("ok", false);
    w.member("error", e.what());
    w.end_object();
    print_json(w);
    return 1;
  }
  campaign_members(w, m);
  bool healthy = true;
  util::json_writer leases;
  leases.begin_array();
  for (const core::fabric_lease& lease : m.leases) {
    std::string detail;
    const std::string status =
        probe_shard(resolve_shard(path, lease.shard_path), lease, detail);
    if (lease.state != core::lease_state::done || status != "valid") {
      healthy = false;
    }
    leases.begin_object();
    lease_members(leases, lease);
    leases.member("shard_status", status);
    if (!detail.empty()) {
      leases.member("detail", detail);
    }
    leases.end_object();
  }
  leases.end_array();
  w.member("ok", healthy);
  w.key("leases");
  w.raw(leases.str());
  w.end_object();
  print_json(w);
  return healthy ? 0 : 1;
}

int run_verify(int argc, char** argv) {
  std::string path;
  bool strict = false;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--strict") {
      strict = true;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "verify: unknown option '%s'\n", argv[i]);
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "verify: a store or manifest path is required\n");
    return 2;
  }
  // The store reader's probe recognises a trace store; anything else is
  // read as a manifest, whose reader names what is wrong with it.
  if (power::trace_store_reader::probe(path)) {
    return verify_store(path, strict);
  }
  return verify_manifest(path);
}

// -------------------------------------------------------------- status

/// PATH resolution for `status`: a manifest file as-is, an --out path
/// (".manifest" appended — also when the path itself exists but is not
/// a manifest, e.g. the merged store a finished --keep-shards campaign
/// leaves next to its manifest), or a directory holding exactly one
/// "*.manifest".  Empty return = nothing resolvable.
std::string resolve_manifest(const std::string& path) {
  struct stat st = {};
  if (::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
    DIR* dir = ::opendir(path.c_str());
    if (dir == nullptr) {
      return {};
    }
    std::vector<std::string> found;
    while (const dirent* entry = ::readdir(dir)) {
      const std::string_view name(entry->d_name);
      if (name.size() > 9 &&
          name.substr(name.size() - 9) == ".manifest") {
        found.push_back(path + "/" + std::string(name));
      }
    }
    ::closedir(dir);
    if (found.size() == 1) {
      return found.front();
    }
    std::fprintf(stderr, "status: directory '%s' holds %zu *.manifest files"
                 " — pass the manifest explicitly\n",
                 path.c_str(), found.size());
    return {};
  }
  const bool exists = ::stat(path.c_str(), &st) == 0;
  if (exists && core::fabric_manifest::probe(path)) {
    return path;
  }
  const std::string with_suffix = path + ".manifest";
  if (::stat(with_suffix.c_str(), &st) == 0) {
    return with_suffix;
  }
  // Not a manifest and no sibling one: hand it back so the reader's
  // error names the file the user gave.
  return exists ? path : std::string{};
}

int run_status(int argc, char** argv) {
  std::string path;
  bool probe = false;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--probe") {
      probe = true;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "status: unknown option '%s'\n", argv[i]);
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr,
                 "status: a manifest, --out path, or directory is required\n");
    return 2;
  }
  const std::string manifest = resolve_manifest(path);
  if (manifest.empty()) {
    std::fprintf(stderr, "status: no fabric manifest at '%s'\n",
                 path.c_str());
    return 1;
  }
  core::fabric_manifest m;
  try {
    m = core::fabric_manifest::read(manifest);
  } catch (const util::usca_error& e) {
    std::fprintf(stderr, "status: %s\n", e.what());
    return 1;
  }

  // Health is rendered, not judged: a mid-campaign directory full of
  // pending leases and seconds-old heartbeats exits 0 just like a
  // finished one — the reader decides what "healthy" means for it.
  const std::uint64_t now = core::wall_clock_ms();
  std::uint64_t done_leases = 0, done_traces = 0, total_traces = 0;
  std::size_t live_workers = 0;
  util::json_writer leases;
  leases.begin_array();
  for (const core::fabric_lease& lease : m.leases) {
    total_traces += lease.traces;
    if (lease.state == core::lease_state::done) {
      ++done_leases;
      done_traces += lease.traces;
    }
    const std::string shard = resolve_shard(manifest, lease.shard_path);
    leases.begin_object();
    lease_members(leases, lease);
    const auto hb = core::read_heartbeat(core::heartbeat_path(shard));
    if (hb) {
      const bool running =
          hb->state == "starting" || hb->state == "running";
      // wall_ms is another process's clock; a skewed or in-flight stamp
      // can sit slightly in the future — clamp, don't wrap.
      const std::uint64_t age =
          now > hb->wall_ms ? now - hb->wall_ms : 0;
      if (running && age < 2000) {
        ++live_workers;
      }
      leases.key("heartbeat");
      leases.begin_object();
      leases.member("pid", hb->pid);
      leases.member("state", hb->state);
      leases.member("produced", hb->produced);
      leases.member("age_ms", age);
      leases.end_object();
    }
    if (probe) {
      std::string detail;
      leases.member("shard_status", probe_shard(shard, lease, detail));
      if (!detail.empty()) {
        leases.member("detail", detail);
      }
    }
    leases.end_object();
  }
  leases.end_array();

  util::json_writer w;
  w.begin_object();
  w.member("kind", "status");
  w.member("manifest", manifest);
  campaign_members(w, m);
  w.member("total_leases", static_cast<std::uint64_t>(m.leases.size()));
  w.member("done_leases", done_leases);
  w.member("total_traces", total_traces);
  w.member("done_traces", done_traces);
  w.member("live_workers", static_cast<std::uint64_t>(live_workers));
  w.key("leases");
  w.raw(leases.str());
  w.end_object();
  print_json(w);
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  const std::string_view cmd = argc > 1 ? argv[1] : "";
  if (cmd == "run") {
    return run_coordinator(argc, argv);
  }
  if (cmd == "worker") {
    return run_worker(argc, argv);
  }
  if (cmd == "verify") {
    return run_verify(argc, argv);
  }
  if (cmd == "status") {
    return run_status(argc, argv);
  }
  std::fprintf(
      stderr,
      "usage: %s run --out=PATH [--traces=N] [--lease=N] [--workers=N]\n"
      "           [--backend=inorder|ooo] [--seed=N] [--deadline-ms=N]\n"
      "           [--max-attempts=N] [--dir=PATH] [--inject=LEASE:SPEC]...\n"
      "           [--keep-shards] [--progress] [--telemetry=PATH]\n"
      "       %s worker --first=N --traces=N --shard=PATH [--backend=B]\n"
      "           [--seed=N] [--failpoint=SPEC]\n"
      "       %s verify PATH [--strict]\n"
      "       %s status PATH [--probe]\n",
      argv[0], argv[0], argv[0], argv[0]);
  return 2;
}
