// End-to-end CPA attack demo against the generated AES-128 (a compact
// version of the paper's Section 5), runnable on either core model and
// on archived traces:
//
//   ./build/example_aes_cpa_demo [--backend=inorder|ooo] [--traces=N]
//                                [--dump-traces=PATH] [--replay=PATH]
//                                [--window=first:last] [--per-round]
//
// Recovers key byte 0 from synthesized power traces with the coarse
// Hamming-weight-of-SubBytes-output model and prints the top candidates.
// Acquisition runs through the generic core::acquisition_campaign — the
// same parallel, per-index-seeded hot path the full-size experiments use
// — streamed through the batched analysis-pass architecture, so the same
// CPA pass consumes either a live simulation (optionally archived on the
// side with --dump-traces) or an mmap replay of a previous archive
// (--replay, whole chunks zero-copy, no simulation at all).  The two
// paths produce bit-identical correlations; the demo doubles as the
// smallest possible simulate-once/analyse-many walkthrough.
//
// --window restricts the attack to a sample slice of each trace, and
// --per-round widens acquisition to the whole encryption and fans ONE
// pass over the data into per-AES-round CPA passes (initial AddRoundKey,
// the round-1 sub-phases, then every later round through round 10) — the
// multi-window workflow: N windowed analyses, one read of the stream.
// The round-1 SubBytes window recovers the key; the same hypothesis
// decays through the later rounds, localizing the leakage in time.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/analysis_sinks.h"
#include "core/trace_archive.h"
#include "crypto/aes_codegen.h"
#include "power/trace_store_reader.h"
#include "stats/cpa.h"
#include "util/bitops.h"
#include "util/error.h"

using namespace usca;

namespace {

const crypto::aes_key demo_key = {0xde, 0xad, 0xbe, 0xef, 0x01, 0x23,
                                  0x45, 0x67, 0x89, 0xab, 0xcd, 0xef,
                                  0x10, 0x32, 0x54, 0x76};

/// Narrates acquisition progress alongside the analysis passes, one
/// line per 250 records in index order.
class progress_sink final : public core::analysis_pass {
public:
  void consume_batch(const core::trace_batch_view& batch) override {
    for (std::size_t r = 0; r < batch.count; ++r) {
      if ((batch.index(r) + 1) % 250 == 0) {
        std::printf("  collected %zu traces...\n", batch.index(r) + 1);
      }
    }
  }
};

double subbytes_model(std::size_t guess, std::size_t pt_byte) {
  return static_cast<double>(util::hamming_weight(
      crypto::subbytes_hypothesis(static_cast<std::uint8_t>(pt_byte),
                                  static_cast<std::uint8_t>(guess))));
}

core::acquisition_config
demo_config(sim::backend_kind backend, std::size_t traces, bool per_round) {
  core::acquisition_config config;
  config.traces = traces;
  config.seed = 42;
  config.averaging = 8;
  // The per-round sweep needs samples from all ten rounds; the default
  // attack only ever looks at the paper's Figure 3 (round 1) window.
  config.window =
      per_round ? core::campaign_window{crypto::mark_encrypt_begin,
                                        crypto::mark_encrypt_end}
                : core::campaign_window{crypto::mark_encrypt_begin,
                                        crypto::mark_round1_end};
  config.backend = backend;
  config.uarch = backend == sim::backend_kind::ooo ? sim::cortex_a7_ooo()
                                                   : sim::cortex_a7();
  return config;
}

core::acquisition_campaign
make_campaign(const crypto::aes_program_layout& layout,
              const crypto::aes_round_keys& rk,
              const core::acquisition_config& config) {
  core::acquisition_campaign campaign(sim::program_image(layout.prog),
                                      config);
  campaign.set_setup([&layout, &rk](std::size_t, util::xoshiro256& rng,
                                    sim::backend& core,
                                    std::vector<double>& labels) {
    crypto::aes_block pt;
    for (auto& b : pt) {
      b = rng.next_u8();
    }
    crypto::install_aes_inputs(core.memory(), layout, rk, pt);
    labels.resize(pt.size());
    for (std::size_t b = 0; b < pt.size(); ++b) {
      labels[b] = static_cast<double>(pt[b]); // all 16 -> full-key replay
    }
  });
  return campaign;
}

struct phase_window {
  std::string name;
  core::window_spec window;
};

/// Derives the per-round sample windows from the trigger marks of one
/// simulated trace (the phase boundaries are data-independent —
/// constant-time AES — so trace 0 stands for all): the initial
/// AddRoundKey, the round-1 sub-phases of the paper's Figure 3, then
/// every later round up to round 10.
std::vector<phase_window>
aes_phase_windows(const core::acquisition_record& rec) {
  const auto cycle_of = [&rec](std::uint16_t id) -> std::size_t {
    for (const sim::mark_stamp& m : rec.marks) {
      if (m.id == id) {
        return static_cast<std::size_t>(m.cycle - rec.window_begin);
      }
    }
    throw util::analysis_error("AES phase mark missing from the trace");
  };
  using crypto::aes_round_phase;
  const std::size_t ark0 = cycle_of(crypto::mark_ark0_end);
  const std::size_t sb1 = cycle_of(crypto::mark_sb1_end);
  const std::size_t shr1 = cycle_of(crypto::mark_shr1_end);
  const std::size_t mc1 = cycle_of(crypto::mark_round1_end);
  std::vector<phase_window> out = {
      {"AddRoundKey 0", core::window_spec::range(0, ark0)},
      {"SubBytes 1", core::window_spec::range(ark0, sb1)},
      {"ShiftRows 1", core::window_spec::range(sb1, shr1)},
      {"MixColumns 1", core::window_spec::range(shr1, mc1)},
  };
  const auto end =
      static_cast<std::size_t>(rec.window_end - rec.window_begin);
  std::size_t prev = mc1;
  for (int round = 1; round <= 10; ++round) {
    const std::uint16_t ark_mark =
        crypto::aes_round_phase_mark(round, aes_round_phase::add_round_key);
    const std::size_t round_end =
        round == 10 ? end : cycle_of(ark_mark);
    char name[24];
    std::snprintf(name, sizeof name,
                  round == 1 ? "AddRoundKey %d" : "round %d", round);
    out.push_back({name, core::window_spec::range(prev, round_end)});
    prev = round_end;
  }
  return out;
}

int report_and_check(const stats::cpa_result& result) {
  std::vector<std::size_t> order(256);
  for (std::size_t g = 0; g < 256; ++g) {
    order[g] = g;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::fabs(result.peak_of(a).corr) >
           std::fabs(result.peak_of(b).corr);
  });

  std::printf("\ntop-5 key guesses:\n");
  for (int i = 0; i < 5; ++i) {
    const auto peak = result.peak_of(order[static_cast<std::size_t>(i)]);
    std::printf("  %d. guess 0x%02zx  |corr| %.4f at cycle %zu%s\n", i + 1,
                peak.guess, std::fabs(peak.corr), peak.sample,
                peak.guess == demo_key[0] ? "   <== true key byte" : "");
  }
  std::printf("\ndistinguishing z-score of the true key: %.2f "
              "(>2.33 = 99%% confidence)\n",
              result.distinguishing_z(demo_key[0]));
  return result.best().guess == demo_key[0] ? 0 : 1;
}

void report_phases(const std::vector<phase_window>& phases,
                   const std::vector<core::cpa_sink*>& sinks) {
  std::printf("\nper-AES-round CPA (one pass over the data, %zu windowed "
              "passes):\n",
              phases.size());
  std::printf("  %-14s %-12s %-10s %-8s %-6s %s\n", "phase", "window",
              "best", "|corr|", "rank", "z(true)");
  for (std::size_t p = 0; p < phases.size(); ++p) {
    const stats::cpa_result result =
        sinks[p]->cpa().solve(subbytes_model, 256);
    const auto best = result.best();
    char window_text[32];
    std::snprintf(window_text, sizeof window_text, "[%zu, %zu)",
                  phases[p].window.first, phases[p].window.last);
    std::printf("  %-14s %-12s 0x%02zx%s %8.4f %5zu %8.2f\n",
                phases[p].name.c_str(), window_text, best.guess,
                best.guess == demo_key[0] ? "*" : " ",
                std::fabs(best.corr), result.rank_of(demo_key[0]),
                result.distinguishing_z(demo_key[0]));
  }
  std::printf("  (* = true key byte recovered in that window alone)\n");
}

} // namespace

int main(int argc, char** argv) {
  sim::backend_kind backend = sim::backend_kind::inorder;
  std::size_t traces = 1'000;
  std::string dump_path;
  std::string replay_path;
  std::optional<core::window_spec> window;
  bool per_round = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--backend=", 0) == 0) {
      const auto kind = sim::parse_backend_kind(arg.substr(10));
      if (!kind) {
        std::fprintf(stderr, "unknown backend '%s' (inorder|ooo)\n",
                     argv[i] + 10);
        return 2;
      }
      backend = *kind;
    } else if (arg.rfind("--traces=", 0) == 0) {
      char* end = nullptr;
      const unsigned long long value = std::strtoull(argv[i] + 9, &end, 10);
      if (end == argv[i] + 9 || *end != '\0' || value == 0) {
        std::fprintf(stderr, "--traces wants a positive integer, got '%s'\n",
                     argv[i] + 9);
        return 2;
      }
      traces = static_cast<std::size_t>(value);
    } else if (arg.rfind("--dump-traces=", 0) == 0) {
      dump_path = arg.substr(14);
    } else if (arg.rfind("--replay=", 0) == 0) {
      replay_path = arg.substr(9);
    } else if (arg.rfind("--window=", 0) == 0) {
      char* end = nullptr;
      const char* text = argv[i] + 9;
      const unsigned long long first = std::strtoull(text, &end, 10);
      if (end == text || *end != ':') {
        std::fprintf(stderr, "--window wants first:last, got '%s'\n", text);
        return 2;
      }
      const char* last_text = end + 1;
      const unsigned long long last = std::strtoull(last_text, &end, 10);
      if (end == last_text || *end != '\0' || last <= first) {
        std::fprintf(stderr, "--window wants first:last, got '%s'\n", text);
        return 2;
      }
      window = core::window_spec::range(static_cast<std::size_t>(first),
                                       static_cast<std::size_t>(last));
    } else if (arg == "--per-round") {
      per_round = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--backend=inorder|ooo] [--traces=N] "
                   "[--dump-traces=PATH] [--replay=PATH] "
                   "[--window=first:last] [--per-round]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!replay_path.empty() && !dump_path.empty()) {
    std::fprintf(stderr, "--replay and --dump-traces are exclusive\n");
    return 2;
  }
  if (window && per_round) {
    std::fprintf(stderr, "--window and --per-round are exclusive\n");
    return 2;
  }

  const crypto::aes_program_layout layout = crypto::generate_aes128_program();
  const crypto::aes_round_keys rk = crypto::expand_key(demo_key);

  // The windowed passes: one full-window CPA plus (with --per-round) one
  // CPA per AES phase — all consuming the SAME pumped stream.
  core::cpa_sink cpa(0, window.value_or(core::window_spec::all()));
  std::vector<phase_window> phases;
  std::vector<core::cpa_sink> phase_storage;
  std::vector<core::cpa_sink*> phase_sinks;
  const auto build_phase_sinks = [&](const core::acquisition_record& rec) {
    phases = aes_phase_windows(rec);
    phase_storage.reserve(phases.size());
    for (const phase_window& phase : phases) {
      phase_storage.emplace_back(0, phase.window);
    }
    for (core::cpa_sink& sink : phase_storage) {
      phase_sinks.push_back(&sink);
    }
  };

  if (!replay_path.empty()) {
    // ---- replay path: CPA over the archive, no re-simulation ----------
    std::optional<power::trace_store_reader> opened;
    try {
      opened.emplace(replay_path);
    } catch (const util::usca_error& e) {
      std::fprintf(stderr, "cannot replay: %s\n", e.what());
      return 2;
    }
    const power::trace_store_reader& reader = *opened;
    std::printf("== CPA attack replayed from '%s' ==\n\n",
                replay_path.c_str());
    std::printf("  archive: %zu traces x %zu samples, indices [%zu, %zu), "
                "%zu chunk(s), %.1f MiB payload\n",
                reader.traces(), reader.samples(), reader.first_index(),
                reader.next_index(), reader.chunk_count(),
                static_cast<double>(reader.payload_bytes()) /
                    (1024.0 * 1024.0));
    if (reader.traces() == 0) {
      std::fprintf(stderr, "archive holds no traces\n");
      return 2;
    }
    if (per_round) {
      // Phase boundaries come from the trigger marks, which archives do
      // not carry: one trace re-simulated under the demo configuration
      // recovers them (per-index seeding makes it THE trace behind
      // record 0 when the archive came from --dump-traces).
      core::acquisition_campaign probe = make_campaign(
          layout, rk, demo_config(backend, 1, per_round));
      const core::acquisition_record rec =
          probe.produce(reader.first_index());
      if (rec.window_end - rec.window_begin != reader.samples()) {
        std::fprintf(stderr,
                     "archive window (%zu samples) does not match the "
                     "%s backend's window (%zu); pass the --backend the "
                     "archive was recorded with\n",
                     reader.samples(),
                     std::string(sim::backend_kind_name(backend)).c_str(),
                     static_cast<std::size_t>(rec.window_end -
                                              rec.window_begin));
        return 2;
      }
      build_phase_sinks(rec);
    }
    core::archive_source source(reader);
    std::vector<core::analysis_pass*> passes = {&cpa};
    for (core::cpa_sink* sink : phase_sinks) {
      passes.push_back(sink);
    }
    try {
      core::pump(source, passes);
    } catch (const util::usca_error& e) {
      std::fprintf(stderr, "analysis failed: %s\n", e.what());
      return 2;
    }
    if (per_round) {
      report_phases(phases, phase_sinks);
    }
    return report_and_check(cpa.cpa().solve(subbytes_model, 256));
  }

  // ---- live path: acquisition campaign, optionally archived -----------
  std::printf("== CPA attack on simulated AES-128 (key byte 0, %zu traces, "
              "%s backend) ==\n\n",
              traces,
              std::string(sim::backend_kind_name(backend)).c_str());

  core::acquisition_campaign campaign =
      make_campaign(layout, rk, demo_config(backend, traces, per_round));
  if (per_round) {
    build_phase_sinks(campaign.produce(0));
  }

  progress_sink progress;
  std::vector<core::analysis_pass*> passes = {&cpa, &progress};
  for (core::cpa_sink* sink : phase_sinks) {
    passes.push_back(sink);
  }
  std::optional<core::store_sink> store;
  if (!dump_path.empty()) {
    power::trace_store_descriptor desc;
    desc.seed = campaign.config().seed;
    desc.config_hash = core::salted_config_hash(
        core::acquisition_config_hash(campaign.config()), 0);
    store.emplace(dump_path, desc);
    passes.push_back(&*store);
  }

  core::acquisition_source source(campaign);
  try {
    core::pump(source, passes);
  } catch (const util::usca_error& e) {
    std::fprintf(stderr, "analysis failed: %s\n", e.what());
    return 2;
  }

  if (store) {
    std::printf("  archived %zu traces to '%s' (replay with "
                "--replay=%s)\n",
                store->records(), dump_path.c_str(), dump_path.c_str());
  }
  if (per_round) {
    report_phases(phases, phase_sinks);
  }
  return report_and_check(cpa.cpa().solve(subbytes_model, 256));
}
