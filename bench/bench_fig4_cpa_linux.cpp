// Experiment F4 — reproduces Figure 4 of the paper: "CPA against AES
// running on Linux, employing the Hamming distance between two byte-long
// stores" in SubBytes.
//
// Environment model: the second core runs a saturated webserver (random-
// walk activity), the scheduler preempts at will, nothing is clock-gated
// — usca::power::os_noise_config.  As in the paper, only 100 traces are
// used, each the average of 16 executions of the same input.
//
// Attack model (micro-architecture aware): the store data of consecutive
// SubBytes strb instructions shares the IS/EX operand bus and the memory
// path, so HD(sbox[pt0 ^ k0], sbox[pt1 ^ k1]) leaks.  The attack recovers
// k0 assuming k1 from the preceding chained attack step (the paper's
// model likewise combines two consecutive stores).
//
// Acquisition runs through core::trace_campaign into a CPA pass that
// walks each tile row by row; the campaign-extension loop exploits
// its prefix property: extension batches cover disjoint
// [first_index, first_index+traces) ranges under the same master seed, so
// growing the campaign never re-simulates (or re-draws) its prefix.
//
// Defaults: traces=100, averaging=16 — the paper's exact campaign size.
#include <array>
#include <cmath>
#include <cstdio>
#include <optional>
#include <span>
#include <vector>

#include "bench_util.h"
#include "core/campaign.h"
#include "crypto/aes_codegen.h"
#include "stats/cpa.h"
#include "util/bitops.h"

using namespace usca;

namespace {

/// CPA under the HD(two consecutive SubBytes byte stores) model.  The
/// hypothesis needs plaintext bytes 0 and 1, so each row of a tile feeds
/// a generic cpa_engine in index order; pumping the pass again extends
/// the accumulated campaign.
class hd_stores_cpa final : public core::analysis_pass {
public:
  explicit hd_stores_cpa(std::uint8_t k1) : k1_(k1) {}

  void begin(const core::stream_shape& shape) override {
    if (!cpa_) {
      cpa_.emplace(shape.samples, hypotheses_.size());
    }
  }

  void consume_batch(const core::trace_batch_view& batch) override {
    for (std::size_t r = 0; r < batch.count; ++r) {
      const std::span<const double> labels = batch.labels_row(r);
      const auto pt0 = static_cast<std::uint8_t>(labels[0]);
      const std::uint8_t second = crypto::subbytes_hypothesis(
          static_cast<std::uint8_t>(labels[1]), k1_);
      for (std::size_t g = 0; g < hypotheses_.size(); ++g) {
        const std::uint8_t first =
            crypto::subbytes_hypothesis(pt0, static_cast<std::uint8_t>(g));
        hypotheses_[g] =
            static_cast<double>(util::hamming_distance(first, second));
      }
      cpa_->add_trace(batch.samples_row(r), hypotheses_);
    }
  }

  const stats::cpa_engine& cpa() const { return *cpa_; }

private:
  std::uint8_t k1_;
  std::array<double, 256> hypotheses_{};
  std::optional<stats::cpa_engine> cpa_;
};

} // namespace

int main(int argc, char** argv) {
  const bench::arg_map args(
      argc, argv, {"traces", "averaging", "seed", "threads"});
  const std::size_t traces = args.get_size("traces", 100);
  const int averaging = static_cast<int>(args.get_size("averaging", 16));
  const std::uint64_t seed = args.get_size("seed", 0xf16'4);
  const unsigned threads =
      static_cast<unsigned>(args.get_size("threads", 0));

  const crypto::aes_key key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                               0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                               0x09, 0xcf, 0x4f, 0x3c};

  core::campaign_config config;
  config.traces = traces;
  config.threads = threads;
  config.seed = seed;
  config.averaging = averaging;
  // Window: the SubBytes phase of round 1 (where the byte stores live).
  config.window = {crypto::mark_ark0_end, crypto::mark_sb1_end};
  config.power.os_noise.enabled = true; // the loaded-Linux environment

  hd_stores_cpa cpa(key[1]);

  // Extends the accumulated campaign with traces [first, first+count).
  const auto add_traces = [&](std::size_t first, std::size_t count) {
    core::campaign_config batch = config;
    batch.first_index = first;
    batch.traces = count;
    core::trace_campaign campaign(batch, key);
    campaign.run(cpa);
    return campaign.resolved_threads();
  };

  const bench::stopwatch watch;
  const unsigned used_threads = add_traces(0, traces);
  const double elapsed = watch.seconds();

  std::printf("== Figure 4: CPA on AES under Linux load, model = "
              "HD(two consecutive SubBytes byte stores) ==\n");
  std::printf("   traces=%zu (avg of %d executions each), OS noise "
              "enabled, threads=%u (%.2f s)\n\n",
              traces, averaging, used_threads, elapsed);

  const stats::cpa_result result = cpa.cpa().solve();
  const std::vector<double>& correct = result.corr[key[0]];

  std::printf("correlation vs time (correct key), SubBytes window:\n");
  std::printf("cycle  corr\n");
  bench::print_rule(30);
  double max_abs = 0.0;
  for (const double c : correct) {
    max_abs = std::max(max_abs, std::fabs(c));
  }
  const std::size_t stride = std::max<std::size_t>(1, correct.size() / 60);
  for (std::size_t s = 0; s < correct.size(); ++s) {
    const bool peak = std::fabs(correct[s]) > 0.7 * max_abs;
    if (!peak && s % stride != 0) {
      continue;
    }
    std::printf("%5zu  %+.4f%s\n", s, correct[s], peak ? "  <== peak" : "");
  }

  const auto best = result.best();
  const auto wrong = result.best_excluding(key[0]);
  const double z = result.distinguishing_z(key[0]);
  std::printf("\nbest guess 0x%02zx (true 0x%02x)\n", best.guess, key[0]);
  std::printf("|corr| correct %.4f vs best wrong %.4f  (z = %.2f, "
              ">99%% needs 2.33)\n",
              std::fabs(result.peak_of(key[0]).corr), std::fabs(wrong.corr),
              z);

  const bool recovered_at_paper_size = best.guess == key[0];
  std::printf("\nat the paper's campaign size (%zu traces) the correct key "
              "%s rank 0%s\n",
              traces, recovered_at_paper_size ? "holds" : "does NOT hold",
              z > 2.326 ? " and clears the >99% criterion" : "");

  // Grow the campaign until the Fisher-z distinguishability criterion is
  // met (measurements-to-confidence).  Note: at rho ~ 0.02 and n = 100,
  // the paper's own numbers would not clear a Fisher-z 99% test either;
  // see EXPERIMENTS.md for the discussion.
  std::size_t total = traces;
  double z_now = z;
  while (z_now <= 2.326 && total < 6400) {
    add_traces(total, total); // double the campaign
    total *= 2;
    z_now = cpa.cpa().solve().distinguishing_z(key[0]);
    std::printf("  extended to %4zu traces: distinguishing z = %.2f\n",
                total, z_now);
  }
  const stats::cpa_result final_result = cpa.cpa().solve();
  std::printf("\nfinal: best guess 0x%02zx after %zu traces, z = %.2f\n",
              final_result.best().guess, total, z_now);
  const bool success =
      recovered_at_paper_size && final_result.best().guess == key[0] &&
      z_now > 2.326;
  std::printf("attack %s\n", success ? "SUCCEEDS" : "FAILS");
  return success ? 0 : 1;
}
