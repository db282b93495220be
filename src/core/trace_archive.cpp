#include "core/trace_archive.h"

#include <bit>
#include <functional>
#include <optional>

#include "util/failpoint.h"
#include "util/telemetry.h"

namespace usca::core {

void config_hasher::mix(double value) noexcept {
  mix(std::bit_cast<std::uint64_t>(value));
}

namespace {

void mix_power(config_hasher& h, const power::synthesis_config& power) {
  for (const double w : power.weights.weight) {
    h.mix(w);
  }
  h.mix(power.baseline);
  h.mix(power.gaussian_sigma);
  const power::os_noise_config& os = power.os_noise;
  h.mix(os.enabled);
  h.mix(os.second_core_mean);
  h.mix(os.second_core_sigma);
  h.mix(os.second_core_max);
  h.mix(os.preemption_probability);
  h.mix(os.preemption_amplitude);
  h.mix(static_cast<std::uint64_t>(os.preemption_duration));
}

void mix_cache(config_hasher& h, const mem::cache_config& cache) {
  h.mix(cache.enabled);
  h.mix(static_cast<std::uint64_t>(cache.size_bytes));
  h.mix(static_cast<std::uint64_t>(cache.line_bytes));
  h.mix(static_cast<std::uint64_t>(cache.ways));
  h.mix(static_cast<std::uint64_t>(cache.miss_penalty));
}

void mix_uarch(config_hasher& h, const sim::micro_arch_config& uarch) {
  h.mix(static_cast<std::uint64_t>(uarch.issue_width));
  h.mix(static_cast<std::uint64_t>(uarch.policy));
  for (const auto& row : uarch.pair_table) {
    for (const bool cell : row) {
      h.mix(cell);
    }
  }
  h.mix(static_cast<std::uint64_t>(uarch.rf_read_ports));
  h.mix(static_cast<std::uint64_t>(uarch.rf_write_ports));
  h.mix(uarch.nop_dual_issues);
  h.mix(uarch.pair_aligned_fetch_only);
  h.mix(static_cast<std::uint64_t>(uarch.alu_count));
  h.mix(uarch.alu0_has_shifter);
  h.mix(uarch.alu0_has_multiplier);
  h.mix(uarch.mul_pipelined);
  h.mix(static_cast<std::uint64_t>(uarch.mul_latency));
  h.mix(static_cast<std::uint64_t>(uarch.shift_extra_latency));
  h.mix(uarch.lsu_pipelined);
  h.mix(static_cast<std::uint64_t>(uarch.lsu_latency));
  h.mix(static_cast<std::uint64_t>(uarch.fetch_width));
  h.mix(static_cast<std::uint64_t>(uarch.front_stages));
  h.mix(static_cast<std::uint64_t>(uarch.branch_mispredict_penalty));
  h.mix(uarch.perfect_branch_prediction);
  h.mix(uarch.nop_drives_zero_operands);
  h.mix(uarch.nop_zeroes_wb_bus);
  h.mix(uarch.alu_latch_holds_on_idle);
  h.mix(uarch.has_align_buffer);
  mix_cache(h, uarch.icache);
  mix_cache(h, uarch.dcache);
  const sim::ooo_config& ooo = uarch.ooo;
  h.mix(static_cast<std::uint64_t>(ooo.rob_entries));
  h.mix(static_cast<std::uint64_t>(ooo.rename_width));
  h.mix(static_cast<std::uint64_t>(ooo.retire_width));
  h.mix(static_cast<std::uint64_t>(ooo.rs_entries));
  h.mix(static_cast<std::uint64_t>(ooo.prf_size));
  h.mix(static_cast<std::uint64_t>(ooo.cdb_width));
  h.mix(static_cast<std::uint64_t>(ooo.store_buffer_entries));
  // Mixed only for a speculating core: under the perfect predictor the
  // block cannot change a record, and leaving it out keeps the hash of
  // every non-speculating configuration, so their archives stay
  // resumable.
  if (sim::speculation_active(uarch)) {
    const sim::speculation_config& spec = uarch.speculation;
    h.mix(static_cast<std::uint64_t>(spec.predictor));
    h.mix(static_cast<std::uint64_t>(spec.bp_table_bits));
    h.mix(static_cast<std::uint64_t>(spec.history_bits));
    h.mix(static_cast<std::uint64_t>(spec.btb_entries));
    h.mix(static_cast<std::uint64_t>(spec.rsb_entries));
    h.mix(static_cast<std::uint64_t>(spec.resolve_latency));
  }
}

/// Builds the campaign engine for records [first_index, first_index +
/// traces); the returned engine lives until the next call.
using engine_fn = std::function<acquisition_campaign&(
    std::size_t first_index, std::size_t traces)>;

/// The one archive driver: probe the record shape, create or resume the
/// store, and simulate only the records it does not already hold.  A
/// torn tail is quarantined (not destroyed) before resume() truncates
/// it; whatever the tail held is re-simulated from (seed, index) exactly.
archive_result archive_range(std::uint64_t seed, std::uint64_t config_hash,
                             std::size_t first_index, std::size_t traces,
                             const std::string& path,
                             const archive_options& options,
                             const engine_fn& engine) {
  const std::size_t end = first_index + traces;
  acquisition_campaign& campaign = engine(first_index, traces);

  power::trace_store_descriptor desc;
  desc.scalar = options.scalar;
  desc.chunk_traces = options.chunk_traces;
  desc.seed = seed;
  desc.config_hash = salted_config_hash(config_hash, options.config_salt);
  desc.first_index = first_index;
  {
    // One probe record fixes the shape so a resume can validate the
    // existing header before any simulation is spent on the suffix.
    const acquisition_record rec = campaign.produce(first_index);
    desc.samples = rec.samples.size();
    desc.labels = static_cast<std::uint32_t>(rec.labels.size());
  }

  archive_result result;
  power::store_resume_report report;
  power::trace_store_writer writer =
      power::trace_store_writer::resume(path, desc, &report);
  result.quarantined_bytes = report.truncated_bytes;
  result.quarantine_path = std::move(report.quarantine_path);
  const std::size_t next = writer.next_index();
  if (next < end) {
    // A store row holds only labels and samples, so the records come
    // from the campaign's trace source, whose runs end at the window's
    // end mark.  One-row tiles: the writer buffers its own chunks, so
    // each record is appended as it is delivered (heartbeats and the
    // per-record `archive_record` crash point keep their granularity)
    // while its copy is cache-hot.
    static const telem::counter records{"archive.records", "records",
                                        "archive"};
    acquisition_source source(next == first_index ? campaign
                                                  : engine(next, end - next));
    source.for_each_batch(1, [&writer](const trace_batch_view& batch) {
      for (std::size_t r = 0; r < batch.count; ++r) {
        util::failpoint("archive_record");
        writer.append(batch.labels_row(r), batch.samples_row(r));
        records.add();
      }
    });
    result.simulated = end - next;
  }
  writer.close();
  result.total = writer.records();
  return result;
}

} // namespace

std::uint64_t salted_config_hash(std::uint64_t config_hash,
                                 std::uint64_t salt) noexcept {
  std::uint64_t state = salt;
  return config_hash ^ util::splitmix64(state);
}

std::uint64_t
acquisition_config_hash(const acquisition_config& config) noexcept {
  config_hasher h;
  h.mix(std::uint64_t{0xacc}); // domain tag: acquisition records
  h.mix(static_cast<std::uint64_t>(config.averaging));
  h.mix(std::uint64_t{config.window.begin_mark});
  h.mix(std::uint64_t{config.window.end_mark});
  h.mix(config.full_run_window);
  h.mix(std::uint64_t{full_run_tail_pad});
  h.mix(config.synthesize);
  h.mix(static_cast<std::uint64_t>(config.backend));
  mix_power(h, config.power);
  mix_uarch(h, config.uarch);
  return h.value();
}

std::uint64_t
aes_campaign_config_hash(const campaign_config& config,
                         const crypto::aes_key& key) noexcept {
  config_hasher h;
  h.mix(std::uint64_t{0xae5}); // domain tag: AES campaign records
  h.mix(static_cast<std::uint64_t>(config.averaging));
  h.mix(std::uint64_t{config.window.begin_mark});
  h.mix(std::uint64_t{config.window.end_mark});
  h.mix(static_cast<std::uint64_t>(config.backend));
  h.mix(config.simulated_second_core);
  h.mix(static_cast<std::uint64_t>(config.second_core_cycles));
  mix_power(h, config.power);
  mix_uarch(h, config.uarch);
  for (const std::uint8_t byte : key) {
    h.mix(std::uint64_t{byte});
  }
  return h.value();
}

archive_result
archive_acquisition(const sim::program_image& image,
                    const acquisition_config& config,
                    const acquisition_campaign::setup_fn& setup,
                    const std::string& path,
                    const archive_options& options) {
  std::optional<acquisition_campaign> campaign;
  return archive_range(
      config.seed, acquisition_config_hash(config), config.first_index,
      config.traces, path, options,
      [&](std::size_t first_index, std::size_t traces)
          -> acquisition_campaign& {
        acquisition_config sub = config;
        sub.first_index = first_index;
        sub.traces = traces;
        sub.keep_activity_first = 0;
        campaign.emplace(image, sub);
        campaign->set_setup(setup);
        return *campaign;
      });
}

archive_result
archive_aes_campaign(const campaign_config& config, const crypto::aes_key& key,
                     const std::string& path, const archive_options& options,
                     const trace_campaign::plaintext_fn& plaintext) {
  std::optional<trace_campaign> campaign;
  return archive_range(
      config.seed, aes_campaign_config_hash(config, key), config.first_index,
      config.traces, path, options,
      [&](std::size_t first_index, std::size_t traces)
          -> acquisition_campaign& {
        campaign_config sub = config;
        sub.first_index = first_index;
        sub.traces = traces;
        campaign.emplace(sub, key);
        if (plaintext) {
          campaign->set_plaintext_policy(plaintext);
        }
        return campaign->engine();
      });
}

} // namespace usca::core
