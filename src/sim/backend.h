// Simulation-backend interface: the contract the acquisition hot path
// programs against.
//
// The repository started with one core model (the in-order Cortex-A7-like
// sim::pipeline); the paper's central claim — leakage is a property of the
// micro-architecture, not the ISA — demands comparisons across *design
// points*.  A backend is any cycle-level core model that executes an AL32
// program image, records trigger marks, and emits a sim::activity_event
// stream for the power model.  The acquisition engine
// (core::acquisition_campaign, which core::trace_campaign runs on) keeps
// its zero-reallocation worker loops by relying on reset(): it restores
// the freshly-constructed state without reallocating or re-copying the
// program, so a reset backend is bit-identical in behaviour to a newly
// constructed one.
//
// What every core shares beyond that is written once in this header, for
// the per-trace cores and the batched ones (sim/batch_sim.h) alike: the
// recording contract (recording_contract: marks, the cutoff mark, the
// recording mode and what reset() restarts of them), the warm-up
// (warm_program) and the reset's restore of the data memory
// (restore_data_images).
//
// Implementations: sim::pipeline (in-order, partial dual-issue) and
// sim::ooo_core (out-of-order issue: rename/ROB/RS, sim/ooo/).
#ifndef USCA_SIM_BACKEND_H
#define USCA_SIM_BACKEND_H

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "asmx/program.h"
#include "mem/cache.h"
#include "mem/memory.h"
#include "sim/cpu_state.h"
#include "sim/program_image.h"
#include "sim/uarch_activity.h"

namespace usca::sim {

struct micro_arch_config;

/// Trigger-marker stamp shared by every backend.  `dual_pairs` counts
/// multi-issue cycles retired so far (dual-issue pairs on the in-order
/// pipeline, multi-rename cycles on the OoO backend).
struct mark_stamp {
  std::uint16_t id = 0;
  std::uint64_t cycle = 0;
  std::uint64_t dual_pairs = 0;
};

enum class backend_kind : std::uint8_t {
  inorder, ///< sim::pipeline — the paper's Cortex-A7 model
  ooo,     ///< sim::ooo_core — out-of-order issue backend
};

std::string_view backend_kind_name(backend_kind kind) noexcept;

/// Parses "inorder" / "ooo" (the CLI spelling of --backend=).
std::optional<backend_kind> parse_backend_kind(std::string_view text) noexcept;

/// The recording contract of every core, per-trace (sim::backend) and
/// batched (sim::batch_backend): the marks a run commits and when its
/// activity recording stops.  The acquisition engine's bit-identity
/// contract depends on these semantics, so they are written once, here.
class recording_contract {
public:
  const std::vector<mark_stamp>& marks() const noexcept { return marks_; }

  /// Disables activity recording (pure timing runs are ~2x faster); the
  /// mode holds across reset().
  void set_record_activity(bool record) noexcept {
    record_default_ = record;
    record_activity_ = record;
  }

  /// Stops recording activity once the mark with this id first commits
  /// (recording resumes on reset()).  Every event whose cycle lies before
  /// the mark's cycle is already recorded when the mark commits, so a
  /// synthesis window ending at that mark sees a bit-identical trace.
  /// With `end_run` the run also halts there: cycles() stops one past
  /// the mark's cycle, marks() ends with it, and the registers and
  /// memory hold the state of that point — for consumers that read only
  /// the window's activity.  A batch halts as a whole, and a lane whose
  /// timing would diverge only after the mark completes instead of being
  /// ejected: its window activity is already recorded.
  void set_activity_cutoff_mark(std::uint16_t id,
                                bool end_run = false) noexcept {
    cutoff_mark_ = id;
    has_cutoff_mark_ = true;
    end_run_at_cutoff_ = end_run;
  }
  void clear_activity_cutoff_mark() noexcept {
    has_cutoff_mark_ = false;
    end_run_at_cutoff_ = false;
  }

protected:
  /// Whether an emission now is recorded.
  bool recording() const noexcept { return record_activity_; }

  /// Records a committed mark and applies the cutoff; true when the run
  /// must end here (the core halts).
  bool commit_mark(const mark_stamp& stamp) {
    marks_.push_back(stamp);
    if (!has_cutoff_mark_ || stamp.id != cutoff_mark_) {
      return false;
    }
    record_activity_ = false;
    return end_run_at_cutoff_;
  }

  /// The part of every reset(): no marks, and recording back on unless
  /// set_record_activity turned it off.
  void restart_recording() noexcept {
    marks_.clear();
    record_activity_ = record_default_;
  }

private:
  std::vector<mark_stamp> marks_;
  std::uint16_t cutoff_mark_ = 0;
  bool has_cutoff_mark_ = false;
  bool end_run_at_cutoff_ = false;
  bool record_activity_ = true;
  bool record_default_ = true;
};

class backend : public recording_contract {
public:
  virtual ~backend() = default;

  virtual backend_kind kind() const noexcept = 0;

  /// Restores the freshly-constructed state — architectural registers,
  /// memory/caches, schedule state, activity buffer — without reallocating
  /// or re-copying the shared program image.
  virtual void reset() = 0;

  /// Touches every instruction line and the whole data image so that the
  /// measured region runs entirely from L1 — the paper's warm-up loops.
  virtual void warm_caches() = 0;

  /// Runs until halt (or the cycle budget is exhausted, which throws).
  virtual void run(std::uint64_t max_cycles = 50'000'000) = 0;

  virtual cpu_state& state() noexcept = 0;
  virtual const cpu_state& state() const noexcept = 0;
  virtual mem::memory& memory() noexcept = 0;
  virtual const mem::memory& memory() const noexcept = 0;
  /// The simulated program (shared, immutable).
  virtual const asmx::program& program() const noexcept = 0;

  virtual std::uint64_t cycles() const noexcept = 0;
  /// Instructions accepted by the core's in-order front end (issued on the
  /// pipeline, renamed on the OoO backend); nops and condition-failed
  /// instructions included.
  virtual std::uint64_t instructions_issued() const noexcept = 0;

  const activity_trace& activity() const noexcept { return activity_; }

protected:
  // emit/emit_weight are defined here (not backend.cpp) so the core models'
  // hot loops — tens of thousands of calls per simulated run — inline them.

  /// One switching event: `toggles` = HD(before, after) on `comp`/`lane`.
  void emit(component comp, std::uint8_t lane, std::uint32_t before,
            std::uint32_t after, std::uint64_t at_cycle) {
    if (!recording() || before == after) {
      return;
    }
    activity_event ev;
    ev.cycle = static_cast<std::uint32_t>(at_cycle);
    ev.comp = comp;
    ev.lane = lane;
    ev.toggles = static_cast<std::uint8_t>(
        std::popcount(before ^ after)); // HD(before, after)
    activity_.push_back(ev);
  }

  /// Zero-precharged network: `toggles` = HW(value).
  void emit_weight(component comp, std::uint8_t lane, std::uint32_t value,
                   std::uint64_t at_cycle) {
    if (!recording() || value == 0) {
      return;
    }
    activity_event ev;
    ev.cycle = static_cast<std::uint32_t>(at_cycle);
    ev.comp = comp;
    ev.lane = lane;
    ev.toggles = static_cast<std::uint8_t>(std::popcount(value));
    activity_.push_back(ev);
  }

  activity_trace activity_;
};

/// The paper's warm-up loops, for every core: the I-cache over the code
/// and the 4 bytes past it, and the D-cache (a mem::cache, or a batch's
/// lane_memory) over the data image, so that the measured region runs
/// entirely from L1.
template <typename DataCache>
void warm_program(const asmx::program& prog, mem::cache& icache,
                  DataCache& dcache) {
  icache.warm(prog.code_base, prog.code.size() * 4 + 4);
  if (!prog.data.empty()) {
    dcache.warm(prog.data_base, prog.data.size());
  }
}

/// The memory half of every core's reset(): each memory zeroes the
/// blocks its last run wrote and reloads the program's data image.  The
/// bytes zeroed, with the `cache_sets` the caller's cache resets cleared
/// (all lanes, both caches), go to sim.lane.bytes_restored and
/// sim.lane.cache_sets_restored — once per reset(), never per access.
void restore_data_images(const asmx::program& prog,
                         std::span<mem::memory> memories,
                         std::size_t cache_sets);

/// Constructs a backend of the requested kind over a shared program image.
std::unique_ptr<backend> make_backend(backend_kind kind, program_image image,
                                      const micro_arch_config& config);

} // namespace usca::sim

#endif // USCA_SIM_BACKEND_H
