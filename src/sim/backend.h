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
// its zero-reallocation worker loops by relying only on this interface's
// reset()/rebind() contract:
//
//   * reset()  — restores the freshly-constructed state without
//                reallocating or re-copying the program; a reset backend
//                is bit-identical in behaviour to a newly constructed one;
//   * rebind() — swaps in a different shared program image and resets.
//
// Implementations: sim::pipeline (in-order, partial dual-issue) and
// sim::ooo_core (out-of-order issue: rename/ROB/RS, sim/ooo/).
#ifndef USCA_SIM_BACKEND_H
#define USCA_SIM_BACKEND_H

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "asmx/program.h"
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

class backend {
public:
  virtual ~backend() = default;

  virtual backend_kind kind() const noexcept = 0;

  /// Restores the freshly-constructed state — architectural registers,
  /// memory/caches, schedule state, activity buffer — without reallocating
  /// or re-copying the shared program image.
  virtual void reset() = 0;

  /// Swaps in a different program (re-deriving static metadata) and resets.
  virtual void rebind(program_image image) = 0;

  /// Touches every instruction line and the whole data image so that the
  /// measured region runs entirely from L1 — the paper's warm-up loops.
  virtual void warm_caches() = 0;

  /// Runs until halt (or the cycle budget is exhausted, which throws).
  virtual void run(std::uint64_t max_cycles = 50'000'000) = 0;

  /// Advances at least one cycle; returns false once halted.  A backend
  /// may skip ahead over provably idle cycles (cycles in which it would
  /// do no observable work), so cycles() can grow by more than one per
  /// call — the recorded activity, marks and architectural state are
  /// unaffected.
  virtual bool step_cycle() = 0;

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

  // Activity recording is shared state, not backend-specific behaviour:
  // one implementation keeps the cutoff/recording semantics — which the
  // acquisition engine's bit-identity contract depends on — from diverging
  // between core models.

  const std::vector<mark_stamp>& marks() const noexcept { return marks_; }
  const activity_trace& activity() const noexcept { return activity_; }

  /// Disables activity recording (pure timing runs are ~2x faster).
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
  /// the window's activity.
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

  // emit/emit_weight are defined here (not backend.cpp) so the core models'
  // hot loops — tens of thousands of calls per simulated run — inline them.

  /// One switching event: `toggles` = HD(before, after) on `comp`/`lane`.
  void emit(component comp, std::uint8_t lane, std::uint32_t before,
            std::uint32_t after, std::uint64_t at_cycle) {
    if (!record_activity_ || before == after) {
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
    if (!record_activity_ || value == 0) {
      return;
    }
    activity_event ev;
    ev.cycle = static_cast<std::uint32_t>(at_cycle);
    ev.comp = comp;
    ev.lane = lane;
    ev.toggles = static_cast<std::uint8_t>(std::popcount(value));
    activity_.push_back(ev);
  }

  std::vector<mark_stamp> marks_;
  activity_trace activity_;
  std::uint16_t cutoff_mark_ = 0;
  bool has_cutoff_mark_ = false;
  bool end_run_at_cutoff_ = false;
  bool record_activity_ = true;
  bool record_default_ = true; ///< restored by reset()
};

/// Counts the lane state one core reset() restored — the bytes its
/// memories zeroed and the cache sets it cleared, all lanes and both
/// caches — into sim.lane.bytes_restored and sim.lane.cache_sets_restored.
/// Called once per reset(), never per access.
void note_lane_restore(std::size_t bytes, std::size_t cache_sets);

/// Constructs a backend of the requested kind over a shared program image.
std::unique_ptr<backend> make_backend(backend_kind kind, program_image image,
                                      const micro_arch_config& config);

} // namespace usca::sim

#endif // USCA_SIM_BACKEND_H
