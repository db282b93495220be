// Batched SoA trace simulation: one core model advancing N independent
// traces (lanes) per call.
//
// Campaign workloads simulate the *same* program image thousands of times
// with different data (plaintexts).  On the modelled cores the schedule of
// the AES workload is data-independent — warm caches, select-µop
// predication, straight-line generated code — so per-cycle *control*
// (issue selection, scoreboard/wakeup bookkeeping, dispatch, retirement)
// is identical across traces and can run once per batch, while only the
// *data* (register values, memory words, activity values) differs per
// lane.  The batch engines lay the data out lane-major (structure of
// arrays) and amortize every piece of per-cycle control across the lanes;
// on general programs, lanes whose data-dependent timing diverges from
// the batch are ejected at the first disagreement and re-simulated
// per-trace by the caller.
//
// The divergence protocol guarantees bit-identity for surviving lanes on
// arbitrary programs:
//
//   * the *leader* — the lowest active lane — defines the shared control
//     stream and is never ejected, so a batch run always completes;
//   * every control input that could depend on lane data (condition
//     outcomes steering branches, indirect-branch targets, D-cache hit/
//     miss penalties) is computed per lane and *agreed*: lanes that
//     disagree with the leader are ejected before their value influences
//     any shared decision;
//   * an ejected lane's per-lane state is frozen garbage from that point
//     on; callers check lane_diverged() and redo those traces on the
//     per-trace sim::backend, which remains the reference implementation.
//
// Emission runs through two lane kernels of the base class, one call per
// per-trace emission point.  By default they append each lane's activity
// events (activity()); with fuse_synthesis() they instead add each
// weighted toggle count straight into a cycle-major clean-power tile,
// the noiseless half of power::trace_synthesizer's model, so a consumer
// that reads only samples skips the event stream entirely.
//
// Implementations: sim::batch_pipeline (in-order; batch_pipeline.h) and
// sim::batch_ooo_core (OoO fast scheduler; ooo/batch_ooo_core.h).  The
// acquisition engine produces through this interface behind the
// `sim_batch_lanes` field of core::acquisition_config (default on,
// USCA_SIM_BATCH=0 escape hatch).
#ifndef USCA_SIM_BATCH_SIM_H
#define USCA_SIM_BATCH_SIM_H

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "asmx/program.h"
#include "isa/instruction.h"
#include "mem/cache.h"
#include "mem/memory.h"
#include "sim/backend.h"
#include "sim/cpu_state.h"
#include "sim/program_image.h"
#include "sim/uarch_activity.h"

namespace usca::sim {

struct micro_arch_config;

/// Lane-mask machinery (and the OoO age ring) bound batches to 64 lanes.
inline constexpr std::size_t max_batch_lanes = 64;

/// Default batch width when neither the config nor USCA_SIM_BATCH picks
/// one.  The lane sweep in EXPERIMENTS.md rises through 16 lanes and
/// flattens around 32–48 (by 64 the lane-major working set starts
/// falling out of L2); 32 sits on the plateau while keeping a batch's
/// lane state cache-resident.
inline constexpr std::size_t default_sim_batch_lanes = 32;

/// Strict parse of a USCA_SIM_BATCH value: unset / "" selects the default
/// lane count, "0" disables batching (the per-trace escape hatch), an
/// integer in [1, 64] selects that many lanes; anything else throws
/// util::simulation_error listing the valid values.
std::size_t parse_sim_batch_env(const char* value);

/// Lane count a campaign should batch with: USCA_SIM_BATCH, when set,
/// wins (it is the no-rebuild escape hatch); otherwise `config_lanes`
/// decides — negative means "default", 0 means "per-trace", positive is
/// clamped to max_batch_lanes.  Reads the environment on every call so
/// setenv-based tests see the live value.
std::size_t resolve_sim_batch_lanes(int config_lanes);

/// The set lanes of a lane mask, lowest first:
///   for (const std::size_t l : lanes_in(mask)) { ... }
/// The mask is copied at the start, so ejecting lanes in the body does not
/// change the walk.
class lanes_in {
public:
  explicit constexpr lanes_in(std::uint64_t mask) noexcept : mask_(mask) {}

  struct iterator {
    std::uint64_t rest;
    std::size_t operator*() const noexcept {
      return static_cast<std::size_t>(std::countr_zero(rest));
    }
    iterator& operator++() noexcept {
      rest &= rest - 1;
      return *this;
    }
    bool operator!=(const iterator& other) const noexcept {
      return rest != other.rest;
    }
  };
  iterator begin() const noexcept { return {mask_}; }
  iterator end() const noexcept { return {0}; }

private:
  std::uint64_t mask_;
};

/// Flushes one batch run's occupancy to telemetry: the `sim.batch.lanes`
/// histogram and the `sim.batch.active_lane_cycles` counter.  Called once
/// per run() by the batch engines — never from the cycle loop.
void note_batch_run(std::size_t lanes_active,
                    std::uint64_t active_lane_cycles);

/// N-lane counterpart of sim::backend.  This base holds what every batch
/// engine shares: the program, the per-lane architectural state (registers,
/// memory, D-cache) and the shared I-cache, the lane masks, the marks and
/// the emission state (activity streams or fused tile).  Per-lane data is
/// exposed by lane index.
class batch_backend {
public:
  virtual ~batch_backend() = default;

  virtual backend_kind kind() const noexcept = 0;

  /// Restores the freshly-constructed state of every lane (the active-lane
  /// limit is preserved and re-applied).
  virtual void reset() = 0;

  /// Warms the shared I-cache and every lane's D-cache.
  void warm_caches();

  /// Runs every active lane to the halt, or to the cutoff mark when it
  /// was armed with `end_run` (see set_activity_cutoff_mark); throws past
  /// the cycle budget.  Lanes whose data-dependent timing diverges are
  /// ejected and flagged (lane_diverged()); the leader lane always
  /// completes.
  virtual void run(std::uint64_t max_cycles = 50'000'000) = 0;

  cpu_state& state(std::size_t lane) noexcept { return state_[lane]; }
  const cpu_state& state(std::size_t lane) const noexcept {
    return state_[lane];
  }
  mem::memory& memory(std::size_t lane) noexcept { return memory_[lane]; }
  const mem::memory& memory(std::size_t lane) const noexcept {
    return memory_[lane];
  }
  const asmx::program& program() const noexcept { return *prog_; }

  /// Shared batch cycle count (identical across surviving lanes).
  virtual std::uint64_t cycles() const noexcept = 0;
  virtual std::uint64_t instructions_issued() const noexcept = 0;

  /// Configured lane capacity of this batch.
  std::size_t lanes() const noexcept { return lanes_; }

  /// Restricts the batch to its first `n` lanes (a partial final group);
  /// applied immediately and re-applied by reset().
  void limit_active_lanes(std::size_t n) noexcept {
    active_limit_ = n < lanes_ ? n : lanes_;
    active_mask_ = mask_for_limit();
    diverged_mask_ = 0;
  }
  std::size_t active_lanes() const noexcept { return active_limit_; }

  /// Whether `lane` was ejected during run() (its per-lane state and
  /// activity are garbage; re-simulate it per-trace).
  bool lane_diverged(std::size_t lane) const noexcept {
    return (diverged_mask_ >> lane) & 1U;
  }
  bool any_lane_diverged() const noexcept { return diverged_mask_ != 0; }

  const std::vector<mark_stamp>& marks() const noexcept { return marks_; }
  const activity_trace& activity(std::size_t lane) const noexcept {
    return activity_[lane];
  }

  void set_record_activity(bool record) noexcept {
    record_default_ = record;
    record_activity_ = record;
  }
  /// Batched counterpart of backend::set_activity_cutoff_mark: recording
  /// stops for every lane when the mark first commits, and with `end_run`
  /// the whole batch halts there.  A lane whose timing would diverge only
  /// after the mark then completes instead of being ejected — its window
  /// activity is already recorded and identical to its per-trace run's.
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

  /// Fused synthesis for the runs that follow: recorded emissions add
  /// `weights[comp] * toggles` into the clean-power tile (initialised to
  /// `baseline`) instead of appending activity events, which then stay
  /// empty.  Every sample receives the additions the event walk of
  /// trace_synthesizer::synthesize_clean would make, in the same order,
  /// so a surviving lane's tile column equals that rendering bitwise.
  void fuse_synthesis(const std::array<double, component_count>& weights,
                      double baseline);
  /// Back to event recording (the default) for the runs that follow.
  void unfuse_synthesis() noexcept { fused_ = false; }

  /// The clean-power tile, cycle-major: the clean sample of `lane` at
  /// cycle c is element [c * lanes() + lane].  Grown with baseline rows
  /// to at least `rows` cycles; valid until the next run() or reset().
  const double* clean_tile(std::size_t rows);

protected:
  batch_backend(program_image image, const mem::cache_config& icache,
                const mem::cache_config& dcache, std::size_t lanes);

  using lane_values = std::array<std::uint32_t, max_batch_lanes>;

  std::uint64_t mask_for_limit() const noexcept {
    return active_limit_ >= 64 ? ~std::uint64_t{0}
                               : (std::uint64_t{1} << active_limit_) - 1;
  }

  /// Lowest active lane: the lane whose data defines the shared control
  /// stream.  Never ejected, so active_mask_ never empties.
  std::size_t leader() const noexcept {
    return static_cast<std::size_t>(std::countr_zero(active_mask_));
  }

  void eject_lane(std::size_t lane) noexcept {
    active_mask_ &= ~(std::uint64_t{1} << lane);
    diverged_mask_ |= std::uint64_t{1} << lane;
  }

  /// Agreement checkpoint: ejects every active lane whose `values[lane]`
  /// differs from the leader's — BEFORE the leader's value steers any
  /// shared control, so an ejected lane's data never influences the
  /// surviving lanes' schedule.
  template <typename T>
  void agree(const T* values) noexcept {
    const T expect = values[leader()];
    for (const std::size_t l : lanes_in(active_mask_)) {
      if (values[l] != expect) {
        eject_lane(l);
      }
    }
  }

  /// agree() on one bit per lane: ejects the active lanes whose bit in
  /// `bits` differs from the leader's; returns the leader's bit.
  bool agree_bit(std::uint64_t bits) noexcept {
    const bool lead = ((bits >> leader()) & 1U) != 0;
    const std::uint64_t disagree = active_mask_ & (lead ? ~bits : bits);
    active_mask_ &= ~disagree;
    diverged_mask_ |= disagree;
    return lead;
  }

  /// The active lanes whose flags pass condition `cond`.
  std::uint64_t passing_lanes(isa::condition cond) const noexcept {
    std::uint64_t passing = 0;
    for (const std::size_t l : lanes_in(active_mask_)) {
      passing |= std::uint64_t{isa::condition_passes(cond, state_[l].f)}
                 << l;
    }
    return passing;
  }

  /// Register `r` of every active lane into values[lane].
  void read_reg(isa::reg r, std::uint32_t* values) const noexcept {
    for (const std::size_t l : lanes_in(active_mask_)) {
      values[l] = state_[l].reg(r);
    }
  }
  /// values[lane] into register `r` of every lane in `mask`.
  void write_reg(isa::reg r, const std::uint32_t* values,
                 std::uint64_t mask) noexcept {
    for (const std::size_t l : lanes_in(mask)) {
      state_[l].set_reg(r, values[l]);
    }
  }
  /// Effective address of memory instruction `ins` in every active lane:
  /// the base register plus or minus the immediate or the shifted offset
  /// register.
  void effective_addresses(const isa::instruction& ins,
                           std::uint32_t* address) const noexcept {
    for (const std::size_t l : lanes_in(active_mask_)) {
      const std::uint32_t base = state_[l].reg(ins.mem.base);
      const std::uint32_t offset =
          ins.mem.reg_offset
              ? state_[l].reg(ins.mem.offset_reg) << ins.mem.offset_shift
              : ins.mem.offset_imm;
      address[l] = ins.mem.subtract ? base - offset : base + offset;
    }
  }

  /// Entry agreement of run(): per-lane setup code may have steered a
  /// lane's pc or halted flag away from the batch; such lanes cannot share
  /// the control stream and are ejected before the first cycle.  Returns
  /// the leader's state, which the shared control starts from.
  const cpu_state& enter_run() noexcept;
  /// Hands the shared pc and halted flag back to every surviving lane.
  void leave_run(std::size_t pc, bool halted) noexcept;

  /// Records a committed mark and applies the cutoff; true when the
  /// batch run must end here (see backend::commit_mark).
  bool commit_mark(const mark_stamp& stamp) {
    marks_.push_back(stamp);
    if (!has_cutoff_mark_ || stamp.id != cutoff_mark_) {
      return false;
    }
    record_activity_ = false;
    return end_run_at_cutoff_;
  }

  /// The part of reset() this base holds: every lane's registers, memory
  /// (reloaded with the data image) and D-cache, the I-cache, and the
  /// per-run emission state — activity streams, touched tile rows, marks,
  /// the recording flag and the lane masks.
  void reset_lanes();

  // Lane kernels: one call per emission point of the per-trace core,
  // covering the lanes in `mask` (the active lanes or a subset of them).
  // Same skip rules as backend::emit/emit_weight — recording off, zero
  // toggles — and, in event mode, the same event layout.

  /// Hamming-distance emission: lane l toggles HD(state[l], values[l]),
  /// then state[l] takes values[l] (also while recording is off).
  void drive_lanes(component comp, std::uint8_t port, std::uint32_t* state,
                   const std::uint32_t* values, std::uint64_t at_cycle,
                   std::uint64_t mask);
  /// Hamming-weight emission: lane l toggles HW(values[l]).
  void weigh_lanes(component comp, std::uint8_t port,
                   const std::uint32_t* values, std::uint64_t at_cycle,
                   std::uint64_t mask);

  std::size_t lanes_;
  std::size_t active_limit_;
  std::uint64_t active_mask_ = 0;
  std::uint64_t diverged_mask_ = 0;
  std::vector<activity_trace> activity_;
  std::vector<mark_stamp> marks_;
  std::uint16_t cutoff_mark_ = 0;
  bool has_cutoff_mark_ = false;
  bool end_run_at_cutoff_ = false;
  bool record_activity_ = true;
  bool record_default_ = true;

  program_image image_;
  const asmx::program* prog_ = nullptr;
  std::vector<mem::memory> memory_;
  std::vector<mem::cache> dcache_;
  std::vector<cpu_state> state_;
  mem::cache icache_; ///< shared: the fetch stream is lane-invariant

private:
  /// The one body behind drive_lanes (Distance) and weigh_lanes.
  template <bool Distance>
  void emit_lanes(component comp, std::uint8_t port, std::uint32_t* state,
                  const std::uint32_t* values, std::uint64_t at_cycle,
                  std::uint64_t mask);
  /// Tile row of `at_cycle`, grown on demand and marked touched.
  double* fused_row(std::uint64_t at_cycle);

  bool fused_ = false;
  std::array<double, component_count> weights_{};
  double baseline_ = 0.0;
  std::vector<double> tile_;     ///< [cycle * lanes_ + lane], see clean_tile
  std::size_t touched_rows_ = 0; ///< rows at or past this hold baseline
};

/// Constructs a batch backend of the requested kind (batch_pipeline /
/// batch_ooo_core) over a shared program image.
std::unique_ptr<batch_backend> make_batch_backend(
    backend_kind kind, program_image image, const micro_arch_config& config,
    std::size_t lanes);

/// Presents one lane of a batch as a sim::backend so per-trace setup code
/// (acquisition's setup_fn writes registers/memory through backend&) runs
/// unchanged against a batch lane.  Only state access forwards; the
/// simulation-driving entry points (run, step_cycle, reset, rebind,
/// warm_caches) throw — the batch is driven as a whole.
class batch_lane_view final : public backend {
public:
  batch_lane_view(batch_backend& batch, std::size_t lane) noexcept
      : batch_(&batch), lane_(lane) {}

  backend_kind kind() const noexcept override { return batch_->kind(); }
  cpu_state& state() noexcept override { return batch_->state(lane_); }
  const cpu_state& state() const noexcept override {
    return batch_->state(lane_);
  }
  mem::memory& memory() noexcept override { return batch_->memory(lane_); }
  const mem::memory& memory() const noexcept override {
    return batch_->memory(lane_);
  }
  const asmx::program& program() const noexcept override {
    return batch_->program();
  }
  std::uint64_t cycles() const noexcept override { return batch_->cycles(); }
  std::uint64_t instructions_issued() const noexcept override {
    return batch_->instructions_issued();
  }

  [[noreturn]] void reset() override;
  [[noreturn]] void rebind(program_image image) override;
  [[noreturn]] void warm_caches() override;
  [[noreturn]] void run(std::uint64_t max_cycles = 50'000'000) override;
  [[noreturn]] bool step_cycle() override;

private:
  batch_backend* batch_;
  std::size_t lane_;
};

} // namespace usca::sim

#endif // USCA_SIM_BATCH_SIM_H
