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
// Register file.  During run() every lane's architectural registers live
// in rows owned by the base class, regs_[r][lane], and the NZCV flags in
// four lane masks (sim/lane_alu.h).  The datapath passes a register to a
// port or bus as its row and evaluates each instruction with one lane
// kernel call — one opcode switch per instruction, the lane loop inside;
// a condition is mask arithmetic on the flag masks.  The rows are
// exchanged with state(lane) only at the run boundary: enter_run() loads
// them, and every exit of run(), a throw such as the cycle budget
// included, stores them back.  Outside run(), state(lane) is the lane's
// state, as setup code and callers see it.
//
// Data memory and D-cache.  Memory works the same way (sim/lane_memory.h):
// during run() every lane's data window — the program's data image — is
// word rows, and the D-cache lane-major tags, stamps and valid masks, so
// a probe, a load (value and MDR word) or a store is one call over the
// active lanes.  An access outside the window goes to that lane's
// mem::memory, which stays authoritative there (and is counted,
// `sim.batch.outside_window_accesses`).  The rows meet memory(lane) at
// the same run boundary as the registers, so outside run() memory(lane)
// is the lane's memory, as setup code and callers see it.
//
// Emission runs through two lane kernels of the base class, one call per
// per-trace emission point.  By default they append each lane's activity
// events (activity()); with fuse_synthesis() they instead add each
// weighted toggle count straight into a cycle-major clean-power tile,
// the noiseless half of power::trace_synthesizer's model, so a consumer
// that reads only samples skips the event stream entirely.  The fused
// contiguous-lane body is dispatched once (emit_kernels: baseline ISA,
// AVX2 or AVX-512, bit-identical), for both engines alike.
//
// Implementations: sim::batch_pipeline (in-order; batch_pipeline.h) and
// sim::batch_ooo_core (OoO fast scheduler; ooo/batch_ooo_core.h).  The
// acquisition engine produces through this interface behind the
// `sim_batch_lanes` field of core::acquisition_config (default on; 0
// selects the per-trace path).
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
#include "sim/lane_alu.h"
#include "sim/lane_memory.h"
#include "sim/program_image.h"
#include "sim/uarch_activity.h"

namespace usca::sim {

struct micro_arch_config;

/// Default batch width when the config does not pick one.  The lane
/// sweep in EXPERIMENTS.md rises through 16 lanes and flattens around
/// 32–48 (by 64 the lane-major working set starts falling out of L2); 32
/// sits on the plateau while keeping a batch's lane state cache-resident.
inline constexpr std::size_t default_sim_batch_lanes = 32;

/// Lane count a campaign should batch with, from the `sim_batch_lanes`
/// config field: negative means "default", 0 means "per-trace",
/// positive is clamped to max_batch_lanes.
std::size_t resolve_sim_batch_lanes(int config_lanes);

/// Fused-emission lane kernels: lanes 0..n-1 of a clean-power tile row
/// receive their weighted toggle counts (the contiguous-mask fast path
/// of batch_backend's emission).  drive: lane l adds
/// weight * HD(state[l], values[l]), then state[l] takes values[l];
/// weigh: lane l adds weight * HW(values[l]).  A lane with no toggles
/// keeps its sample bits.  Three sets, bit-identical: one body compiled
/// at the baseline ISA and for AVX2, and an AVX-512 body (vpopcntd and a
/// masked add).  The FMA rule: a set whose target enables FMA (AVX-512
/// does) must not let the compiler fuse `row + weight * toggles` — one
/// rounding where the baseline and the synthesizer's event walk round
/// twice — so the AVX-512 body multiplies and adds through
/// explicit-rounding intrinsics; the AVX2 target leaves FMA off.
struct emit_kernels {
  const char* name;
  void (*drive)(double* row, double weight, std::uint32_t* state,
                const std::uint32_t* values, std::size_t n);
  void (*weigh)(double* row, double weight, const std::uint32_t* values,
                std::size_t n);
};

/// The baseline-ISA set.
const emit_kernels& baseline_emit_kernels() noexcept;

/// The AVX2 set, or nullptr when the build or the CPU lacks AVX2.
const emit_kernels* avx2_emit_kernels() noexcept;

/// The AVX-512 set, or nullptr when the build or the CPU lacks the
/// util/avx512.h feature set.
const emit_kernels* avx512_emit_kernels() noexcept;

/// The runtime-dispatched active set, the widest the CPU runs, resolved
/// once at first use; every batch engine emits through it.
const emit_kernels& active_emit_kernels();

/// Flushes one batch run's occupancy to telemetry: the `sim.batch.lanes`
/// histogram and the `sim.batch.active_lane_cycles` counter.  Called once
/// per run() by the batch engines — never from the cycle loop.
void note_batch_run(std::size_t lanes_active,
                    std::uint64_t active_lane_cycles);

/// N-lane counterpart of sim::backend.  This base holds what every batch
/// engine shares: the program, the per-lane architectural state (during a
/// run: register rows and flag masks, data-window rows and the lane-major
/// D-cache; memory() and state() outside it) and the shared I-cache, the
/// lane masks, the marks and the emission state (activity streams or
/// fused tile).  Per-lane data is exposed by lane index.
class batch_backend {
public:
  virtual ~batch_backend() = default;

  virtual backend_kind kind() const noexcept = 0;

  /// Restores the freshly-constructed state of every lane (the active-lane
  /// limit is preserved and re-applied).
  virtual void reset() = 0;

  /// Warms the shared I-cache and every lane's D-cache (one lane warmed
  /// and broadcast when the lanes' D-caches are alike, as after reset()).
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
  mem::memory& memory(std::size_t lane) noexcept {
    return data_.memory(lane);
  }
  const mem::memory& memory(std::size_t lane) const noexcept {
    return data_.memory(lane);
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
    return condition_lanes(cond, flags_, active_mask_);
  }

  /// Register `r` of every lane: its row of the register file.
  const std::uint32_t* reg_row(isa::reg r) const noexcept {
    return regs_[isa::index_of(r)].data();
  }
  /// values[lane] into register `r` of every lane in `mask`.
  void write_reg(isa::reg r, const std::uint32_t* values,
                 std::uint64_t mask) noexcept {
    copy_lanes(values, mask, regs_[isa::index_of(r)].data());
  }

  /// Entry of run(): loads every lane's registers and flags from state()
  /// and the active lanes' data windows from memory() into the rows, then
  /// agrees on the entry point — per-lane setup code
  /// may have steered a lane's pc or halted flag away from the batch;
  /// such lanes cannot share the control stream and are ejected before
  /// the first cycle.  Returns the leader's state, which the shared
  /// control starts from.
  const cpu_state& enter_run() noexcept;
  /// Normal exit of run(): store_lanes(), then hands the shared pc and
  /// halted flag to every surviving lane.
  void leave_run(std::size_t pc, bool halted);
  /// Hands the rows back to every lane: registers and flags to state(),
  /// data windows to memory().  run() calls it on every exit, a throw
  /// included, so state() and memory() always read what the lanes
  /// executed.
  void store_lanes();

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
  /// (the blocks the last run wrote zeroed, the data image reloaded) and
  /// D-cache (the sets the lanes filled cleared), the I-cache, and the
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
  /// Every lane's data memory and D-cache: mem::memory objects outside
  /// run(), word rows over the data window during it (lane_memory.h).
  lane_memory data_;
  /// Lane state as the API sees it (state(lane)); exchanged with the
  /// rows below only at the run boundary.
  std::vector<cpu_state> state_;
  /// During run(): every lane's registers, row r lane l, and its flags
  /// as lane masks.  The datapath reads and writes only these.
  lane_regs regs_{};
  lane_flags flags_;
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
  const emit_kernels* emit_ = &active_emit_kernels();
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
