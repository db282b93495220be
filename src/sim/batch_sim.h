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
// Implementations: sim::batch_pipeline (in-order; batch_pipeline.h) and
// sim::batch_ooo_core (OoO fast scheduler; ooo/batch_ooo_core.h).  The
// campaign/acquisition engines produce through this interface behind a
// `sim_batch` knob (default on, USCA_SIM_BATCH=0 escape hatch) — see
// core/campaign.h.
#ifndef USCA_SIM_BATCH_SIM_H
#define USCA_SIM_BATCH_SIM_H

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "asmx/program.h"
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

/// Flushes one batch run's occupancy to telemetry: the `sim.batch.lanes`
/// histogram and the `sim.batch.active_lane_cycles` counter.  Called once
/// per run() by the batch engines — never from the cycle loop.
void note_batch_run(std::size_t lanes_active,
                    std::uint64_t active_lane_cycles);

/// N-lane counterpart of sim::backend.  Shared control (cycle count,
/// marks, activity recording flags) lives here; per-lane data (state,
/// memory, activity stream) is exposed by lane index.
class batch_backend {
public:
  virtual ~batch_backend() = default;

  virtual backend_kind kind() const noexcept = 0;

  /// Restores the freshly-constructed state of every lane (the active-lane
  /// limit is preserved and re-applied).
  virtual void reset() = 0;

  /// Warms the shared I-cache and every lane's D-cache.
  virtual void warm_caches() = 0;

  /// Runs every active lane to the halt (or throws past the cycle
  /// budget).  Lanes whose data-dependent timing diverges are ejected and
  /// flagged (lane_diverged()); the leader lane always completes.
  virtual void run(std::uint64_t max_cycles = 50'000'000) = 0;

  virtual cpu_state& state(std::size_t lane) noexcept = 0;
  virtual const cpu_state& state(std::size_t lane) const noexcept = 0;
  virtual mem::memory& memory(std::size_t lane) noexcept = 0;
  virtual const mem::memory& memory(std::size_t lane) const noexcept = 0;
  virtual const asmx::program& program() const noexcept = 0;

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

protected:
  explicit batch_backend(std::size_t lanes)
      : lanes_(lanes == 0 ? 1 : (lanes > max_batch_lanes ? max_batch_lanes
                                                         : lanes)),
        active_limit_(lanes_),
        active_mask_(mask_for_limit()),
        activity_(lanes_) {
    for (activity_trace& t : activity_) {
      t.reserve(4096);
    }
  }

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
    std::uint64_t m = active_mask_;
    const T expect = values[std::countr_zero(m)];
    m &= m - 1; // the leader agrees with itself
    while (m != 0) {
      const auto lane = static_cast<std::size_t>(std::countr_zero(m));
      if (values[lane] != expect) {
        eject_lane(lane);
      }
      m &= m - 1;
    }
  }

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

  // Per-lane counterparts of backend::emit/emit_weight — same skip rules
  // (recording off, zero Hamming distance / weight), same event layout.

  void emit_lane(std::size_t lane, component comp, std::uint8_t port,
                 std::uint32_t before, std::uint32_t after,
                 std::uint64_t at_cycle) {
    if (!record_activity_ || before == after) {
      return;
    }
    activity_event ev;
    ev.cycle = static_cast<std::uint32_t>(at_cycle);
    ev.comp = comp;
    ev.lane = port;
    ev.toggles = static_cast<std::uint8_t>(std::popcount(before ^ after));
    activity_[lane].push_back(ev);
  }

  void emit_weight_lane(std::size_t lane, component comp, std::uint8_t port,
                        std::uint32_t value, std::uint64_t at_cycle) {
    if (!record_activity_ || value == 0) {
      return;
    }
    activity_event ev;
    ev.cycle = static_cast<std::uint32_t>(at_cycle);
    ev.comp = comp;
    ev.lane = port;
    ev.toggles = static_cast<std::uint8_t>(std::popcount(value));
    activity_[lane].push_back(ev);
  }

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
