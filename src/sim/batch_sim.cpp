#include "sim/batch_sim.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "sim/batch_pipeline.h"
#include "sim/micro_arch_config.h"
#include "sim/ooo/batch_ooo_core.h"
#include "util/error.h"
#include "util/telemetry.h"

namespace usca::sim {

std::size_t parse_sim_batch_env(const char* value) {
  if (value == nullptr || value[0] == '\0') {
    return default_sim_batch_lanes;
  }
  // Strict decimal parse: the whole string must be digits, and the value
  // must fit the lane budget — a typo must not silently change which
  // simulation engine a campaign runs on.
  std::size_t lanes = 0;
  for (const char* p = value; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9' || lanes > max_batch_lanes) {
      throw util::simulation_error(
          std::string("unknown USCA_SIM_BATCH value '") + value +
          "' (valid values: unset, \"\", 0 = per-trace, 1.." +
          std::to_string(max_batch_lanes) + " = batch lanes)");
    }
    lanes = lanes * 10 + static_cast<std::size_t>(*p - '0');
  }
  if (lanes > max_batch_lanes) {
    throw util::simulation_error(
        std::string("unknown USCA_SIM_BATCH value '") + value +
        "' (valid values: unset, \"\", 0 = per-trace, 1.." +
        std::to_string(max_batch_lanes) + " = batch lanes)");
  }
  return lanes;
}

std::size_t resolve_sim_batch_lanes(int config_lanes) {
  // The environment, when set, wins: USCA_SIM_BATCH=0 is the no-rebuild
  // escape hatch back to the per-trace reference path.
  if (const char* env = std::getenv("USCA_SIM_BATCH");
      env != nullptr && env[0] != '\0') {
    return parse_sim_batch_env(env);
  }
  if (config_lanes < 0) {
    return default_sim_batch_lanes;
  }
  const auto lanes = static_cast<std::size_t>(config_lanes);
  return lanes > max_batch_lanes ? max_batch_lanes : lanes;
}

namespace {

/// Shift-add popcount.  Without -mpopcnt, std::popcount compiles to one
/// libgcc call per value; this form vectorises at the baseline ISA.
inline std::uint32_t toggles_of(std::uint32_t x) noexcept {
  x -= (x >> 1) & 0x55555555U;
  x = (x & 0x33333333U) + ((x >> 2) & 0x33333333U);
  x = (x + (x >> 4)) & 0x0f0f0f0fU;
  x += x >> 8;
  x += x >> 16;
  return x & 0x3fU;
}

/// `sample + weight * toggles`, or `sample` untouched when nothing
/// toggled — the event walk has no event to add then.  A bit select
/// rather than a branch keeps the lane loop vectorisable, and rather
/// than adding `weight * 0` keeps a -0.0 sample and non-finite weights
/// bit-identical to that walk.
inline double add_toggles(double sample, double weight,
                          std::uint32_t toggles) noexcept {
  const double sum =
      sample + weight * static_cast<double>(static_cast<std::int32_t>(toggles));
  const std::uint64_t take =
      std::uint64_t{0} - static_cast<std::uint64_t>(toggles != 0);
  return std::bit_cast<double>((std::bit_cast<std::uint64_t>(sum) & take) |
                               (std::bit_cast<std::uint64_t>(sample) & ~take));
}

/// The fused fast path: lanes 0..n-1 of a contiguous mask.
template <bool Distance>
void add_contiguous(double* __restrict row, double weight,
                    std::uint32_t* __restrict state,
                    const std::uint32_t* __restrict values, std::size_t n) {
  for (std::size_t l = 0; l < n; ++l) {
    if constexpr (Distance) {
      row[l] = add_toggles(row[l], weight, toggles_of(state[l] ^ values[l]));
      state[l] = values[l];
    } else {
      row[l] = add_toggles(row[l], weight, toggles_of(values[l]));
    }
  }
}

/// Number of lanes when `mask` covers exactly lanes 0..n-1, else 0.
std::size_t contiguous_lanes(std::uint64_t mask) noexcept {
  return (mask & (mask + 1)) == 0
             ? static_cast<std::size_t>(std::countr_one(mask))
             : 0;
}

} // namespace

void batch_backend::fuse_synthesis(
    const std::array<double, component_count>& weights, double baseline) {
  weights_ = weights;
  if (std::bit_cast<std::uint64_t>(baseline) !=
      std::bit_cast<std::uint64_t>(baseline_)) {
    baseline_ = baseline;
    std::fill(tile_.begin(), tile_.end(), baseline_);
    touched_rows_ = 0;
  }
  fused_ = true;
}

const double* batch_backend::clean_tile(std::size_t rows) {
  if (rows * lanes_ > tile_.size()) {
    tile_.resize(rows * lanes_, baseline_);
  }
  return tile_.data();
}

double* batch_backend::fused_row(std::uint64_t at_cycle) {
  const auto row = static_cast<std::size_t>(at_cycle);
  if (row >= touched_rows_) {
    touched_rows_ = row + 1;
    if (touched_rows_ * lanes_ > tile_.size()) {
      // Whole rows, doubling: a run's tile settles after a few batches.
      tile_.resize(std::max(touched_rows_, 2 * tile_.size() / lanes_) * lanes_,
                   baseline_);
    }
  }
  return tile_.data() + row * lanes_;
}

batch_backend::batch_backend(program_image image,
                             const mem::cache_config& icache,
                             const mem::cache_config& dcache,
                             std::size_t lanes)
    : lanes_(lanes == 0 ? 1 : std::min(lanes, max_batch_lanes)),
      active_limit_(lanes_), active_mask_(mask_for_limit()),
      activity_(lanes_), image_(std::move(image)), prog_(&image_.prog()),
      memory_(lanes_), dcache_(lanes_, mem::cache(dcache)), state_(lanes_),
      icache_(icache) {
  for (activity_trace& t : activity_) {
    t.reserve(4096);
  }
  for (mem::memory& m : memory_) {
    m.load(prog_->data_base, prog_->data);
  }
}

void batch_backend::warm_caches() {
  icache_.warm(prog_->code_base, prog_->code.size() * 4 + 4);
  if (!prog_->data.empty()) {
    for (mem::cache& d : dcache_) {
      d.warm(prog_->data_base, prog_->data.size());
    }
  }
}

const cpu_state& batch_backend::enter_run() noexcept {
  std::array<std::uint64_t, max_batch_lanes> entry;
  for (const std::size_t l : lanes_in(active_mask_)) {
    entry[l] = (static_cast<std::uint64_t>(state_[l].pc) << 1) |
               (state_[l].halted ? 1U : 0U);
  }
  agree(entry.data());
  return state_[leader()];
}

void batch_backend::leave_run(std::size_t pc, bool halted) noexcept {
  for (const std::size_t l : lanes_in(active_mask_)) {
    state_[l].pc = pc;
    state_[l].halted = halted;
  }
}

void batch_backend::reset_lanes() {
  for (std::size_t l = 0; l < lanes_; ++l) {
    memory_[l].reset();
    memory_[l].load(prog_->data_base, prog_->data);
    dcache_[l].reset();
    state_[l] = cpu_state{};
    activity_[l].clear();
  }
  icache_.reset();
  std::fill_n(tile_.begin(), touched_rows_ * lanes_, baseline_);
  touched_rows_ = 0;
  marks_.clear();
  record_activity_ = record_default_;
  active_mask_ = mask_for_limit();
  diverged_mask_ = 0;
}

template <bool Distance>
void batch_backend::emit_lanes(component comp, std::uint8_t port,
                               std::uint32_t* state,
                               const std::uint32_t* values,
                               std::uint64_t at_cycle, std::uint64_t mask) {
  if (!record_activity_) {
    if constexpr (Distance) {
      for (const std::size_t l : lanes_in(mask)) {
        state[l] = values[l];
      }
    }
    return;
  }
  const auto flips = [state, values](std::size_t l) {
    return Distance ? state[l] ^ values[l] : values[l];
  };
  if (fused_) {
    double* row = fused_row(at_cycle);
    const double weight = weights_[static_cast<std::size_t>(comp)];
    if (const std::size_t n = contiguous_lanes(mask); n != 0) {
      add_contiguous<Distance>(row, weight, state, values, n);
      return;
    }
    // Masked path: predicated-off and ejected lanes leave holes.
    for (const std::size_t l : lanes_in(mask)) {
      row[l] = add_toggles(row[l], weight, toggles_of(flips(l)));
      if constexpr (Distance) {
        state[l] = values[l];
      }
    }
    return;
  }
  for (const std::size_t l : lanes_in(mask)) {
    if (const std::uint32_t x = flips(l); x != 0) {
      activity_[l].push_back(
          activity_event{static_cast<std::uint32_t>(at_cycle), comp, port,
                         static_cast<std::uint8_t>(toggles_of(x))});
    }
    if constexpr (Distance) {
      state[l] = values[l];
    }
  }
}

void batch_backend::drive_lanes(component comp, std::uint8_t port,
                                std::uint32_t* state,
                                const std::uint32_t* values,
                                std::uint64_t at_cycle, std::uint64_t mask) {
  emit_lanes<true>(comp, port, state, values, at_cycle, mask);
}

void batch_backend::weigh_lanes(component comp, std::uint8_t port,
                                const std::uint32_t* values,
                                std::uint64_t at_cycle, std::uint64_t mask) {
  emit_lanes<false>(comp, port, nullptr, values, at_cycle, mask);
}

void note_batch_run(std::size_t lanes_active,
                    std::uint64_t active_lane_cycles) {
  static const telem::histogram lanes{"sim.batch.lanes", "lanes", "sim"};
  static const telem::counter lane_cycles{"sim.batch.active_lane_cycles",
                                          "lane-cycles", "sim"};
  lanes.record(static_cast<std::uint64_t>(lanes_active));
  lane_cycles.add(active_lane_cycles);
}

std::unique_ptr<batch_backend> make_batch_backend(
    backend_kind kind, program_image image, const micro_arch_config& config,
    std::size_t lanes) {
  switch (kind) {
  case backend_kind::inorder:
    return std::make_unique<batch_pipeline>(std::move(image), config, lanes);
  case backend_kind::ooo:
    return std::make_unique<batch_ooo_core>(std::move(image), config, lanes);
  }
  throw util::simulation_error("unknown backend kind");
}

namespace {

[[noreturn]] void lane_view_misuse(const char* what) {
  throw util::simulation_error(
      std::string("batch_lane_view: ") + what +
      " must be driven on the batch backend, not a single lane");
}

} // namespace

void batch_lane_view::reset() { lane_view_misuse("reset()"); }
void batch_lane_view::rebind(program_image) { lane_view_misuse("rebind()"); }
void batch_lane_view::warm_caches() { lane_view_misuse("warm_caches()"); }
void batch_lane_view::run(std::uint64_t) { lane_view_misuse("run()"); }
bool batch_lane_view::step_cycle() { lane_view_misuse("step_cycle()"); }

} // namespace usca::sim
