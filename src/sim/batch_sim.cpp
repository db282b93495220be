#include "sim/batch_sim.h"

#include <algorithm>
#include <string>

#include "sim/batch_pipeline.h"
#include "sim/micro_arch_config.h"
#include "sim/ooo/batch_ooo_core.h"
#include "util/avx512.h"
#include "util/error.h"
#include "util/telemetry.h"

namespace usca::sim {

std::size_t resolve_sim_batch_lanes(int config_lanes) {
  if (config_lanes < 0) {
    return default_sim_batch_lanes;
  }
  const auto lanes = static_cast<std::size_t>(config_lanes);
  return lanes > max_batch_lanes ? max_batch_lanes : lanes;
}

namespace {

/// Shift-add popcount.  Without -mpopcnt, std::popcount compiles to one
/// libgcc call per value; this form vectorises at the baseline ISA.
[[gnu::always_inline]] inline std::uint32_t
toggles_of(std::uint32_t x) noexcept {
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
[[gnu::always_inline]] inline double
add_toggles(double sample, double weight, std::uint32_t toggles) noexcept {
  const double sum =
      sample + weight * static_cast<double>(static_cast<std::int32_t>(toggles));
  const std::uint64_t take =
      std::uint64_t{0} - static_cast<std::uint64_t>(toggles != 0);
  return std::bit_cast<double>((std::bit_cast<std::uint64_t>(sum) & take) |
                               (std::bit_cast<std::uint64_t>(sample) & ~take));
}

/// The fused fast path: lanes 0..n-1 of a contiguous mask.  One body,
/// inlined into each kernel set below, so each set compiles it for its
/// own ISA.
template <bool Distance>
[[gnu::always_inline]] inline void
add_contiguous(double* __restrict row, double weight,
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

void baseline_drive(double* row, double weight, std::uint32_t* state,
                    const std::uint32_t* values, std::size_t n) {
  add_contiguous<true>(row, weight, state, values, n);
}

void baseline_weigh(double* row, double weight, const std::uint32_t* values,
                    std::size_t n) {
  add_contiguous<false>(row, weight, nullptr, values, n);
}

constexpr emit_kernels baseline_set = {"baseline", baseline_drive,
                                       baseline_weigh};

// The same body for AVX2: 8 lanes' popcounts per ymm and 4-wide double
// arithmetic.  target("avx2") alone, never "fma": a fused multiply-add
// would round `sample + weight * toggles` once where the baseline (and
// the synthesizer's event walk) rounds twice.
#if defined(__x86_64__) && defined(__GNUC__)
#define USCA_HAVE_AVX2_EMIT 1

__attribute__((target("avx2"))) void
avx2_drive(double* row, double weight, std::uint32_t* state,
           const std::uint32_t* values, std::size_t n) {
  add_contiguous<true>(row, weight, state, values, n);
}

__attribute__((target("avx2"))) void
avx2_weigh(double* row, double weight, const std::uint32_t* values,
           std::size_t n) {
  add_contiguous<false>(row, weight, nullptr, values, n);
}

constexpr emit_kernels avx2_set = {"avx2", avx2_drive, avx2_weigh};
#endif

// AVX-512: eight lanes per step.  vpopcntd counts the toggles, and a
// masked vaddpd adds `weight * toggles` only on the lanes that toggled,
// which is add_toggles' rule without the bit select.  The multiply and
// the add are explicit-rounding intrinsics, so they round twice like the
// baseline and are never fused (the FMA rule of util/polar_log.h).  The
// last n % 8 lanes run through the same step under a lane mask.
//
// This is the one kernel body still written in intrinsics; the other
// families compile one plain body per ISA.  Measured on an AVX-512 host,
// best of 300 reps of 2 048 drive calls over 32 lanes: this body 9.1 ns
// per call, add_contiguous compiled under USCA_AVX512_TARGET 17.1 ns,
// and 12.4 ns with __builtin_popcount in place of toggles_of
// (EXPERIMENTS.md, "One kernel body per family").
#if USCA_HAVE_AVX512
USCA_AVX512_BODIES_BEGIN

template <bool Distance>
[[gnu::always_inline]] __attribute__((target(USCA_AVX512_TARGET))) inline void
add_lanes_x8(double* row, __m512d weight, std::uint32_t* state,
             const std::uint32_t* values, __mmask8 lanes) {
  const __m256i value = _mm256_maskz_loadu_epi32(lanes, values);
  __m256i flips = value;
  if constexpr (Distance) {
    flips = _mm256_xor_si256(_mm256_maskz_loadu_epi32(lanes, state), value);
    _mm256_mask_storeu_epi32(state, lanes, value);
  }
  const __mmask8 toggled = _mm256_mask_test_epi32_mask(lanes, flips, flips);
  const __m512d product = _mm512_mul_round_pd(
      weight, _mm512_cvtepi32_pd(_mm256_popcnt_epi32(flips)),
      USCA_AVX512_NEAREST);
  const __m512d sample = _mm512_maskz_loadu_pd(lanes, row);
  _mm512_mask_storeu_pd(row, lanes,
                        _mm512_mask_add_round_pd(sample, toggled, sample,
                                                 product,
                                                 USCA_AVX512_NEAREST));
}

template <bool Distance>
__attribute__((target(USCA_AVX512_TARGET))) void
avx512_emit(double* row, double weight, std::uint32_t* state,
            const std::uint32_t* values, std::size_t n) {
  const __m512d w = _mm512_set1_pd(weight);
  std::size_t l = 0;
  for (; l + 8 <= n; l += 8) {
    add_lanes_x8<Distance>(row + l, w, Distance ? state + l : nullptr,
                           values + l, 0xff);
  }
  if (l < n) {
    add_lanes_x8<Distance>(row + l, w, Distance ? state + l : nullptr,
                           values + l,
                           static_cast<__mmask8>((1U << (n - l)) - 1));
  }
}

USCA_AVX512_BODIES_END

void avx512_drive(double* row, double weight, std::uint32_t* state,
                  const std::uint32_t* values, std::size_t n) {
  avx512_emit<true>(row, weight, state, values, n);
}

void avx512_weigh(double* row, double weight, const std::uint32_t* values,
                  std::size_t n) {
  avx512_emit<false>(row, weight, nullptr, values, n);
}

constexpr emit_kernels avx512_set = {"avx512", avx512_drive, avx512_weigh};
#endif // USCA_HAVE_AVX512

} // namespace

const emit_kernels& baseline_emit_kernels() noexcept { return baseline_set; }

const emit_kernels* avx2_emit_kernels() noexcept {
#if USCA_HAVE_AVX2_EMIT
  return __builtin_cpu_supports("avx2") ? &avx2_set : nullptr;
#else
  return nullptr;
#endif
}

const emit_kernels* avx512_emit_kernels() noexcept {
#if USCA_HAVE_AVX512
  return util::cpu_has_avx512() ? &avx512_set : nullptr;
#else
  return nullptr;
#endif
}

const emit_kernels& active_emit_kernels() {
  static const emit_kernels* const active = [] {
    if (const emit_kernels* avx512 = avx512_emit_kernels()) {
      return avx512;
    }
    const emit_kernels* avx2 = avx2_emit_kernels();
    return avx2 != nullptr ? avx2 : &baseline_set;
  }();
  return *active;
}

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
      data_(prog_->data_base, prog_->data.size(), dcache, lanes_),
      state_(lanes_), icache_(icache) {
  for (activity_trace& t : activity_) {
    t.reserve(4096);
  }
  for (std::size_t l = 0; l < lanes_; ++l) {
    data_.memory(l).load(prog_->data_base, prog_->data);
  }
}

void batch_backend::warm_caches() {
  icache_.warm(prog_->code_base, prog_->code.size() * 4 + 4);
  if (!prog_->data.empty()) {
    data_.warm(prog_->data_base, prog_->data.size());
  }
}

const cpu_state& batch_backend::enter_run() noexcept {
  std::array<std::uint64_t, max_batch_lanes> entry;
  for (std::size_t l = 0; l < lanes_; ++l) {
    const cpu_state& st = state_[l];
    for (std::size_t r = 0; r < regs_.size(); ++r) {
      regs_[r][l] = st.regs[r];
    }
    flags_.set_lane(l, st.f);
    entry[l] = (static_cast<std::uint64_t>(st.pc) << 1) | (st.halted ? 1U : 0U);
  }
  data_.enter(active_limit_);
  agree(entry.data());
  return state_[leader()];
}

void batch_backend::store_lanes() {
  for (std::size_t l = 0; l < lanes_; ++l) {
    cpu_state& st = state_[l];
    for (std::size_t r = 0; r < regs_.size(); ++r) {
      st.regs[r] = regs_[r][l];
    }
    st.f = flags_.lane(l);
  }
  data_.leave(active_limit_);
}

void batch_backend::leave_run(std::size_t pc, bool halted) {
  store_lanes();
  for (const std::size_t l : lanes_in(active_mask_)) {
    state_[l].pc = pc;
    state_[l].halted = halted;
  }
}

void batch_backend::reset_lanes() {
  std::size_t bytes = 0;
  const std::size_t sets = icache_.reset() + data_.reset_cache();
  for (std::size_t l = 0; l < lanes_; ++l) {
    mem::memory& m = data_.memory(l);
    bytes += m.reset();
    m.load(prog_->data_base, prog_->data);
    state_[l] = cpu_state{};
    activity_[l].clear();
  }
  note_lane_restore(bytes, sets);
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
      if constexpr (Distance) {
        emit_->drive(row, weight, state, values, n);
      } else {
        emit_->weigh(row, weight, values, n);
      }
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
