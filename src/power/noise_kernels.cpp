#include "power/noise_kernels.h"

#include <algorithm>
#include <array>

#include "sim/batch_sim.h"
#include "util/avx512.h"
#include "util/polar_log.h"

// The vector sets are one template instantiated under `#pragma GCC
// target`, which GCC also applies to a template's explicit
// instantiation; a Clang build runs the scalar set.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define USCA_HAVE_VECTOR_NOISE 1
#include <immintrin.h>
#endif

USCA_FP_CONTRACT_OFF

namespace usca::power {

namespace {

// -------------------------------------------------------------- scalar

noise_work scalar_add_columns(const noise_columns& job, noise_workspace&) {
  noise_work work;
  util::xoshiro256 rng;
  for (const std::size_t lane : sim::lanes_in(job.lanes)) {
    rng.seed(job.seeds[lane]);
    add_gaussian(job.clean + lane, job.stride, job.samples, job.sigma, rng,
                 job.out[lane]);
    work.deviates += rng.gaussian_deviates();
    work.candidates += rng.gaussian_candidates();
  }
  return work;
}

constexpr noise_kernels scalar_set = {"scalar", scalar_add_columns};

#if USCA_HAVE_VECTOR_NOISE

// ------------------------------------------------------ the vector body
//
// One body for every vector set, add_columns<L>, over a lane type L:
// L::width lanes per group, L::f64 and L::u64 GCC vectors of that many
// doubles and 64-bit words, and the primitives GCC cannot write, or
// writes badly, as a few intrinsics each: sqrt, compare-to-mask,
// any-lane, the open-lane scatter of candidates, the clean-row load, the
// output scatter and u64 -> double.  Everything else — the xoshiro
// step, 2u - 1, u*u + v*v, the acceptance counts and the pair loop — is
// written once below.  Each set instantiates the body inside a
// `#pragma GCC target` region together with its primitives, so the body
// and everything it inlines compile for that set's ISA and no vector
// crosses a target boundary (util/polar_log.h).

// The helpers are default-target templates that return vectors by
// value.  They are always_inline, so no call passes a vector across
// the ABI -Wpsabi warns about; GCC reports it at the end of the file,
// where it instantiates templates, so it is off from here on.
#pragma GCC diagnostic ignored "-Wpsabi"

/// xoshiro256** generators side by side: lane j of s0..s3 holds the four
/// state words of generator j.
template <class L> struct xoshiro_lanes {
  typename L::u64 s0, s1, s2, s3;
};

template <class U> [[gnu::always_inline]] inline U rotl(const U& x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// xoshiro256::operator() on every lane; *5 and *9 as shift-adds (exact
/// modulo 2^64, and cheaper than a 64-bit vector multiply).
template <class L>
[[gnu::always_inline]] inline typename L::u64 next(xoshiro_lanes<L>& g) {
  const typename L::u64 times5 = (g.s1 << 2) + g.s1;
  const typename L::u64 rotated = rotl(times5, 7);
  const typename L::u64 result = (rotated << 3) + rotated;
  const typename L::u64 t = g.s1 << 17;
  g.s2 ^= g.s0;
  g.s3 ^= g.s1;
  g.s1 ^= g.s2;
  g.s0 ^= g.s3;
  g.s2 ^= t;
  g.s3 = rotl(g.s3, 45);
  return result;
}

template <class L>
noise_work add_columns(const noise_columns& job, noise_workspace& ws) {
  using f64 = typename L::f64;
  using u64 = typename L::u64;
  constexpr std::size_t width = L::width;
  noise_work work;
  const std::size_t pairs = (job.samples + 1) / 2;
  // Slot p * width + j holds candidate p of group lane j; one spare pair
  // per lane takes the writes of a lane that already has all its pairs,
  // where the scatter writes closed lanes.
  const std::size_t slots = (pairs + 1) * width;
  for (std::vector<double>* buffer : {&ws.u, &ws.v}) {
    if (buffer->size() < slots) {
      buffer->resize(slots);
    }
  }
  std::array<std::size_t, sim::max_batch_lanes> ids{};
  std::size_t n = 0;
  for (const std::size_t lane : sim::lanes_in(job.lanes)) {
    ids[n++] = lane;
  }

  for (std::size_t first = 0; first < n; first += width) {
    // Group of up to `width` lanes; padding lanes repeat the first lane,
    // need no pairs, and are never stored.
    const std::size_t real = std::min(width, n - first);
    u64 group_lane{};
    u64 need{};
    u64 column{};
    std::array<double*, width> out{};
    xoshiro_lanes<L> gen{};
    for (std::size_t j = 0; j < width; ++j) {
      const std::size_t lane = ids[first + (j < real ? j : 0)];
      group_lane[j] = j;
      need[j] = j < real ? pairs : 0;
      column[j] = lane;
      out[j] = job.out[lane];
      const util::xoshiro256 seeded(job.seeds[lane]);
      gen.s0[j] = seeded.state()[0];
      gen.s1[j] = seeded.state()[1];
      gen.s2[j] = seeded.state()[2];
      gen.s3[j] = seeded.state()[3];
    }

    // Candidates: draw u then v per lane, exactly as next_gaussian does,
    // and write each open lane's (u, v) to its slot at its own count; a
    // rejected candidate is overwritten by the lane's next one.  Each is
    // 2.0 * next_double() - 1.0: x >> 11 has 53 bits, so it converts
    // exactly and the 2^-53 scale is exact; the multiply by 2 and the
    // subtract round apart.  Masks are all-ones lanes, so subtracting one
    // adds 1 where it is set.
    u64 count{};
    u64 consumed{};
    for (u64 open = L::less(count, need); L::any(open);
         open = L::less(count, need)) {
      const f64 u = 2.0 * (L::to_double(next(gen) >> 11) * 0x1.0p-53) - 1.0;
      const f64 v = 2.0 * (L::to_double(next(gen) >> 11) * 0x1.0p-53) - 1.0;
      const f64 s = u * u + v * v;
      const u64 accept = L::less(s, f64{} + 1.0) & L::differ(s, f64{});
      L::scatter(ws.u.data(), ws.v.data(), count * width + group_lane, open,
                 u, v);
      consumed -= open;
      count -= open & accept;
    }

    work.deviates += job.samples * real;
    for (std::size_t j = 0; j < width; ++j) {
      work.candidates += consumed[j];
    }

    // s = u*u + v*v is recomputed from the accepted (u, v), the same
    // operations on the same values; factor = sqrt(-2 log s / s);
    // sample = clean + sigma * (u * factor) for the even sample of the
    // pair, v for the odd one.  Padding lanes compute on whatever their
    // slots hold and are never stored.
    const bool adjacent = column[real - 1] - column[0] == real - 1;
    for (std::size_t p = 0; p < pairs; ++p) {
      f64 u;
      f64 v;
      __builtin_memcpy(&u, ws.u.data() + p * width, sizeof(u));
      __builtin_memcpy(&v, ws.v.data() + p * width, sizeof(v));
      const f64 s = u * u + v * v;
      f64 log_s;
      util::polar_log_lanes(s, log_s);
      const f64 factor = L::sqrt(-2.0 * log_s / s);
      const std::size_t i = 2 * p;
      L::store_rows(out.data(), i, real,
                    L::load_row(job.clean + i * job.stride, column, real,
                                adjacent) +
                        job.sigma * (u * factor));
      if (i + 1 < job.samples) {
        L::store_rows(out.data(), i + 1, real,
                      L::load_row(job.clean + (i + 1) * job.stride, column,
                                  real, adjacent) +
                          job.sigma * (v * factor));
      }
    }
  }
  return work;
}

#define USCA_PRAGMA(x) _Pragma(#x)
/// Functions defined, and templates explicitly instantiated, between
/// USCA_TARGET_BEGIN(isa) and USCA_TARGET_END compile for `isa`.
#define USCA_TARGET_BEGIN(isa)                                                \
  _Pragma("GCC push_options") USCA_PRAGMA(GCC target(isa))
#define USCA_TARGET_END _Pragma("GCC pop_options")

// ---------------------------------------------------------------- avx2

USCA_TARGET_BEGIN("avx2")

/// Four lanes per group.
struct avx2_lanes {
  static constexpr std::size_t width = 4;
  using f64 = double __attribute__((vector_size(32)));
  using u64 = std::uint64_t __attribute__((vector_size(32)));

  [[gnu::always_inline]] static f64 sqrt(f64 x) {
    return _mm256_sqrt_pd(x);
  }
  [[gnu::always_inline]] static u64 less(f64 a, f64 b) {
    return u64(_mm256_cmp_pd(a, b, _CMP_LT_OQ));
  }
  [[gnu::always_inline]] static u64 differ(f64 a, f64 b) {
    return u64(_mm256_cmp_pd(a, b, _CMP_NEQ_OQ));
  }
  /// Counts stay below 2^63, so the signed compare is exact.
  [[gnu::always_inline]] static u64 less(u64 a, u64 b) {
    return u64(_mm256_cmpgt_epi64(__m256i(b), __m256i(a)));
  }
  [[gnu::always_inline]] static bool any(u64 mask) {
    return _mm256_testz_si256(__m256i(mask), __m256i(mask)) == 0;
  }
  /// Every lane writes (u, v) at its slot; a closed lane's slot is in
  /// its spare pair or, for a padding lane, a slot never stored.
  [[gnu::always_inline]] static void scatter(double* u_slots,
                                             double* v_slots, u64 at, u64,
                                             f64 u, f64 v) {
    for (std::size_t j = 0; j < width; ++j) {
      u_slots[at[j]] = u[j];
      v_slots[at[j]] = v[j];
    }
  }
  /// The first `real` lanes' clean values in `row`, at their columns.
  [[gnu::always_inline]] static f64 load_row(const double* row, u64 column,
                                             std::size_t real,
                                             bool adjacent) {
    const __m256i lanes = _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(real)),
        _mm256_set_epi64x(3, 2, 1, 0));
    return adjacent ? _mm256_maskload_pd(row + column[0], lanes)
                    : _mm256_i64gather_pd(row, __m256i(column), 8);
  }
  /// Sample i of the first `real` lanes' output rows.
  [[gnu::always_inline]] static void store_rows(double* const* out,
                                                std::size_t i,
                                                std::size_t real,
                                                f64 sample) {
    for (std::size_t j = 0; j < real; ++j) {
      out[j][i] = sample[j];
    }
  }
  /// Exact for x < 2^53.  AVX2 has no u64 -> double, and x is past the
  /// reach of the one-constant 2^52 trick, so it is split at bit 32:
  /// 2^84 + hi * 2^32 and 2^52 + lo are exact doubles, and subtracting
  /// 2^84 + 2^52 from the first before adding the second leaves exactly x.
  [[gnu::always_inline]] static f64 to_double(u64 x) {
    const f64 high = f64((x >> 32) | 0x4530000000000000ULL) -
                     (0x1.0p84 + 0x1.0p52);
    return high + f64((x & 0xffffffffULL) | 0x4330000000000000ULL);
  }
};

template noise_work add_columns<avx2_lanes>(const noise_columns&,
                                            noise_workspace&);

USCA_TARGET_END

constexpr noise_kernels avx2_set = {"avx2", add_columns<avx2_lanes>};

// -------------------------------------------------------------- avx512

USCA_AVX512_BODIES_BEGIN
USCA_TARGET_BEGIN(USCA_AVX512_TARGET)

/// Eight lanes per group: native compares into mask registers, masked
/// scatters, and an exact vcvtuqq2pd.
struct avx512_lanes {
  static constexpr std::size_t width = 8;
  using f64 = double __attribute__((vector_size(64)));
  using u64 = std::uint64_t __attribute__((vector_size(64)));

  [[gnu::always_inline]] static __mmask8 mask_of(u64 lanes) {
    return _mm512_test_epi64_mask(__m512i(lanes), __m512i(lanes));
  }
  [[gnu::always_inline]] static f64 sqrt(f64 x) {
    return _mm512_sqrt_pd(x);
  }
  [[gnu::always_inline]] static u64 less(f64 a, f64 b) {
    return u64(_mm512_movm_epi64(_mm512_cmp_pd_mask(a, b, _CMP_LT_OQ)));
  }
  [[gnu::always_inline]] static u64 differ(f64 a, f64 b) {
    return u64(_mm512_movm_epi64(_mm512_cmp_pd_mask(a, b, _CMP_NEQ_OQ)));
  }
  [[gnu::always_inline]] static u64 less(u64 a, u64 b) {
    return u64(_mm512_movm_epi64(_mm512_cmplt_epu64_mask(__m512i(a),
                                                         __m512i(b))));
  }
  [[gnu::always_inline]] static bool any(u64 mask) {
    return mask_of(mask) != 0;
  }
  /// Only open lanes write, so the spare pair stays untouched.
  [[gnu::always_inline]] static void scatter(double* u_slots,
                                             double* v_slots, u64 at,
                                             u64 open, f64 u, f64 v) {
    _mm512_mask_i64scatter_pd(u_slots, mask_of(open), __m512i(at), u, 8);
    _mm512_mask_i64scatter_pd(v_slots, mask_of(open), __m512i(at), v, 8);
  }
  /// Lanes 0 .. real - 1.
  [[gnu::always_inline]] static __mmask8 first(std::size_t real) {
    return static_cast<__mmask8>((1U << real) - 1);
  }
  [[gnu::always_inline]] static f64 load_row(const double* row, u64 column,
                                             std::size_t real,
                                             bool adjacent) {
    return adjacent ? _mm512_maskz_loadu_pd(first(real), row + column[0])
                    : _mm512_i64gather_pd(__m512i(column), row, 8);
  }
  [[gnu::always_inline]] static void store_rows(double* const* out,
                                                std::size_t i,
                                                std::size_t real,
                                                f64 sample) {
    const __m512i rows = _mm512_add_epi64(
        _mm512_loadu_si512(out),
        _mm512_set1_epi64(static_cast<long long>(i * sizeof(double))));
    _mm512_mask_i64scatter_pd(nullptr, first(real), rows, sample, 1);
  }
  [[gnu::always_inline]] static f64 to_double(u64 x) {
    return _mm512_cvtepu64_pd(__m512i(x));
  }
};

template noise_work add_columns<avx512_lanes>(const noise_columns&,
                                              noise_workspace&);

USCA_TARGET_END
USCA_AVX512_BODIES_END

constexpr noise_kernels avx512_set = {"avx512", add_columns<avx512_lanes>};

#endif // USCA_HAVE_VECTOR_NOISE

const noise_kernels* auto_kernels() noexcept {
#if USCA_HAVE_VECTOR_NOISE
  if (util::cpu_has_avx512()) {
    return &avx512_set;
  }
  if (__builtin_cpu_supports("avx2")) {
    return &avx2_set;
  }
#endif
  return &scalar_set;
}

} // namespace

const noise_kernels& scalar_noise_kernels() noexcept { return scalar_set; }

const noise_kernels* avx2_noise_kernels() noexcept {
#if USCA_HAVE_VECTOR_NOISE
  return __builtin_cpu_supports("avx2") ? &avx2_set : nullptr;
#else
  return nullptr;
#endif
}

const noise_kernels* avx512_noise_kernels() noexcept {
#if USCA_HAVE_VECTOR_NOISE
  return util::cpu_has_avx512() ? &avx512_set : nullptr;
#else
  return nullptr;
#endif
}

const noise_kernels& active_noise_kernels() {
  static const noise_kernels* const active = auto_kernels();
  return *active;
}

} // namespace usca::power
