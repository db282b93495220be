#include "power/noise_kernels.h"

#include <algorithm>
#include <array>

#include "sim/batch_sim.h"
#include "util/avx512.h"
#include "util/polar_log.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define USCA_HAVE_AVX2_NOISE 1
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

// ---------------------------------------------------------------- avx2

#if USCA_HAVE_AVX2_NOISE

#define USCA_AVX2 __attribute__((target("avx2"), always_inline)) inline

/// Four xoshiro256** generators, state word w of generator j in lane j of
/// s[w].
struct xoshiro_x4 {
  __m256i s0, s1, s2, s3;
};

template <int K>
USCA_AVX2 __m256i rotl_x4(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi64(x, K), _mm256_srli_epi64(x, 64 - K));
}

/// xoshiro256::operator() on four generators; AVX2 has no 64-bit
/// multiply, so *5 and *9 are shift-adds (exact modulo 2^64).
USCA_AVX2 __m256i next_x4(xoshiro_x4& g) {
  const __m256i times5 = _mm256_add_epi64(_mm256_slli_epi64(g.s1, 2), g.s1);
  const __m256i rotated = rotl_x4<7>(times5);
  const __m256i result =
      _mm256_add_epi64(_mm256_slli_epi64(rotated, 3), rotated);
  const __m256i t = _mm256_slli_epi64(g.s1, 17);
  g.s2 = _mm256_xor_si256(g.s2, g.s0);
  g.s3 = _mm256_xor_si256(g.s3, g.s1);
  g.s1 = _mm256_xor_si256(g.s1, g.s2);
  g.s0 = _mm256_xor_si256(g.s0, g.s3);
  g.s2 = _mm256_xor_si256(g.s2, t);
  g.s3 = rotl_x4<45>(g.s3);
  return result;
}

/// xoshiro256::next_double on four outputs.  x >> 11 has 53 bits, past
/// the reach of the one-constant 2^52 trick, so it is split at bit 32:
/// 2^84 + hi * 2^32 and 2^52 + lo are exact doubles, and subtracting
/// 2^84 + 2^52 from the first before adding the second leaves exactly
/// (x >> 11), which then scales by 2^-53 without rounding.
USCA_AVX2 __m256d unit_x4(__m256i x) {
  const __m256i magic84 = _mm256_set1_epi64x(0x4530000000000000LL);
  const __m256i magic52 = _mm256_set1_epi64x(0x4330000000000000LL);
  const __m256d magic84_52 = _mm256_set1_pd(0x1.0p84 + 0x1.0p52);
  const __m256i hi = _mm256_srli_epi64(x, 43);
  const __m256i lo = _mm256_and_si256(_mm256_srli_epi64(x, 11),
                                      _mm256_set1_epi64x(0xffffffffLL));
  const __m256d high = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(hi, magic84)), magic84_52);
  const __m256d whole =
      _mm256_add_pd(high, _mm256_castsi256_pd(_mm256_or_si256(lo, magic52)));
  return _mm256_mul_pd(whole, _mm256_set1_pd(0x1.0p-53));
}

/// 2.0 * next_double() - 1.0, multiply and subtract rounded apart.
USCA_AVX2 __m256d signed_unit_x4(xoshiro_x4& g) {
  return _mm256_sub_pd(_mm256_mul_pd(_mm256_set1_pd(2.0), unit_x4(next_x4(g))),
                       _mm256_set1_pd(1.0));
}

/// Sample i of every real lane of a group: the lanes' clean values at
/// row i plus sigma times their deviates.
USCA_AVX2 void emit_x4(const noise_columns& job, std::size_t i,
                       __m256i index, const std::array<std::size_t, 4>& lane,
                       std::size_t real, __m256d deviate) {
  const __m256d clean =
      _mm256_i64gather_pd(job.clean + i * job.stride, index, 8);
  alignas(32) double sample[4] = {};
  _mm256_store_pd(sample,
                  _mm256_add_pd(clean, _mm256_mul_pd(_mm256_set1_pd(job.sigma),
                                                     deviate)));
  for (std::size_t j = 0; j < real; ++j) {
    job.out[lane[j]][i] = sample[j];
  }
}

#undef USCA_AVX2

__attribute__((target("avx2"))) noise_work
avx2_add_columns(const noise_columns& job, noise_workspace& ws) {
  noise_work work;
  const std::size_t pairs = (job.samples + 1) / 2;
  // Slot p * 4 + j holds candidate p of group lane j; one spare pair per
  // lane takes the writes of a lane that already has all its pairs.
  const std::size_t slots = (pairs + 1) * 4;
  for (std::vector<double>* buffer : {&ws.u, &ws.v, &ws.s}) {
    if (buffer->size() < slots) {
      buffer->resize(slots);
    }
  }
  std::array<std::size_t, sim::max_batch_lanes> ids{};
  std::size_t n = 0;
  for (const std::size_t lane : sim::lanes_in(job.lanes)) {
    ids[n++] = lane;
  }

  for (std::size_t first = 0; first < n; first += 4) {
    // Group of up to four lanes; padding slots repeat the first lane and
    // need no pairs, so they never accept and are never written out.
    const std::size_t real = std::min<std::size_t>(4, n - first);
    std::array<std::size_t, 4> lane{};
    std::array<std::size_t, 4> need{};
    alignas(32) std::array<std::array<std::uint64_t, 4>, 4> words{};
    for (std::size_t j = 0; j < 4; ++j) {
      lane[j] = ids[first + (j < real ? j : 0)];
      need[j] = j < real ? pairs : 0;
      const util::xoshiro256 seeded(job.seeds[lane[j]]);
      for (std::size_t w = 0; w < 4; ++w) {
        words[w][j] = seeded.state()[w];
      }
    }
    const auto* word = reinterpret_cast<const __m256i*>(words.data());
    xoshiro_x4 gen{_mm256_load_si256(word), _mm256_load_si256(word + 1),
                   _mm256_load_si256(word + 2), _mm256_load_si256(word + 3)};

    // Candidates: draw u then v per lane, exactly as next_gaussian does,
    // and append each lane's accepted (u, v, s) at its own count.
    std::array<std::size_t, 4> count{};
    std::array<std::size_t, 4> consumed{};
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d zero = _mm256_setzero_pd();
    while (count[0] < need[0] || count[1] < need[1] || count[2] < need[2] ||
           count[3] < need[3]) {
      const __m256d u = signed_unit_x4(gen);
      const __m256d v = signed_unit_x4(gen);
      const __m256d s =
          _mm256_add_pd(_mm256_mul_pd(u, u), _mm256_mul_pd(v, v));
      const int accept = _mm256_movemask_pd(
          _mm256_and_pd(_mm256_cmp_pd(s, one, _CMP_LT_OQ),
                        _mm256_cmp_pd(s, zero, _CMP_NEQ_OQ)));
      alignas(32) double tu[4] = {};
      alignas(32) double tv[4] = {};
      alignas(32) double ts[4] = {};
      _mm256_store_pd(tu, u);
      _mm256_store_pd(tv, v);
      _mm256_store_pd(ts, s);
      for (std::size_t j = 0; j < 4; ++j) {
        const std::size_t at = count[j] * 4 + j;
        ws.u[at] = tu[j];
        ws.v[at] = tv[j];
        ws.s[at] = ts[j];
        const std::size_t open = count[j] < need[j] ? 1 : 0;
        consumed[j] += open;
        count[j] += open & static_cast<std::size_t>((accept >> j) & 1);
      }
    }

    for (std::size_t j = 0; j < real; ++j) {
      work.deviates += job.samples;
      work.candidates += consumed[j];
    }

    // factor = sqrt(-2 log s / s); sample = clean + sigma * (u * factor)
    // for the even sample of the pair, v for the odd one.  Padding lanes
    // take the log of whatever their slots hold and are never written out.
    const __m256i index = _mm256_set_epi64x(
        static_cast<long long>(lane[3]), static_cast<long long>(lane[2]),
        static_cast<long long>(lane[1]), static_cast<long long>(lane[0]));
    const __m256d minus_two = _mm256_set1_pd(-2.0);
    for (std::size_t p = 0; p < pairs; ++p) {
      const __m256d s = _mm256_loadu_pd(ws.s.data() + p * 4);
      const __m256d factor = _mm256_sqrt_pd(_mm256_div_pd(
          _mm256_mul_pd(minus_two, util::polar_log_x4(s)), s));
      emit_x4(job, 2 * p, index, lane, real,
              _mm256_mul_pd(_mm256_loadu_pd(ws.u.data() + p * 4), factor));
      if (2 * p + 1 < job.samples) {
        emit_x4(job, 2 * p + 1, index, lane, real,
                _mm256_mul_pd(_mm256_loadu_pd(ws.v.data() + p * 4), factor));
      }
    }
  }
  return work;
}

constexpr noise_kernels avx2_set = {"avx2", avx2_add_columns};

#endif // USCA_HAVE_AVX2_NOISE

// -------------------------------------------------------------- avx512

#if USCA_HAVE_AVX512
USCA_AVX512_BODIES_BEGIN

#define USCA_AVX512_INLINE \
  __attribute__((target(USCA_AVX512_TARGET), always_inline)) inline

using util::add_x8;
using util::mul_x8;
using util::sub_x8;

/// Eight xoshiro256** generators, state word w of generator j in lane j
/// of s[w].
struct xoshiro_x8 {
  __m512i s0, s1, s2, s3;
};

/// xoshiro256::operator() on eight generators: *5 and *9 as shift-adds
/// (cheaper than vpmullq), the rotates native.
USCA_AVX512_INLINE __m512i next_x8(xoshiro_x8& g) {
  const __m512i times5 = _mm512_add_epi64(_mm512_slli_epi64(g.s1, 2), g.s1);
  const __m512i rotated = _mm512_rol_epi64(times5, 7);
  const __m512i result =
      _mm512_add_epi64(_mm512_slli_epi64(rotated, 3), rotated);
  const __m512i t = _mm512_slli_epi64(g.s1, 17);
  g.s2 = _mm512_xor_si512(g.s2, g.s0);
  g.s3 = _mm512_xor_si512(g.s3, g.s1);
  g.s1 = _mm512_xor_si512(g.s1, g.s2);
  g.s0 = _mm512_xor_si512(g.s0, g.s3);
  g.s2 = _mm512_xor_si512(g.s2, t);
  g.s3 = _mm512_rol_epi64(g.s3, 45);
  return result;
}

/// 2.0 * next_double() - 1.0 on eight outputs.  x >> 11 has 53 bits, so
/// vcvtuqq2pd converts it exactly and the 2^-53 scale is exact; the
/// multiply by 2 and the subtract round apart.
USCA_AVX512_INLINE __m512d signed_unit_x8(xoshiro_x8& g) {
  const __m512d unit =
      mul_x8(_mm512_cvtepu64_pd(_mm512_srli_epi64(next_x8(g), 11)),
             _mm512_set1_pd(0x1.0p-53));
  return sub_x8(mul_x8(_mm512_set1_pd(2.0), unit), _mm512_set1_pd(1.0));
}

/// Sample i of every real lane of a group: the lanes' clean values at
/// row i plus sigma times their deviates, scattered to the lanes' output
/// rows (`row` holds each lane's out pointer plus i doubles, as bytes).
/// `column` holds the lanes' tile columns; when they are adjacent,
/// `first` is the lowest and one masked load reads them.
USCA_AVX512_INLINE void emit_x8(const noise_columns& job, std::size_t i,
                         __m512i column, const double* first, __m512i row,
                         __mmask8 real, __m512d deviate) {
  const double* clean_row = job.clean + i * job.stride;
  const __m512d clean =
      first != nullptr
          ? _mm512_maskz_loadu_pd(real, clean_row + (first - job.clean))
          : _mm512_i64gather_pd(column, clean_row, 8);
  _mm512_mask_i64scatter_pd(
      nullptr, real, row,
      add_x8(clean, mul_x8(_mm512_set1_pd(job.sigma), deviate)), 1);
}

#undef USCA_AVX512_INLINE

__attribute__((target(USCA_AVX512_TARGET))) noise_work
avx512_add_columns(const noise_columns& job, noise_workspace& ws) {
  noise_work work;
  const std::size_t pairs = (job.samples + 1) / 2;
  // Slot p * 8 + j holds candidate p of group lane j.  Only open lanes
  // (fewer than `pairs` accepted) write, so no spare pair is needed.
  const std::size_t slots = pairs * 8;
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

  const __m512i group_lane = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  const __m512i one = _mm512_set1_epi64(1);
  for (std::size_t first = 0; first < n; first += 8) {
    // Group of up to eight lanes; padding slots repeat the first lane,
    // need no pairs and are masked out of every store.
    const std::size_t real = std::min<std::size_t>(8, n - first);
    const auto real_lanes = static_cast<__mmask8>((1U << real) - 1);
    alignas(64) std::array<std::array<std::uint64_t, 8>, 4> words{};
    alignas(64) std::array<std::uint64_t, 8> column{};
    alignas(64) std::array<std::uint64_t, 8> out{};
    for (std::size_t j = 0; j < 8; ++j) {
      const std::size_t lane = ids[first + (j < real ? j : 0)];
      column[j] = lane;
      out[j] = reinterpret_cast<std::uintptr_t>(job.out[lane]);
      const util::xoshiro256 seeded(job.seeds[lane]);
      for (std::size_t w = 0; w < 4; ++w) {
        words[w][j] = seeded.state()[w];
      }
    }
    xoshiro_x8 gen{_mm512_load_si512(words[0].data()),
                   _mm512_load_si512(words[1].data()),
                   _mm512_load_si512(words[2].data()),
                   _mm512_load_si512(words[3].data())};

    // Candidates: draw u then v per lane, exactly as next_gaussian does,
    // and scatter each open lane's (u, v) to its slot at its own count; a
    // rejected candidate is overwritten by the lane's next one.
    const __m512i need = _mm512_maskz_set1_epi64(
        real_lanes, static_cast<long long>(pairs));
    __m512i count = _mm512_setzero_si512();
    __m512i consumed = _mm512_setzero_si512();
    const __m512d unit = _mm512_set1_pd(1.0);
    const __m512d zero = _mm512_setzero_pd();
    for (__mmask8 open = _mm512_cmplt_epu64_mask(count, need); open != 0;
         open = _mm512_cmplt_epu64_mask(count, need)) {
      const __m512d u = signed_unit_x8(gen);
      const __m512d v = signed_unit_x8(gen);
      const __m512d s = add_x8(mul_x8(u, u), mul_x8(v, v));
      const __mmask8 accept = _mm512_cmp_pd_mask(s, unit, _CMP_LT_OQ) &
                              _mm512_cmp_pd_mask(s, zero, _CMP_NEQ_OQ);
      const __m512i at =
          _mm512_add_epi64(_mm512_slli_epi64(count, 3), group_lane);
      _mm512_mask_i64scatter_pd(ws.u.data(), open, at, u, 8);
      _mm512_mask_i64scatter_pd(ws.v.data(), open, at, v, 8);
      consumed = _mm512_mask_add_epi64(consumed, open, consumed, one);
      count = _mm512_mask_add_epi64(count, open & accept, count, one);
    }

    work.deviates += job.samples * real;
    work.candidates +=
        static_cast<std::uint64_t>(_mm512_reduce_add_epi64(consumed));

    // s = u*u + v*v is recomputed from the accepted (u, v), the same
    // operations on the same values, rather than scattered with them;
    // factor = sqrt(-2 log s / s); sample = clean + sigma * (u * factor)
    // for the even sample of the pair, v for the odd one.  Padding lanes
    // read the first lane's column and are never stored.
    const __m512i lanes = _mm512_load_si512(column.data());
    const double* adjacent = column[real - 1] - column[0] == real - 1
                                 ? job.clean + column[0]
                                 : nullptr;
    __m512i row = _mm512_load_si512(out.data());
    const __m512i next_row = _mm512_set1_epi64(sizeof(double));
    const __m512d minus_two = _mm512_set1_pd(-2.0);
    for (std::size_t p = 0; p < pairs; ++p) {
      const __m512d u = _mm512_loadu_pd(ws.u.data() + p * 8);
      const __m512d v = _mm512_loadu_pd(ws.v.data() + p * 8);
      const __m512d s = add_x8(mul_x8(u, u), mul_x8(v, v));
      const __m512d factor = _mm512_sqrt_pd(
          _mm512_div_pd(mul_x8(minus_two, util::polar_log_x8(s)), s));
      emit_x8(job, 2 * p, lanes, adjacent, row, real_lanes,
              mul_x8(u, factor));
      row = _mm512_add_epi64(row, next_row);
      if (2 * p + 1 < job.samples) {
        emit_x8(job, 2 * p + 1, lanes, adjacent, row, real_lanes,
                mul_x8(v, factor));
        row = _mm512_add_epi64(row, next_row);
      }
    }
  }
  return work;
}

USCA_AVX512_BODIES_END

constexpr noise_kernels avx512_set = {"avx512", avx512_add_columns};

#endif // USCA_HAVE_AVX512

const noise_kernels* auto_kernels() noexcept {
#if USCA_HAVE_AVX512
  if (util::cpu_has_avx512()) {
    return &avx512_set;
  }
#endif
#if USCA_HAVE_AVX2_NOISE
  if (__builtin_cpu_supports("avx2")) {
    return &avx2_set;
  }
#endif
  return &scalar_set;
}

} // namespace

const noise_kernels& scalar_noise_kernels() noexcept { return scalar_set; }

const noise_kernels* avx2_noise_kernels() noexcept {
#if USCA_HAVE_AVX2_NOISE
  return __builtin_cpu_supports("avx2") ? &avx2_set : nullptr;
#else
  return nullptr;
#endif
}

const noise_kernels* avx512_noise_kernels() noexcept {
#if USCA_HAVE_AVX512
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
