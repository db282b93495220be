#include "util/crc32.h"

#include <array>

#if defined(__x86_64__) && defined(__GNUC__)
#define USCA_HAVE_CLMUL_CRC 1
#include <immintrin.h>
#endif

namespace usca::util {

namespace {

// Both kernels work on the raw CRC register — the complement of the
// public value — so crc32() complements once on entry and once on exit
// and the kernels chain without it.
using kernel_fn = std::uint32_t (*)(std::uint32_t, const unsigned char*,
                                    std::size_t) noexcept;

using crc_tables = std::array<std::array<std::uint32_t, 256>, 16>;

// tables[0] is the classic byte table.  tables[k][b] is the register
// contribution of byte b followed by k zero bytes, so a 16-byte block
// folds in with one lookup per byte, indexed by how many bytes follow.
constexpr crc_tables make_tables() noexcept {
  crc_tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr crc_tables tables = make_tables();

/// Little-endian 32-bit load, whatever the host byte order.
std::uint32_t load_le32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint32_t slice(std::size_t table, std::uint32_t word) noexcept {
  return tables[table + 3][word & 0xffu] ^
         tables[table + 2][(word >> 8) & 0xffu] ^
         tables[table + 1][(word >> 16) & 0xffu] ^
         tables[table][word >> 24];
}

std::uint32_t portable_update(std::uint32_t crc, const unsigned char* p,
                              std::size_t n) noexcept {
  for (; n >= 16; p += 16, n -= 16) {
    crc = slice(12, crc ^ load_le32(p)) ^ slice(8, load_le32(p + 4)) ^
          slice(4, load_le32(p + 8)) ^ slice(0, load_le32(p + 12));
  }
  for (; n > 0; ++p, --n) {
    crc = tables[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  }
  return crc;
}

#if USCA_HAVE_CLMUL_CRC

/// One fold step: carries `x` forward by the distance `k` encodes and
/// adds the block found there.
__attribute__((target("pclmul"))) __m128i fold(__m128i x, __m128i k,
                                               __m128i next) noexcept {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009) with
// the bit-reflected constants for 0xEDB88320: k1/k2 carry a 128-bit
// lane 512 bits forward, k3/k4 carry it 128 bits forward, k5 reduces
// 64 bits to 32 plus a 32-bit carry, and (P, mu) drive the final
// Barrett reduction.  Every load is a full 16 bytes inside the input:
// the kernel consumes whole 16-byte blocks and leaves the tail to the
// table kernel.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t
clmul_update(std::uint32_t crc, const unsigned char* p,
             std::size_t n) noexcept {
  if (n < 64) {
    return portable_update(crc, p, n);
  }
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  const auto load = [](const unsigned char* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };

  __m128i x0 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = fold(x0, k1k2, load(p));
    x1 = fold(x1, k1k2, load(p + 16));
    x2 = fold(x2, k1k2, load(p + 32));
    x3 = fold(x3, k1k2, load(p + 48));
  }
  x0 = fold(x0, k3k4, x1);
  x0 = fold(x0, k3k4, x2);
  x0 = fold(x0, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) {
    x0 = fold(x0, k3k4, load(p));
  }

  // 128 -> 64 bits, then 64 -> 32 + 32.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5,
                                          0x00));
  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  crc = static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x0, t), 1));
  return portable_update(crc, p, n);
}

#endif // USCA_HAVE_CLMUL_CRC

struct crc_kernel {
  const char* name;
  kernel_fn update;
};

crc_kernel select_kernel() noexcept {
#if USCA_HAVE_CLMUL_CRC
  __builtin_cpu_init();
  if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1")) {
    return {"clmul", clmul_update};
  }
#endif
  return {"portable", portable_update};
}

const crc_kernel& active_kernel() noexcept {
  static const crc_kernel kernel = select_kernel();
  return kernel;
}

} // namespace

std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed) noexcept {
  return ~active_kernel().update(
      ~seed, static_cast<const unsigned char*>(data), size);
}

std::uint32_t crc32_portable(const void* data, std::size_t size,
                             std::uint32_t seed) noexcept {
  return ~portable_update(~seed, static_cast<const unsigned char*>(data),
                          size);
}

const char* crc32_kernel() noexcept { return active_kernel().name; }

} // namespace usca::util
