#include "util/rng.h"

#include <cmath>

#include "util/polar_log.h"

USCA_FP_CONTRACT_OFF

namespace usca::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

} // namespace

xoshiro256::xoshiro256(std::uint64_t seed) noexcept { this->seed(seed); }

void xoshiro256::seed(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : state_) {
    word = splitmix64(sm);
  }
  has_cached_gaussian_ = false;
  cached_gaussian_ = 0.0;
  gaussian_deviates_ = 0;
  gaussian_candidates_ = 0;
}

xoshiro256::result_type xoshiro256::operator()() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t xoshiro256::bounded(std::uint64_t bound) noexcept {
  if (bound == 0) {
    return 0;
  }
  // Lemire's nearly-divisionless method, 64x64->128 bit.
  using u128 = unsigned __int128;
  std::uint64_t x = operator()();
  u128 m = static_cast<u128>(x) * static_cast<u128>(bound);
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = operator()();
      m = static_cast<u128>(x) * static_cast<u128>(bound);
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double xoshiro256::next_double() noexcept {
  // 53 high bits -> [0,1) with full double precision.
  return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
}

double xoshiro256::next_gaussian() noexcept {
  ++gaussian_deviates_;
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    ++gaussian_candidates_;
    u = 2.0 * next_double() - 1.0;
    v = 2.0 * next_double() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * polar_log(s) / s);
  cached_gaussian_ = v * factor;
  has_cached_gaussian_ = true;
  return u * factor;
}

} // namespace usca::util
