#include "util/polar_log.h"

#include <bit>

USCA_FP_CONTRACT_OFF

namespace usca::util {

double polar_log(double x) noexcept {
  namespace c = polar_log_constants;
  const auto bits = std::bit_cast<std::uint64_t>(x);
  const std::uint64_t mantissa = bits & c::mantissa_mask;
  const std::uint64_t halve = (mantissa + c::sqrt2_carry) & c::exponent_one;
  const double m = std::bit_cast<double>(mantissa | (halve ^ c::one_bits));
  const auto biased = static_cast<std::int64_t>((bits >> 52) + (halve >> 52));
  const auto k = static_cast<double>(biased - 1023);

  const double f = m - 1.0;
  const double hfsq = 0.5 * f * f;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double z2 = z * z;
  const double z4 = z2 * z2;
  // Estrin's scheme, in the order of polar_log_x4 and polar_log_x8.
  const double p12 = c::c1 + z * c::c2;
  const double p34 = c::c3 + z * c::c4;
  const double p56 = c::c5 + z * c::c6;
  const double p78 = c::c7 + z * c::c8;
  const double p910 = c::c9 + z * c::c10;
  const double low = p12 + z2 * p34;
  const double high = p56 + z2 * p78;
  const double r = z * (low + z4 * (high + z4 * p910));

  const double tail = s * (hfsq + r) + k * c::ln2_lo;
  return k * c::ln2_hi - ((hfsq - tail) - f);
}

} // namespace usca::util
