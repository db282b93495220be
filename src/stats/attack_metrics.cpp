#include "stats/attack_metrics.h"

#include "util/error.h"

namespace usca::stats {

std::size_t measurements_to_disclosure(
    const std::function<double(std::size_t)>& distinguishing_z,
    double z_threshold, std::size_t start_traces, std::size_t max_traces) {
  if (start_traces == 0 || start_traces > max_traces) {
    throw util::analysis_error(
        "measurements_to_disclosure: invalid search range");
  }
  std::size_t n = start_traces;
  while (n < max_traces && distinguishing_z(n) <= z_threshold) {
    n *= 2;
  }
  if (n >= max_traces) {
    return distinguishing_z(max_traces) > z_threshold ? max_traces
                                                      : max_traces;
  }
  // Refine between n/2 (failed) and n (succeeded) by bisection.
  std::size_t low = n / 2;
  std::size_t high = n;
  while (high - low > std::max<std::size_t>(1, high / 16)) {
    const std::size_t mid = low + (high - low) / 2;
    if (distinguishing_z(mid) > z_threshold) {
      high = mid;
    } else {
      low = mid;
    }
  }
  return high;
}

} // namespace usca::stats
