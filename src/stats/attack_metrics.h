// Attack-quality metric: measurements-to-disclosure.
//
// The paper reports single campaigns; this estimator quantifies how many
// traces an attack needs, which the extension bench
// (measurements-to-disclosure scaling) builds on.  It takes a callable
// so it composes with any campaign construction.
#ifndef USCA_STATS_ATTACK_METRICS_H
#define USCA_STATS_ATTACK_METRICS_H

#include <cstdint>
#include <functional>

namespace usca::stats {

/// Smallest trace count at which `distinguishing_z(n)` exceeds the
/// `confidence` z-threshold, searched over doubling steps up to
/// `max_traces`; returns max_traces when never reached.  The z function
/// is expected to be (noisily) increasing in n.
std::size_t measurements_to_disclosure(
    const std::function<double(std::size_t)>& distinguishing_z,
    double z_threshold, std::size_t start_traces, std::size_t max_traces);

} // namespace usca::stats

#endif // USCA_STATS_ATTACK_METRICS_H
