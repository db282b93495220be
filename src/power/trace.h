// Power trace type.
//
// A trace is one power sample per clock cycle (the paper samples at
// 500 MS/s with the core at 120 MHz and averages; one sample per cycle is
// the information-preserving equivalent for a simulated target).
// Campaigns of aligned traces live in the trace store (power/trace_io.h)
// or in SoA analysis batches (core/trace_batch.h).
#ifndef USCA_POWER_TRACE_H
#define USCA_POWER_TRACE_H

#include <vector>

namespace usca::power {

using trace = std::vector<double>;

} // namespace usca::power

#endif // USCA_POWER_TRACE_H
