#include "sim/uarch_activity.h"

#include <algorithm>

namespace usca::sim {

std::uint64_t activity_window_digest(const activity_trace& events,
                                     std::uint32_t first,
                                     std::uint32_t last) {
  // (cycle << 4 | component) -> summed toggles; the key order gives the
  // deterministic fold order regardless of emission order.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sums;
  sums.reserve(events.size());
  for (const activity_event& ev : events) {
    if (ev.cycle >= first && ev.cycle < last) {
      sums.emplace_back((static_cast<std::uint64_t>(ev.cycle) << 4) |
                            static_cast<std::uint64_t>(ev.comp),
                        static_cast<std::uint64_t>(ev.toggles));
    }
  }
  std::sort(sums.begin(), sums.end());

  constexpr std::uint64_t fnv_offset = 0xcbf29ce484222325ULL;
  constexpr std::uint64_t fnv_prime = 0x100000001b3ULL;
  std::uint64_t digest = fnv_offset;
  const auto fold = [&digest](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (value >> (8 * byte)) & 0xffU;
      digest *= fnv_prime;
    }
  };
  for (std::size_t i = 0; i < sums.size();) {
    std::uint64_t total = 0;
    std::size_t j = i;
    while (j < sums.size() && sums[j].first == sums[i].first) {
      total += sums[j].second;
      ++j;
    }
    fold(sums[i].first);
    fold(total);
    i = j;
  }
  return digest;
}

} // namespace usca::sim
