// Lane-major data memory and D-cache of the batched cores (sim/batch_sim.h).
//
// Every lane of a batch runs the same program, so every lane's loads and
// stores fall, almost always, inside the program's data image — for the
// generated AES its tables, state, round keys and stack block.  During
// run() that window lives here as word rows, rows_[word][lane]: a load is
// one gather over the active lanes that yields both the value and the
// containing word the MDR observes, a store one scatter whose containing
// word comes from the same row.  An access outside the window goes to
// that lane's mem::memory, which stays authoritative outside the window
// (and is counted: `sim.batch.outside_window_accesses`).
//
// Outside run() each lane's memory is its mem::memory, memory(lane), as
// setup code and callers see it.  The two meet only at the run boundary:
// enter() copies every lane's window into the rows and leave() copies back
// the span of words the run stored to, one page span per lane each way.
//
// The D-cache is lane-major too: tags and last-use stamps as
// [set * ways + way][lane], valid bits as one lane mask per line, and one
// shared access tick.  Active lanes probe in lockstep, so each lane sees
// the tick rise in the same order its own cache's would; true LRU compares
// only a lane's own stamps, so it picks the same victims.  A probe over a
// lane mask returns the lanes that missed.
//
// mem::memory and mem::cache stay the per-trace cores' body and this
// class's oracle (tests/sim/sim_batch_lane_memory_test.cpp): every op
// below walks its lanes in lane order, and a misaligned access throws the
// per-lane objects' util::simulation_error from the first such lane,
// after the lanes before it have stored.
#ifndef USCA_SIM_LANE_MEMORY_H
#define USCA_SIM_LANE_MEMORY_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/cache.h"
#include "mem/memory.h"

namespace usca::sim {

class lane_memory {
public:
  /// The window is the data image [data_base, data_base + data_bytes)
  /// widened to whole words.
  lane_memory(std::uint32_t data_base, std::size_t data_bytes,
              const mem::cache_config& dcache, std::size_t lanes);

  mem::memory& memory(std::size_t lane) noexcept { return memory_[lane]; }
  const mem::memory& memory(std::size_t lane) const noexcept {
    return memory_[lane];
  }

  /// Run entry: lanes 0..n-1's windows into the rows.
  void enter(std::size_t n) noexcept;
  /// Run exit, a throw included: the rows back into lanes 0..n-1's
  /// memories, and the outside-window count to telemetry.
  void leave(std::size_t n);

  /// One D-cache access per lane in `mask`, at address[lane]; returns the
  /// lanes that missed (each pays miss_penalty()).
  std::uint64_t probe(const std::uint32_t* address, std::uint64_t mask);
  int miss_penalty() const noexcept { return dcache_.miss_penalty; }
  /// mem::cache::warm on every lane's D-cache.  When the lanes' caches
  /// are alike (fresh, or warmed from fresh), one lane is warmed and its
  /// lines broadcast.
  void warm(std::uint32_t base, std::size_t length);
  /// Every lane's D-cache back to fresh; returns the sets cleared, summed
  /// over the lanes (what one mem::cache::reset per lane returns).
  std::size_t reset_cache() noexcept;

  /// A `width`-byte load (1, 2 or 4) per lane in `mask`: value[lane] and
  /// the containing word, word[lane].
  void load(const std::uint32_t* address, int width, std::uint64_t mask,
            std::uint32_t* value, std::uint32_t* word);
  /// A `width`-byte store of data[lane]'s low bytes per lane in `mask`;
  /// word[lane] takes the containing word after it.
  void store(const std::uint32_t* address, const std::uint32_t* data,
             int width, std::uint64_t mask, std::uint32_t* word);

private:
  /// Row index of `address` when a `width`-byte access there is aligned
  /// and inside the window; `words_` otherwise.
  std::size_t row_of(std::uint32_t address, int width) const noexcept {
    const std::uint32_t offset = address - base_;
    const bool aligned =
        (address & static_cast<std::uint32_t>(width - 1)) == 0;
    return offset < 4 * words_ && aligned ? offset >> 2 : words_;
  }
  /// The miss path of one lane's D-cache access: `tag` into a way of
  /// `set`; returns its line.
  std::size_t fill(std::size_t lane, std::size_t set,
                   std::uint32_t tag) noexcept;

  std::size_t lanes_;
  std::vector<mem::memory> memory_;

  std::uint32_t base_;  ///< the window's first word
  std::size_t words_;   ///< its length in words
  std::vector<std::uint32_t> rows_; ///< [word * lanes_ + lane]
  /// Rows [stored_low_, stored_high_) hold every word stored to since
  /// enter() (empty: low words_, high 0).
  std::size_t stored_low_;
  std::size_t stored_high_ = 0;
  /// The exchange's staging: lane l's window at [l * words_], as the
  /// memories hold it (little-endian words).
  std::vector<std::uint32_t> spans_;
  std::uint64_t outside_ = 0;       ///< lane accesses memory_ served

  mem::cache_config dcache_;
  mem::cache_geometry geometry_;
  std::vector<std::uint32_t> tag_;      ///< [line * lanes_ + lane]
  std::vector<std::uint64_t> last_use_; ///< [line * lanes_ + lane]
  std::vector<std::uint64_t> valid_;    ///< per line: a lane mask
  /// Per set: the lanes that filled a line there since reset_cache().
  std::vector<std::uint64_t> touched_;
  std::uint64_t tick_ = 0;
  /// Every lane's cache holds the same lines (warm may broadcast).
  bool uniform_ = true;
};

} // namespace usca::sim

#endif // USCA_SIM_LANE_MEMORY_H
