// Oracle of the batched cores' data memory and D-cache.
//
// During run() a batch engine serves every lane's loads, stores and
// D-cache probes as one call over a lane mask; outside run() each lane's
// data memory is its mem::memory (batch_backend::memory(lane)).  The
// reference here is the per-trace cores' body: N independent mem::memory
// and mem::cache objects, driven lane by lane in lane order.  Seeded
// random streams of loads, stores and probes, at addresses inside the
// program's data window, at its first and last word, outside it and
// misaligned, must give the same values, containing (MDR) words, miss
// lanes and exceptions, and leave the same memory at every run boundary.
// A misaligned access throws from the first such lane in lane order,
// after the lanes before it have stored, exactly as the lane loop over
// the per-lane objects does.
//
// The batch-level cases drive whole programs: what setup code writes
// through memory(l) must reach run(), and what run() stores must read
// back through memory(l), on full batches and partial groups
// (limit_active_lanes), with every lane bit-identical to a per-trace run.
// Their program also loads and stores past the data image, which the
// `sim.batch.outside_window_accesses` counter must show.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "asmx/program.h"
#include "mem/cache.h"
#include "mem/memory.h"
#include "sim/backend.h"
#include "sim/batch_sim.h"
#include "sim/lane_alu.h"
#include "sim/lane_memory.h"
#include "sim/micro_arch_config.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/telemetry.h"

namespace usca::sim {
namespace {

using isa::reg;

/// The lane memory under test: one call per memory op over a lane mask.
using subject = lane_memory;

// ------------------------------------------------------------ reference

/// N independent per-trace objects; every op walks the lanes in order
/// and stops at the first that throws.
struct reference_lanes {
  std::vector<mem::memory> memory;
  std::vector<mem::cache> dcache;

  reference_lanes(const mem::cache_config& config, std::size_t lanes)
      : memory(lanes), dcache(lanes, mem::cache(config)) {}
};

/// The outcome of one op: per-lane results and the exception, if any.
struct op_result {
  lane_row value{};
  lane_row word{};
  std::uint64_t missed = 0;
  std::optional<std::string> error;
};

template <typename Body>
std::optional<std::string> catch_error(Body&& body) {
  try {
    body();
  } catch (const util::simulation_error& e) {
    return std::string(e.what());
  }
  return std::nullopt;
}

struct window {
  std::uint32_t base;
  std::size_t bytes; ///< the data image's size; the window rounds to words
};

struct stream_case {
  const char* name;
  window win;
  mem::cache_config dcache;
  std::size_t lanes;
};

mem::cache_config small_dcache(std::size_t sets = 4) {
  mem::cache_config c;
  c.size_bytes = sets * 128; // 2 ways of 64 B: evictions and LRU
  c.line_bytes = 64;
  c.ways = 2;
  c.miss_penalty = 7;
  return c;
}

/// A lane's address for a `width`-byte access, drawn from the classes the
/// engines tell apart.
std::uint32_t draw_address(util::xoshiro256& rng, const window& w,
                           int width) {
  const auto align = [width](std::uint32_t a) {
    return a & ~static_cast<std::uint32_t>(width - 1);
  };
  const std::uint32_t first = w.base & ~3U;
  const std::uint32_t end =
      (w.base + static_cast<std::uint32_t>(w.bytes) + 3) & ~3U;
  const auto sub = [&] {
    return static_cast<std::uint32_t>(rng.bounded(4));
  };
  switch (rng.bounded(16)) {
  case 0: // the window's first word
    return align(first + sub());
  case 1: // its last word
    return align(end - 4 + sub());
  case 2: // just past it
    return align(end + static_cast<std::uint32_t>(rng.bounded(64)));
  case 3: // just before it
    return align(first - 1 - static_cast<std::uint32_t>(rng.bounded(64)));
  case 4: // anywhere
    return align(rng.next_u32());
  case 5: // misaligned, inside or just outside the window
    if (width > 1 && rng.bounded(3) == 0) {
      return align(first + static_cast<std::uint32_t>(
                               rng.bounded(end - first + 8))) +
             1 + static_cast<std::uint32_t>(rng.bounded(
                     static_cast<std::uint64_t>(width - 1)));
    }
    [[fallthrough]];
  default: // inside
    return align(first + static_cast<std::uint32_t>(rng.bounded(end - first)));
  }
}

/// A lane mask over the first `n` lanes: full, or with holes.
std::uint64_t draw_mask(util::xoshiro256& rng, std::size_t n) {
  const std::uint64_t full =
      n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
  if (rng.bounded(3) == 0) {
    return full;
  }
  const std::uint64_t holed =
      full & ((std::uint64_t{rng.next_u32()} << 32) | rng.next_u32());
  return holed != 0 ? holed : full;
}

/// Every byte of both memories around the window, and the words each
/// lane wrote elsewhere.
void expect_same_memory(
    subject& s, reference_lanes& ref, std::size_t lanes, const window& w,
    const std::vector<std::vector<std::uint32_t>>& written) {
  for (std::size_t l = 0; l < lanes; ++l) {
    SCOPED_TRACE(l);
    for (std::uint32_t a = w.base - 80;
         a != w.base + static_cast<std::uint32_t>(w.bytes) + 80; ++a) {
      ASSERT_EQ(s.memory(l).read8(a), ref.memory[l].read8(a)) << a;
    }
    for (const std::uint32_t a : written[l]) {
      for (std::uint32_t b = 0; b < 4; ++b) {
        ASSERT_EQ(s.memory(l).read8(a + b), ref.memory[l].read8(a + b))
            << a;
      }
    }
  }
}

class LaneMemoryStream : public ::testing::TestWithParam<stream_case> {};

TEST_P(LaneMemoryStream, MatchesIndependentPerLaneObjects) {
  const stream_case& param = GetParam();
  const window& w = param.win;
  util::xoshiro256 rng(0x1a4e3e3);

  std::vector<std::uint8_t> image(w.bytes);
  for (std::uint8_t& b : image) {
    b = static_cast<std::uint8_t>(rng.next_u32());
  }
  subject s(w.base, w.bytes, param.dcache, param.lanes);
  reference_lanes ref(param.dcache, param.lanes);
  for (std::size_t l = 0; l < param.lanes; ++l) {
    s.memory(l).load(w.base, image);
    ref.memory[l].load(w.base, image);
  }
  std::vector<std::vector<std::uint32_t>> written(param.lanes);

  for (int run = 0; run < 12; ++run) {
    SCOPED_TRACE(run);
    // Setup code between runs: random writes through memory(l), then
    // (usually) the warm-up.
    for (int k = 0; k < 6; ++k) {
      const auto l = static_cast<std::size_t>(rng.bounded(param.lanes));
      const std::uint32_t a = draw_address(rng, w, 4) & ~3U;
      const std::uint32_t v = rng.next_u32();
      s.memory(l).write32(a, v);
      ref.memory[l].write32(a, v);
      written[l].push_back(a);
    }
    if (run % 4 != 3) {
      s.warm(w.base, w.bytes);
      for (mem::cache& d : ref.dcache) {
        d.warm(w.base, w.bytes);
      }
    }
    // A partial group now and then: only lanes 0..n-1 take part.
    const std::size_t n =
        run % 3 == 2 ? 1 + static_cast<std::size_t>(rng.bounded(param.lanes))
                     : param.lanes;
    s.enter(n);
    for (int op = 0; op < 150; ++op) {
      SCOPED_TRACE(op);
      const std::uint64_t mask = draw_mask(rng, n);
      const int kind = static_cast<int>(rng.bounded(3));
      const int width = 1 << rng.bounded(3);
      lane_row address{};
      lane_row data{};
      for (const std::size_t l : lanes_in(mask)) {
        address[l] = draw_address(rng, w, kind == 0 ? 1 : width);
        data[l] = rng.next_u32();
      }
      op_result got;
      op_result want;
      if (kind == 0) {
        got.missed = s.probe(address.data(), mask);
        for (const std::size_t l : lanes_in(mask)) {
          if (ref.dcache[l].access(address[l]) != 0) {
            want.missed |= std::uint64_t{1} << l;
          }
        }
        ASSERT_EQ(got.missed, want.missed);
        continue;
      }
      if (kind == 1) {
        got.error = catch_error([&] {
          s.load(address.data(), width, mask, got.value.data(),
                 got.word.data());
        });
        want.error = catch_error([&] {
          for (const std::size_t l : lanes_in(mask)) {
            const mem::memory::word_load loaded =
                ref.memory[l].load_with_word(address[l], width);
            want.value[l] = loaded.value;
            want.word[l] = loaded.word;
          }
        });
      } else {
        got.error = catch_error([&] {
          s.store(address.data(), data.data(), width, mask, got.word.data());
        });
        want.error = catch_error([&] {
          for (const std::size_t l : lanes_in(mask)) {
            mem::memory& m = ref.memory[l];
            if (width == 4) {
              m.write32(address[l], data[l]);
            } else if (width == 2) {
              m.write16(address[l], static_cast<std::uint16_t>(data[l]));
            } else {
              m.write8(address[l], static_cast<std::uint8_t>(data[l]));
            }
            want.word[l] = m.containing_word(address[l]);
          }
        });
        for (const std::size_t l : lanes_in(mask)) {
          written[l].push_back(address[l] & ~3U);
        }
      }
      ASSERT_EQ(got.error, want.error);
      if (!want.error) {
        for (const std::size_t l : lanes_in(mask)) {
          if (kind == 1) {
            ASSERT_EQ(got.value[l], want.value[l]) << "lane " << l;
          }
          ASSERT_EQ(got.word[l], want.word[l]) << "lane " << l;
        }
      }
    }
    s.leave(n);
    expect_same_memory(s, ref, param.lanes, w, written);
    if (HasFatalFailure()) {
      return;
    }
    if (run % 2 == 1) {
      std::size_t want_sets = 0;
      for (mem::cache& d : ref.dcache) {
        want_sets += d.reset();
      }
      EXPECT_EQ(s.reset_cache(), want_sets);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Windows, LaneMemoryStream,
    ::testing::Values(
        stream_case{"aes_like_8", {0x10000, 480}, mem::cache_config{}, 8},
        stream_case{"small_cache_32", {0x10000, 480}, small_dcache(), 32},
        // One way per set for the window, one for what evicts it, so a
        // later warm-up finds the lanes' caches unlike.
        stream_case{"half_window_cache_16", {0x10000, 480}, small_dcache(8),
                    16},
        stream_case{"page_straddle_7", {0x10ff4, 52}, small_dcache(), 7},
        stream_case{"odd_size_64", {0x20000, 45}, mem::cache_config{}, 64},
        stream_case{"one_lane", {0x10000, 64}, small_dcache(), 1}),
    [](const ::testing::TestParamInfo<stream_case>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------- whole runs

/// A program that loads and stores at the data image's first and last
/// words and past its end (r11 points one page past the image), in every
/// width, then halts.
asmx::program boundary_program() {
  namespace mk = isa::ins;
  asmx::program_builder b;
  const std::uint32_t buffer = b.data_block(64, 4);
  b.define_symbol("buffer", buffer);
  b.emit(mk::ldr(reg::r0, reg::r10, 0));
  b.emit(mk::ldr(reg::r1, reg::r10, 60));
  b.emit(mk::ldrb(reg::r2, reg::r10, 61));
  b.emit(mk::ldrh(reg::r3, reg::r10, 2));
  b.emit(mk::ldr(reg::r4, reg::r11, 0));
  b.emit(mk::add(reg::r0, reg::r0, reg::r4));
  b.emit(mk::str(reg::r0, reg::r10, 4));
  b.emit(mk::strb(reg::r1, reg::r10, 63));
  b.emit(mk::strh(reg::r2, reg::r10, 62));
  b.emit(mk::str(reg::r3, reg::r11, 4));
  b.emit(mk::strb(reg::r0, reg::r11, 9));
  b.emit(mk::strh(reg::r1, reg::r11, 14));
  b.emit(mk::ldr(reg::r5, reg::r11, 4));
  b.emit(mk::ldrh(reg::r6, reg::r11, 8));
  b.emit(mk::ldrb(reg::r7, reg::r11, 15));
  b.emit(mk::eor(reg::r5, reg::r5, reg::r6));
  b.emit(mk::str(reg::r5, reg::r10, 8));
  b.emit(mk::str(reg::r7, reg::r10, 60));
  b.emit(mk::halt());
  return b.build();
}

micro_arch_config config_for(backend_kind kind) {
  return kind == backend_kind::ooo ? cortex_a7_ooo() : cortex_a7();
}

/// Per-lane setup: registers and random words inside and past the image.
struct lane_setup {
  std::uint32_t buffer = 0;
  std::uint32_t outside = 0;
  std::array<std::uint32_t, 16> inside_words{};
  std::array<std::uint32_t, 4> outside_words{};

  void apply(cpu_state& st, mem::memory& m) const {
    st.set_reg(reg::r10, buffer);
    st.set_reg(reg::r11, outside);
    for (std::size_t i = 0; i < inside_words.size(); ++i) {
      m.write32(buffer + static_cast<std::uint32_t>(4 * i), inside_words[i]);
    }
    for (std::size_t i = 0; i < outside_words.size(); ++i) {
      m.write32(outside + static_cast<std::uint32_t>(4 * i),
                outside_words[i]);
    }
  }
};

void expect_same_bytes(const mem::memory& got, const mem::memory& want,
                       std::uint32_t from, std::uint32_t to) {
  for (std::uint32_t a = from; a != to; ++a) {
    ASSERT_EQ(got.read8(a), want.read8(a)) << a;
  }
}

class LaneMemoryRun : public ::testing::TestWithParam<backend_kind> {};

const telem::counter outside_window_accesses{
    "sim.batch.outside_window_accesses", "accesses", "sim"};

// Setup writes through memory(l), run() loads and stores inside and past
// the data image, and memory(l) reads back what a per-trace core leaves;
// lanes outside a partial group keep exactly what setup wrote.
TEST_P(LaneMemoryRun, RoundTripsThroughMemoryOnFullAndPartialGroups) {
  const backend_kind kind = GetParam();
  const asmx::program prog = boundary_program();
  const program_image image(prog);
  const micro_arch_config config = config_for(kind);
  constexpr std::size_t lanes = 16;
  util::xoshiro256 rng(0x6e3a11);

  const std::unique_ptr<backend> core = make_backend(kind, image, config);
  const std::unique_ptr<batch_backend> batch =
      make_batch_backend(kind, image, config, lanes);
  for (const std::size_t active : {lanes, std::size_t{5}, std::size_t{1}}) {
    SCOPED_TRACE(active);
    std::vector<lane_setup> setup(lanes);
    for (lane_setup& s : setup) {
      s.buffer = *prog.symbol("buffer");
      s.outside = prog.data_base + 0x1000 +
                  4 * static_cast<std::uint32_t>(rng.bounded(8));
      for (std::uint32_t& v : s.inside_words) {
        v = rng.next_u32();
      }
      for (std::uint32_t& v : s.outside_words) {
        v = rng.next_u32();
      }
    }
    batch->limit_active_lanes(active);
    batch->reset();
    for (std::size_t l = 0; l < lanes; ++l) {
      setup[l].apply(batch->state(l), batch->memory(l));
    }
    batch->warm_caches();
    const std::uint64_t outside_before = outside_window_accesses.value();
    batch->run();
    ASSERT_FALSE(batch->any_lane_diverged());
    // Seven of the program's accesses per lane lie past the data image;
    // the per-lane page map serves them, and the counter shows it.
    EXPECT_EQ(outside_window_accesses.value() - outside_before, 7 * active);

    for (std::size_t l = 0; l < lanes; ++l) {
      SCOPED_TRACE(l);
      core->reset();
      setup[l].apply(core->state(), core->memory());
      if (l < active) {
        core->warm_caches();
        core->run();
        EXPECT_EQ(batch->activity(l), core->activity());
        EXPECT_EQ(batch->cycles(), core->cycles());
        EXPECT_EQ(batch->state(l).regs, core->state().regs);
      }
      expect_same_bytes(batch->memory(l), core->memory(), prog.data_base - 16,
                        prog.data_base + 0x1040);
    }
  }
}

// A misaligned access throws out of run() on both cores; what the lanes
// stored before it reads back through memory(l), and the registers are
// the per-trace core's.
TEST_P(LaneMemoryRun, MisalignedAccessThrowsAndLeavesPerTraceState) {
  const backend_kind kind = GetParam();
  namespace mk = isa::ins;
  asmx::program_builder b;
  const std::uint32_t buffer = b.data_block(32, 4);
  b.emit(mk::ldr(reg::r0, reg::r10, 0));
  b.emit(mk::add_imm(reg::r0, reg::r0, 1));
  b.emit(mk::str(reg::r0, reg::r10, 4));
  b.emit(mk::strb(reg::r0, reg::r11, 3));
  b.emit(mk::str(reg::r0, reg::r10, 2)); // misaligned on every lane
  b.emit(mk::str(reg::r0, reg::r10, 8));
  b.emit(mk::halt());
  const asmx::program prog = b.build();
  const program_image image(prog);
  const micro_arch_config config = config_for(kind);
  constexpr std::size_t lanes = 6;

  const std::unique_ptr<backend> core = make_backend(kind, image, config);
  const std::unique_ptr<batch_backend> batch =
      make_batch_backend(kind, image, config, lanes);
  const auto setup = [&](std::size_t l, cpu_state& st, mem::memory& m) {
    st.set_reg(reg::r10, buffer);
    st.set_reg(reg::r11, buffer + 0x2000);
    m.write32(buffer, 0x1000u * static_cast<std::uint32_t>(l + 1));
  };
  for (std::size_t l = 0; l < lanes; ++l) {
    setup(l, batch->state(l), batch->memory(l));
  }
  batch->warm_caches();
  EXPECT_THROW(batch->run(), util::simulation_error);
  for (std::size_t l = 0; l < lanes; ++l) {
    SCOPED_TRACE(l);
    core->reset();
    setup(l, core->state(), core->memory());
    core->warm_caches();
    EXPECT_THROW(core->run(), util::simulation_error);
    EXPECT_EQ(batch->state(l).regs, core->state().regs);
    expect_same_bytes(batch->memory(l), core->memory(), buffer - 8,
                      buffer + 40);
    expect_same_bytes(batch->memory(l), core->memory(), buffer + 0x2000,
                      buffer + 0x2008);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, LaneMemoryRun,
                         ::testing::Values(backend_kind::inorder,
                                           backend_kind::ooo),
                         [](const ::testing::TestParamInfo<backend_kind>& i) {
                           return std::string(backend_kind_name(i.param));
                         });

} // namespace
} // namespace usca::sim
