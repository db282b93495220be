// Speculation-as-a-leakage-source probe, the speculation subsystem's
// counterpart of the paper's Section 5 demo:
//
//   ./build/example_spec_probe [--traces=N] [--predictor=bimodal|gshare|static]
//
// Part A — Spectre-PHT gadget under TVLA.  A bounds-checked table walk
// is trained in-bounds, then fed an out-of-bounds index that points at a
// secret byte.  Architecturally the bounds check always wins: the gadget
// body never executes and the secret never reaches a register.  Under a
// real (trainable) predictor the attack iteration mispredicts and the
// wrong path renames the two loads anyway — the second one indexed by
// the *secret byte itself* — so the secret crosses the PRF read ports
// and the load pipes as pure wrong-path activity before the flush
// squashes it.  Fixed-vs-random TVLA over the synthesized traces makes
// the leak visible; the same campaign under the perfect predictor is the
// control (no wrong path, no leak).
//
// Part B — retirement-schedule covert channel.  A transmitter branches
// on each bit of a message; the weakly-not-taken reset state makes every
// 1-bit mispredict.  The mispredicted branch blocks retirement until it
// resolves, so the receiver reads the message back from per-bit cycle
// deltas (and sees the matching ROB retire-port activity thinning) —
// wrong-path execution modulating a shared resource, no architectural
// data flow at all.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <vector>

#include "asmx/program.h"
#include "core/acquisition.h"
#include "core/analysis_sinks.h"
#include "isa/instruction.h"
#include "sim/ooo/ooo_core.h"
#include "stats/ttest.h"
#include "util/error.h"

using namespace usca;

namespace {

namespace mk = isa::ins;
using isa::condition;
using isa::reg;

constexpr std::uint16_t mark_gadget_begin = 1;
constexpr std::uint16_t mark_gadget_end = 2;
constexpr std::uint16_t mark_bit_base = 100;
constexpr std::uint16_t mark_message_end = 200;

constexpr std::uint32_t public_bytes = 16; ///< gadget bound
constexpr std::uint32_t secret_bytes = 16;

struct gadget_layout {
  asmx::program prog;
  std::uint32_t array_addr = 0; ///< [0,16) public, [16,32) secret
};

// if (idx < bound) { r5 = array[idx]; r6 = probe[r5]; }
// Registers: r1 array base, r2 probe base, r3 bound, r4 idx.
void emit_gadget_iteration(asmx::program_builder& builder,
                           std::uint32_t idx) {
  builder.emit(mk::mov_imm(reg::r4, idx));
  builder.emit(mk::cmp(reg::r4, reg::r3));
  builder.emit(mk::b(2, condition::ge)); // bounds check: skip body if OOB
  builder.emit(mk::ldrb_reg(reg::r5, reg::r1, reg::r4));
  builder.emit(mk::ldrb_reg(reg::r6, reg::r2, reg::r5)); // secret-indexed
}

gadget_layout build_gadget_program() {
  asmx::program_builder builder;
  gadget_layout layout;
  layout.array_addr = builder.data_block(public_bytes + secret_bytes, 4);
  const std::uint32_t probe_addr = builder.data_block(256, 4);

  builder.load_constant(reg::r1, layout.array_addr);
  builder.load_constant(reg::r2, probe_addr);
  builder.emit(mk::mov_imm(reg::r3, public_bytes));
  builder.pad_nops(4);

  builder.emit(mk::mark(mark_gadget_begin));
  for (std::uint32_t s = 0; s < secret_bytes; ++s) {
    // Two in-bounds iterations train this block's branch not-taken, then
    // the attack iteration aims past the bound at secret byte s.
    emit_gadget_iteration(builder, (s * 7 + 3) % public_bytes);
    emit_gadget_iteration(builder, (s * 5 + 1) % public_bytes);
    emit_gadget_iteration(builder, public_bytes + s);
  }
  builder.emit(mk::mark(mark_gadget_end));
  builder.pad_nops(4);
  layout.prog = builder.build();
  return layout;
}

struct tvla_outcome {
  double max_t = 0.0;
  std::size_t leaking = 0;
  std::size_t samples = 0;
};

tvla_outcome run_gadget_tvla(const gadget_layout& layout,
                             const sim::micro_arch_config& uarch,
                             std::size_t traces, std::uint64_t seed) {
  core::acquisition_config config;
  config.traces = traces;
  config.seed = seed;
  config.averaging = 4;
  config.window = core::campaign_window{mark_gadget_begin, mark_gadget_end};
  config.backend = sim::backend_kind::ooo;
  config.uarch = uarch;

  core::acquisition_campaign campaign(sim::program_image(layout.prog),
                                      config);
  const std::uint32_t secret_addr = layout.array_addr + public_bytes;
  campaign.set_setup([secret_addr, array_addr = layout.array_addr](
                         std::size_t index, util::xoshiro256& rng,
                         sim::backend& core, std::vector<double>&) {
    for (std::uint32_t i = 0; i < public_bytes; ++i) {
      core.memory().write8(array_addr + i,
                           static_cast<std::uint8_t>(0x11 * (i + 1)));
    }
    for (std::uint32_t i = 0; i < secret_bytes; ++i) {
      // Fixed-vs-random keyed on index parity; the rng still draws for
      // fixed trials so both classes share the same stream position.
      const std::uint8_t random_byte = rng.next_u8();
      const std::uint8_t byte =
          index % 2 == 0 ? static_cast<std::uint8_t>(0xa5 ^ (i * 29))
                         : random_byte;
      core.memory().write8(secret_addr + i, byte);
    }
  });

  core::tvla_sink tvla; // even indices are the fixed class
  campaign.run(tvla);
  tvla_outcome out;
  out.samples = tvla.tvla().samples();
  out.max_t = tvla.tvla().max_abs_t();
  out.leaking = tvla.tvla().leaking_samples();
  return out;
}

// ---------------------------------------------------------------- Part B

asmx::program build_covert_program(std::uint32_t& msg_addr_out) {
  asmx::program_builder builder;
  const std::uint32_t msg_addr = builder.data_block(16, 4);
  msg_addr_out = msg_addr;

  builder.load_constant(reg::r1, msg_addr);
  builder.pad_nops(4);
  for (std::uint32_t bit = 0; bit < 8; ++bit) {
    builder.emit(mk::mark(static_cast<std::uint16_t>(mark_bit_base + bit)));
    builder.emit(mk::ldrb(reg::r4, reg::r1, bit));
    builder.emit(mk::cmp_imm(reg::r4, 0));
    // Taken exactly when the bit is 1; the reset weakly-not-taken counter
    // predicts fall-through, so every 1-bit pays a full mispredict.
    builder.emit(mk::b(2, condition::ne));
    builder.emit(mk::nop());
    builder.emit(mk::nop());
  }
  builder.emit(mk::mark(mark_message_end));
  builder.pad_nops(4);
  return builder.build();
}

void run_covert_channel(const sim::speculation_config& spec) {
  std::uint32_t msg_addr = 0;
  const asmx::program prog = build_covert_program(msg_addr);
  const std::uint8_t message = 0xb2; // 1011 0010, LSB first

  sim::ooo_core core(sim::program_image(prog), sim::cortex_a7_ooo_spec(spec));
  for (std::uint32_t bit = 0; bit < 8; ++bit) {
    core.memory().write8(msg_addr + bit, (message >> bit) & 1);
  }
  core.warm_caches();
  core.run();

  std::uint64_t bit_cycle[9] = {};
  for (const sim::mark_stamp& m : core.marks()) {
    if (m.id >= mark_bit_base && m.id < mark_bit_base + 8) {
      bit_cycle[m.id - mark_bit_base] = m.cycle;
    } else if (m.id == mark_message_end) {
      bit_cycle[8] = m.cycle;
    }
  }

  std::uint64_t deltas[8];
  std::size_t retire_events[8] = {};
  std::uint64_t min_delta = ~0ULL;
  std::uint64_t max_delta = 0;
  for (int bit = 0; bit < 8; ++bit) {
    deltas[bit] = bit_cycle[bit + 1] - bit_cycle[bit];
    min_delta = std::min(min_delta, deltas[bit]);
    max_delta = std::max(max_delta, deltas[bit]);
    for (const sim::activity_event& ev : core.activity()) {
      if (ev.comp == sim::component::rob_retire_port &&
          ev.cycle >= bit_cycle[bit] && ev.cycle < bit_cycle[bit + 1]) {
        ++retire_events[bit];
      }
    }
  }

  const std::uint64_t threshold = (min_delta + max_delta + 1) / 2;
  std::uint8_t decoded = 0;
  std::printf("  bit | sent | cycles | retire-port events | decoded\n");
  for (int bit = 0; bit < 8; ++bit) {
    const int sent = (message >> bit) & 1;
    const int read = deltas[bit] >= threshold ? 1 : 0;
    if (read) {
      decoded |= static_cast<std::uint8_t>(1u << bit);
    }
    std::printf("   %d  |  %d   | %6llu | %18zu | %d%s\n", bit, sent,
                static_cast<unsigned long long>(deltas[bit]),
                retire_events[bit], read, sent == read ? "" : "  <-- ERROR");
  }
  std::printf("  transmitted 0x%02x, decoded 0x%02x (%s); %llu mispredicts "
              "(= number of 1-bits), %llu wrong-path uops renamed\n",
              message, decoded, message == decoded ? "clean" : "CORRUPTED",
              static_cast<unsigned long long>(core.mispredicts()),
              static_cast<unsigned long long>(core.wrong_path_renamed()));
}

} // namespace

int main(int argc, char** argv) {
  std::size_t traces = 600;
  sim::predictor_kind kind = sim::predictor_kind::bimodal;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--traces=", 0) == 0) {
      traces = static_cast<std::size_t>(std::strtoull(argv[i] + 9, nullptr,
                                                      10));
      if (traces < 4) {
        std::fprintf(stderr, "--traces wants at least 4\n");
        return 2;
      }
    } else if (arg.rfind("--predictor=", 0) == 0) {
      const auto parsed = sim::parse_predictor_kind(arg.substr(12));
      if (!parsed || *parsed == sim::predictor_kind::perfect) {
        std::fprintf(stderr,
                     "--predictor wants bimodal|gshare|static (the perfect "
                     "control always runs)\n");
        return 2;
      }
      kind = *parsed;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--traces=N] "
                   "[--predictor=bimodal|gshare|static]\n",
                   argv[0]);
      return 2;
    }
  }

  sim::speculation_config spec;
  spec.predictor = kind;

  const gadget_layout layout = build_gadget_program();
  std::printf("== Part A: Spectre-PHT gadget, fixed-vs-random TVLA "
              "(%zu traces) ==\n\n",
              traces);

  const tvla_outcome leaky =
      run_gadget_tvla(layout, sim::cortex_a7_ooo_spec(spec), traces, 0x57ec);
  sim::speculation_config perfect;
  perfect.predictor = sim::predictor_kind::perfect;
  const tvla_outcome control = run_gadget_tvla(
      layout, sim::cortex_a7_ooo_spec(perfect), traces, 0x57ec);

  std::printf("  %-28s %10s %10s %9s\n", "core", "max |t|", "|t|>4.5",
              "samples");
  std::printf("  %-28s %10.1f %10zu %9zu\n",
              (std::string(sim::predictor_kind_name(kind)) + " predictor")
                  .c_str(),
              leaky.max_t, leaky.leaking, leaky.samples);
  std::printf("  %-28s %10.1f %10zu %9zu\n", "perfect predictor (control)",
              control.max_t, control.leaking, control.samples);
  const bool part_a_ok = leaky.max_t > 4.5 && control.max_t < 4.5;
  std::printf("\n  %s: the secret is never architecturally read past the "
              "bounds check;\n  every bit of leakage above is wrong-path "
              "rename/load activity.\n",
              part_a_ok ? "LEAK CONFIRMED" : "unexpected result");

  std::printf("\n== Part B: retirement-schedule covert channel ==\n\n");
  sim::speculation_config covert_spec = spec;
  // The per-bit block drains in ~8 cycles on its own (the load feeding
  // the branch dominates), so a short resolve latency hides entirely
  // under it; 20 cycles pushes the mispredict stall well clear of the
  // baseline and the channel decodes from raw cycle deltas.
  covert_spec.resolve_latency = 20;
  run_covert_channel(covert_spec);

  return part_a_ok ? 0 : 1;
}
