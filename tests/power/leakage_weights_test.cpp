// Regression pin on the Cortex-A7-like leakage model (paper Table 2 and
// Section 4.1 prose).  The *ordering* of the component weights is what
// the reproduction's conclusions rest on; a refactor that silently
// inverted it would leave every test compiling and most statistics
// plausible, so the claims are pinned here explicitly:
//
//   * the store/memory path (MDR) leaks strongest ("store leakage was the
//     highest among the detected ones");
//   * the barrel-shifter buffer leaks at about 1/10 of the main sources;
//   * the RF read ports do not leak at all (short load).
#include <gtest/gtest.h>

#include "power/synthesizer.h"

namespace usca {
namespace {

using sim::component;

TEST(LeakageWeights, RfReadPortsDoNotLeak) {
  const power::leakage_weights w = power::leakage_weights::cortex_a7_like();
  EXPECT_EQ(w[component::rf_read_port], 0.0);
}

TEST(LeakageWeights, MemoryPathLeaksStrongest) {
  const power::leakage_weights w = power::leakage_weights::cortex_a7_like();
  for (std::size_t c = 0; c < sim::component_count; ++c) {
    const auto comp = static_cast<component>(c);
    if (comp == component::mdr) {
      continue;
    }
    EXPECT_GT(w[component::mdr], w[comp])
        << "MDR must dominate component " << c;
  }
}

TEST(LeakageWeights, ShifterBufferAboutOneTenthOfMainSources) {
  const power::leakage_weights w = power::leakage_weights::cortex_a7_like();
  for (const component main :
       {component::is_ex_bus, component::alu_in_latch, component::alu_out,
        component::ex_wb_latch, component::wb_bus}) {
    const double ratio = w[component::shift_buffer] / w[main];
    EXPECT_GE(ratio, 0.05) << "component " << static_cast<int>(main);
    EXPECT_LE(ratio, 0.2) << "component " << static_cast<int>(main);
  }
}

TEST(LeakageWeights, MainPipelineBuffersLeakEqually) {
  // Section 4.1 reports comparable magnitudes for the operand buses and
  // pipeline latches; the model encodes them with a common unit weight.
  const power::leakage_weights w = power::leakage_weights::cortex_a7_like();
  const double reference = w[component::is_ex_bus];
  EXPECT_GT(reference, 0.0);
  EXPECT_EQ(w[component::alu_in_latch], reference);
  EXPECT_EQ(w[component::alu_out], reference);
  EXPECT_EQ(w[component::ex_wb_latch], reference);
  EXPECT_EQ(w[component::wb_bus], reference);
}

TEST(LeakageWeights, SubWordAlignmentBufferLeaksBelowMainSources) {
  const power::leakage_weights w = power::leakage_weights::cortex_a7_like();
  EXPECT_GT(w[component::align_buffer], w[component::shift_buffer]);
  EXPECT_LT(w[component::align_buffer], w[component::mdr]);
}

} // namespace
} // namespace usca
