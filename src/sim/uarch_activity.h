// Micro-architectural activity events: the pipeline's side-channel output.
//
// Each cycle, the pipeline model updates the state of the structures that
// the DAC'18 paper identifies as (potential) leakage sources and emits one
// event per state transition.  The power model (usca::power) turns these
// events into synthetic traces by weighting the switching counts; the
// leakage characterizer correlates hypothesis models against those traces.
//
// Components and their lanes (in-order Cortex-A7-like pipeline):
//   rf_read_port   lanes 0..2   values asserted on the RF read ports
//   is_ex_bus      lanes 0..2   IS->EX operand buses: lane0 = slot-0 first
//                               operand, lane1 = slot-0 second operand /
//                               store data, lane2 = slot-1 operand path
//   alu_in_latch   lanes 0..3   per-ALU input operand latches
//                               (lane = alu*2 + operand position); updated
//                               only when a real instruction executes on
//                               that ALU — stale data survives nops
//   alu_out        lanes 0..1   ALU result asserted on a zero-precharged
//                               network (toggles = Hamming weight)
//   shift_buffer   lane 0       barrel-shifter output buffer (HW, small)
//   ex_wb_latch    lanes 0..1   EX->WB buffer output gates; updated by
//                               real results only (loads and store data
//                               included)
//   wb_bus         lanes 0..1   write-back buses; nop resets them to zero
//   mdr            lane 0       memory data register: full 32-bit word for
//                               every access, sub-word included
//   align_buffer   lane 0       LSU sub-word realignment buffer; updated
//                               only by byte/halfword accesses
//
// Out-of-order issue backend structures (sim/ooo, after Ge et al. and the
// retirement-channel literature):
//   rat_port        lanes 0..w  register-alias-table write ports: physical
//                               register tag swapped in at rename
//   prf_read_port   lanes 0..2  physical-register-file read ports: operand
//                               values read at issue (unlike the A7 RF,
//                               these drive long wires and DO leak)
//   rs_tag_bus      lanes 0..w  reservation-station wakeup tag broadcast
//                               (destination tags — small, data-independent)
//   cdb             lanes 0..w  common data bus: completed results
//                               broadcast to the RS and the PRF
//   rob_retire_port lanes 0..w  reorder-buffer retirement ports: values
//                               committed in order at the head of the ROB
//
// Front-end speculation structures (emitted only when the speculation
// config selects a real predictor; see sim/ooo/speculation.h):
//   bp_table        lane 0 read / lane 1 write   direction-predictor
//                               table port (index + counter state)
//   btb_port        lane 0 BTB / lane 1 RSB      target-carrying ports:
//                               predicted/installed branch targets and
//                               return addresses
#ifndef USCA_SIM_UARCH_ACTIVITY_H
#define USCA_SIM_UARCH_ACTIVITY_H

#include <cstdint>
#include <vector>

namespace usca::sim {

enum class component : std::uint8_t {
  rf_read_port,
  is_ex_bus,
  alu_in_latch,
  alu_out,
  shift_buffer,
  ex_wb_latch,
  wb_bus,
  mdr,
  align_buffer,
  // Out-of-order backend structures.
  rat_port,
  prf_read_port,
  rs_tag_bus,
  cdb,
  rob_retire_port,
  // Front-end speculation structures (sim/ooo/speculation.h); silent
  // under the default perfect predictor, so traces recorded before
  // these components existed stay bit-identical.
  bp_table,
  btb_port,
};

constexpr std::size_t component_count = 16;

/// One switching event: `toggles` bits changed on `comp`/`lane` at `cycle`.
struct activity_event {
  std::uint32_t cycle = 0;
  component comp = component::is_ex_bus;
  std::uint8_t lane = 0;
  std::uint8_t toggles = 0;

  friend bool operator==(const activity_event&,
                         const activity_event&) = default;
};

using activity_trace = std::vector<activity_event>;

/// Order-insensitive FNV-1a digest of a trace window: the per-(cycle,
/// component) toggle sums of every event with cycle in [first, last),
/// folded in ascending (cycle, component) order.
///
/// The toggle sums are exactly what the power synthesizer weights into a
/// sample, aggregated across lanes — so two traces with equal digests
/// drive the power model identically over the window, while event order
/// and lane assignment (which the model does not observe) are free to
/// differ.  Compact enough to check in: the golden-snapshot suites
/// (tests/sim/ooo_activity_golden_test.cpp) pin one 64-bit constant per
/// backend instead of a full per-cycle dump.
std::uint64_t activity_window_digest(const activity_trace& events,
                                     std::uint32_t first,
                                     std::uint32_t last);

} // namespace usca::sim

#endif // USCA_SIM_UARCH_ACTIVITY_H
