// Lane-batched twin of ooo_core.cpp (fast scheduler).  Every emission
// point and shared-control update corresponds 1:1 to a statement in
// sim::ooo_core — same order, same cycle stamps — with per-trace scalar
// values replaced by lane-major rows.  Keep the two files side by side
// when editing: the per-lane activity stream of a surviving lane must
// stay bit-identical to a per-trace run (ctest -L sim_batch).
#include "sim/ooo/batch_ooo_core.h"

#include <algorithm>
#include <bit>

#include "sim/alu.h"
#include "sim/ooo/ooo_core.h"
#include "util/bitops.h"
#include "util/error.h"
#include "util/telemetry.h"

namespace usca::sim {

namespace {

using isa::instruction;
using isa::opcode;
using isa::reg;

} // namespace

batch_ooo_core::batch_ooo_core(program_image image, micro_arch_config config,
                               std::size_t lanes)
    : batch_backend(std::move(image), config.icache, config.dcache, lanes),
      config_(config) {
  validate_config();

  const ooo_config& ooo = config_.ooo;
  rob_.resize(static_cast<std::size_t>(ooo.rob_entries));
  rob_value_.resize(rob_.size() * lanes_);
  rob_store_addr_.resize(rob_.size() * lanes_);
  rs_.resize(static_cast<std::size_t>(ooo.rs_entries));
  rs_src_value_.resize(rs_.size() * max_sources * lanes_);
  rs_address_.resize(rs_.size() * lanes_);
  rs_mem_word_.resize(rs_.size() * lanes_);
  rs_sub_value_.resize(rs_.size() * lanes_);
  rs_shift_value_.resize(rs_.size() * lanes_);
  rs_squash_.resize(rs_.size());
  free_pregs_.reserve(static_cast<std::size_t>(ooo.prf_size));
  preg_ready_.resize(static_cast<std::size_t>(ooo.prf_size));
  sb_addr_.resize(static_cast<std::size_t>(ooo.store_buffer_entries) *
                  lanes_);
  preg_waiters_.resize(static_cast<std::size_t>(ooo.prf_size));
  for (auto& waiters : preg_waiters_) {
    waiters.reserve(max_sources);
  }
  rob_flag_waiters_.resize(rob_.size());
  for (auto& waiters : rob_flag_waiters_) {
    waiters.reserve(4);
  }
  for (auto& bucket : exec_wheel_) {
    bucket.reserve(4);
  }
  pending_bcast_.reserve(rob_.size());

  prf_port_state_.resize(8 * lanes_);
  alu_latch_state_.resize(4 * lanes_);
  cdb_state_.resize(4 * lanes_);
  retire_port_state_.resize(4 * lanes_);
  mdr_state_.resize(lanes_);
  align_buffer_state_.resize(lanes_);
  reset_structures();
}

void batch_ooo_core::validate_config() const {
  const ooo_config& ooo = config_.ooo;
  if (ooo.rob_entries < 2 || ooo.rename_width < 1 || ooo.retire_width < 1 ||
      ooo.rs_entries < 1 || ooo.cdb_width < 1 ||
      ooo.store_buffer_entries < 1) {
    throw util::simulation_error("ooo_config: widths/depths must be >= 1 "
                                 "(rob_entries >= 2)");
  }
  if (ooo.rename_width > 4 || ooo.retire_width > 4 || ooo.cdb_width > 4) {
    throw util::simulation_error(
        "ooo_config: rename/retire/cdb width beyond the 4 modelled ports");
  }
  if (ooo.rob_entries > ooo_max_rob_entries ||
      ooo.rs_entries > ooo_max_rs_entries) {
    throw util::simulation_error(
        "ooo_config: rob_entries/rs_entries beyond the 64-entry scheduler "
        "sizing cap (ooo_max_rob_entries/ooo_max_rs_entries)");
  }
  if (ooo.prf_size <= isa::num_registers + 1 || ooo.prf_size > 255) {
    throw util::simulation_error(
        "ooo_config: prf_size must lie in (17, 255] — 16 architectural "
        "mappings plus at least one rename target");
  }
  if (config_.issue_width < 1) {
    throw util::simulation_error("ooo backend requires issue_width >= 1");
  }
  // The reference scheduler is the differential oracle; its whole point
  // is being an independent implementation, so it has no batched twin.
  if (ooo.scheduler != ooo_scheduler::fast || ooo_reference_forced()) {
    throw util::simulation_error(
        "batch ooo backend supports only the fast scheduler (use "
        "USCA_SIM_BATCH=0 / per-trace cores for reference-scheduler runs)");
  }
  // Speculative lanes diverge down per-lane wrong paths, which the shared
  // front end of the SoA design cannot represent; the campaign layer
  // detects this and falls back to per-trace cores transparently.
  if (speculation_active(config_)) {
    throw util::simulation_error(
        "batch ooo backend does not model speculation (predictor != "
        "perfect); use per-trace cores — campaigns fall back automatically");
  }
}

void batch_ooo_core::reset_structures() {
  for (std::size_t r = 0; r < isa::num_registers; ++r) {
    rat_[r] = static_cast<std::uint8_t>(r);
  }
  free_pregs_.clear();
  for (int p = config_.ooo.prf_size - 1; p >= isa::num_registers; --p) {
    free_pregs_.push_back(static_cast<std::uint8_t>(p));
  }
  std::fill(preg_ready_.begin(), preg_ready_.end(), std::uint8_t{1});
  next_seq_ = 0;
  flags_producer_slot_ = no_slot;
  frontend_done_ = false;
  fetch_ready_ = 0;

  for (rob_entry& e : rob_) {
    e = rob_entry{};
  }
  rob_head_ = 0;
  rob_count_ = 0;
  for (rs_entry& e : rs_) {
    e = rs_entry{};
  }
  rs_used_ = 0;
  std::fill(rs_squash_.begin(), rs_squash_.end(), 0U);
  sb_head_ = 0;
  sb_count_ = 0;

  rs_busy_mask_ = 0;
  ready_mask_ = 0;
  age_to_slot_.fill(0);
  for (auto& waiters : preg_waiters_) {
    waiters.clear();
  }
  for (auto& waiters : rob_flag_waiters_) {
    waiters.clear();
  }
  for (auto& bucket : exec_wheel_) {
    bucket.clear();
  }
  exec_far_.clear();
  exec_in_flight_ = 0;
  pending_bcast_.clear();
  cycle_dirty_ = false;

  lsu_busy_until_ = 0;
  mul_busy_until_ = 0;
  prf_ports_used_this_cycle_ = 0;

  std::fill(prf_port_state_.begin(), prf_port_state_.end(), 0U);
  std::fill(alu_latch_state_.begin(), alu_latch_state_.end(), 0U);
  std::fill(cdb_state_.begin(), cdb_state_.end(), 0U);
  std::fill(retire_port_state_.begin(), retire_port_state_.end(), 0U);
  std::fill(mdr_state_.begin(), mdr_state_.end(), 0U);
  std::fill(align_buffer_state_.begin(), align_buffer_state_.end(), 0U);
  rat_port_state_.fill(0);
  tag_bus_state_.fill(0);

  pc_ = 0;
  halted_ = false;
  cycle_ = 0;
  renamed_ = 0;
  retired_ = 0;
  multi_rename_cycles_ = 0;
  active_lane_cycles_ = 0;
}

void batch_ooo_core::reset() {
  reset_lanes();
  reset_structures();
}

void batch_ooo_core::run(std::uint64_t max_cycles) {
  const cpu_state& lead = enter_run();
  pc_ = lead.pc;
  halted_ = lead.halted;

  const std::uint64_t start_cycle = cycle_;
  const std::uint64_t start_skipped = idle_skipped_;
  const std::uint64_t limit = cycle_ + max_cycles;
  while (!halted_) {
    if (cycle_ >= limit) {
      throw util::simulation_error(
          "batch ooo core exceeded the cycle budget");
    }
    step_cycle();
  }
  leave_run(pc_, halted_);
  static const telem::counter cycles{"sim.ooo.cycles", "cycles", "sim"};
  static const telem::counter skipped{"sim.ooo.idle_skipped", "cycles",
                                      "sim"};
  cycles.add(cycle_ - start_cycle);
  skipped.add(idle_skipped_ - start_skipped);
  note_batch_run(active_limit_, active_lane_cycles_);
  active_lane_cycles_ = 0;
}

// ---------------------------------------------------------------------------
// Event plumbing
// ---------------------------------------------------------------------------

void batch_ooo_core::drive_prf_port(const std::uint32_t* values) {
  const int port = prf_ports_used_this_cycle_++;
  if (port >= 8) {
    return; // the schedule stage bounds issue by the port budget
  }
  drive_lanes(component::prf_read_port, static_cast<std::uint8_t>(port),
              &prf_port_state_[static_cast<std::size_t>(port) * lanes_],
              values, cycle_, active_mask_);
}

// ---------------------------------------------------------------------------
// Retirement + store buffer
// ---------------------------------------------------------------------------

void batch_ooo_core::retire_stage() {
  const auto sb_capacity =
      static_cast<std::size_t>(config_.ooo.store_buffer_entries);
  int retired_now = 0;
  while (rob_count_ > 0 && retired_now < config_.ooo.retire_width &&
         !halted_) {
    rob_entry& head = rob_[rob_head_];
    if (!head.completed) {
      break;
    }
    if (head.is_store && sb_count_ >= sb_capacity) {
      break; // store buffer full: commit stalls
    }

    if (head.is_store) {
      const std::size_t tail = (sb_head_ + sb_count_) % sb_capacity;
      const std::size_t src = rob_head_ * lanes_;
      const std::size_t dst = tail * lanes_;
      std::copy_n(&rob_store_addr_[src], lanes_, &sb_addr_[dst]);
      ++sb_count_;
    }
    if (head.is_mark) {
      // Same safe cut as ooo_core::retire_stage, for every lane at once.
      if (commit_mark(
              mark_stamp{head.mark_id, cycle_, multi_rename_cycles_})) {
        halted_ = true;
      }
    }
    if (head.is_halt) {
      halted_ = true;
    }
    if (head.has_value) {
      const auto lane = static_cast<std::uint8_t>(retired_now % 4);
      drive_lanes(component::rob_retire_port, lane,
                  &retire_port_state_[static_cast<std::size_t>(lane) * lanes_],
                  &rob_value_[rob_head_ * lanes_], cycle_, active_mask_);
    }
    if (head.dest_arch != no_reg && head.old_preg != no_reg) {
      free_pregs_.push_back(head.old_preg);
    }
    if (flags_producer_slot_ == static_cast<std::uint32_t>(rob_head_)) {
      flags_producer_slot_ = no_slot;
    }

    head = rob_entry{};
    rob_head_ = (rob_head_ + 1) % rob_.size();
    --rob_count_;
    ++retired_;
    ++retired_now;
  }
  cycle_dirty_ |= retired_now > 0;
}

void batch_ooo_core::drain_store_buffer() {
  if (sb_count_ == 0) {
    return;
  }
  // One store per cycle; each lane probes its own D-cache at its own
  // address.  The per-trace path ignores the access's return value, so no
  // agreement is needed here — a diverging cache state surfaces (and
  // ejects) at the next load-penalty checkpoint.
  const std::size_t row = sb_head_ * lanes_;
  for (const std::size_t l : lanes_in(active_mask_)) {
    dcache_[l].access(sb_addr_[row + l]);
  }
  sb_head_ = (sb_head_ + 1) %
             static_cast<std::size_t>(config_.ooo.store_buffer_entries);
  --sb_count_;
  cycle_dirty_ = true;
}

// ---------------------------------------------------------------------------
// Completion broadcast (CDB)
// ---------------------------------------------------------------------------

void batch_ooo_core::deliver_operand(std::size_t slot) {
  rs_entry& rs = rs_[slot];
  if (--rs.wait_count == 0) {
    ready_mask_ |= std::uint64_t{1} << (rs.seq & (age_ring_size - 1));
  }
}

void batch_ooo_core::complete_rob(std::uint32_t slot) {
  rob_[slot].completed = true;
  auto& waiters = rob_flag_waiters_[slot];
  for (const std::uint8_t rs_slot : waiters) {
    rs_[rs_slot].flags_wait_slot = no_slot;
    deliver_operand(rs_slot);
  }
  waiters.clear();
}

void batch_ooo_core::add_exec(const exec_entry& ex) {
  ++exec_in_flight_;
  if (ex.complete_at - cycle_ < age_ring_size) {
    exec_wheel_[ex.complete_at & (age_ring_size - 1)].push_back(ex);
  } else {
    exec_far_.push_back(ex);
  }
}

void batch_ooo_core::broadcast_stage() {
  if (!exec_far_.empty()) [[unlikely]] {
    for (std::size_t i = 0; i < exec_far_.size();) {
      if (exec_far_[i].complete_at - cycle_ < age_ring_size) {
        exec_wheel_[exec_far_[i].complete_at & (age_ring_size - 1)]
            .push_back(exec_far_[i]);
        exec_far_[i] = exec_far_.back();
        exec_far_.pop_back();
      } else {
        ++i;
      }
    }
  }

  auto& bucket = exec_wheel_[cycle_ & (age_ring_size - 1)];
  for (const exec_entry& done : bucket) {
    cycle_dirty_ = true;
    --exec_in_flight_;
    if (!done.broadcasts) {
      complete_rob(done.rob_slot);
      continue;
    }
    auto it = pending_bcast_.begin();
    while (it != pending_bcast_.end() && it->seq > done.seq) {
      ++it;
    }
    pending_bcast_.insert(it, done);
  }
  bucket.clear();

  const int lanes_now = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(config_.ooo.cdb_width),
      pending_bcast_.size()));
  for (int lane = 0; lane < lanes_now; ++lane) {
    const exec_entry done = pending_bcast_.back();
    pending_bcast_.pop_back();
    cycle_dirty_ = true;

    const auto bus = static_cast<std::uint8_t>(lane % 4);
    // The ROB slot stays allocated until retirement (which runs before
    // this stage each cycle), so its value row is the µop's result — the
    // per-trace path's exec_entry::result — read per lane here.
    drive_lanes(component::cdb, bus,
                &cdb_state_[static_cast<std::size_t>(bus) * lanes_],
                &rob_value_[static_cast<std::size_t>(done.rob_slot) * lanes_],
                cycle_, active_mask_);
    // The destination tag is lane-invariant: every lane toggles
    // HD(old, new) = HW(old ^ new).
    lane_values flips;
    flips.fill(tag_bus_state_[bus] ^ done.dest_preg);
    weigh_lanes(component::rs_tag_bus, bus, flips.data(), cycle_, active_mask_);
    tag_bus_state_[bus] = done.dest_preg;

    preg_ready_[done.dest_preg] = 1;
    auto& waiters = preg_waiters_[done.dest_preg];
    for (const std::uint16_t w : waiters) {
      const std::size_t slot = w >> 2;
      rs_[slot].src_preg[w & 3] = no_reg;
      deliver_operand(slot);
    }
    waiters.clear();
    complete_rob(done.rob_slot);
  }
}

// ---------------------------------------------------------------------------
// Select + issue
// ---------------------------------------------------------------------------

bool batch_ooo_core::rs_fits_units(const rs_entry& rs, int prf_ports,
                                   int alus_used, bool alu0_used,
                                   bool lsu_used) const noexcept {
  if (prf_ports_used_this_cycle_ + static_cast<int>(rs.n_src) > prf_ports) {
    return false;
  }
  if (rs.uses_lsu) {
    return !(lsu_used || lsu_busy_until_ > cycle_);
  }
  if (rs.is_mul && mul_busy_until_ > cycle_) {
    return false;
  }
  if (alus_used >= config_.alu_count) {
    return false;
  }
  return !(rs.needs_alu0 && alu0_used);
}

void batch_ooo_core::drive_memory_path(const rs_entry& rs, std::size_t row,
                                       std::uint64_t executing) {
  drive_lanes(component::mdr, 0, mdr_state_.data(), &rs_mem_word_[row],
              cycle_ + 2, executing);
  if (rs.is_subword && config_.has_align_buffer) {
    drive_lanes(component::align_buffer, 0, align_buffer_state_.data(),
                &rs_sub_value_[row], cycle_ + 3, executing);
  }
}

void batch_ooo_core::drive_alu_latches(std::size_t slot, std::size_t n_src,
                                       int alu_index,
                                       std::uint64_t executing) {
  // Operand position p of ALU a drives latch a * 2 + p.
  for (std::size_t p = 0; p < n_src && p < 2; ++p) {
    const std::size_t latch = static_cast<std::size_t>(alu_index) * 2 + p;
    drive_lanes(component::alu_in_latch, static_cast<std::uint8_t>(latch),
                &alu_latch_state_[latch * lanes_],
                &rs_src_value_[(slot * max_sources + p) * lanes_],
                cycle_ + 1, executing);
  }
}

void batch_ooo_core::issue_entry(rs_entry& rs, int alu_index) {
  const auto slot = static_cast<std::size_t>(&rs - rs_.data());
  for (std::size_t s = 0; s < rs.n_src; ++s) {
    drive_prf_port(&rs_src_value_[(slot * max_sources + s) * lanes_]);
  }

  // Per-lane squash mask: a lane whose condition failed takes the same
  // trip (unit occupancy, latency, D-cache probe, CDB slot) but touches
  // no datapath structure beyond the PRF reads above.
  const std::uint64_t executing = active_mask_ & ~rs_squash_[slot];
  const std::size_t row = slot * lanes_;

  std::uint64_t complete_at;
  if (rs.is_load) {
    // Divergence checkpoint: each lane probes its own D-cache at its own
    // address, but the penalty is a shared scheduling input.
    std::array<int, max_batch_lanes> pen;
    for (const std::size_t l : lanes_in(active_mask_)) {
      pen[l] = dcache_[l].access(rs_address_[row + l]);
    }
    agree(pen.data());
    const int penalty = pen[leader()];
    complete_at =
        cycle_ + static_cast<std::uint64_t>(config_.lsu_latency + penalty);
    if (!config_.lsu_pipelined) {
      lsu_busy_until_ = complete_at;
    } else if (penalty > 0) {
      lsu_busy_until_ = cycle_ + static_cast<std::uint64_t>(penalty);
    }
    drive_memory_path(rs, row, executing);
  } else if (rs.is_store) {
    complete_at = cycle_ + 1;
    drive_memory_path(rs, row, executing);
  } else if (rs.is_mul) {
    complete_at = cycle_ + static_cast<std::uint64_t>(config_.mul_latency);
    if (!config_.mul_pipelined) {
      mul_busy_until_ = complete_at;
    }
    drive_alu_latches(slot, rs.n_src, 0, executing);
    weigh_lanes(component::alu_out, 0,
                &rob_value_[static_cast<std::size_t>(rs.rob_slot) * lanes_],
                complete_at - 1, executing);
  } else {
    std::uint64_t latency = 1;
    if (rs.used_shifter) {
      latency += static_cast<std::uint64_t>(config_.shift_extra_latency);
      weigh_lanes(component::shift_buffer, 0, &rs_shift_value_[row],
                  cycle_ + 1, executing);
    }
    complete_at = cycle_ + latency;
    drive_alu_latches(slot, rs.n_src, alu_index, executing);
    weigh_lanes(component::alu_out, static_cast<std::uint8_t>(alu_index),
                &rob_value_[static_cast<std::size_t>(rs.rob_slot) * lanes_],
                complete_at, executing);
  }

  exec_entry ex;
  ex.complete_at = complete_at;
  ex.rob_slot = rs.rob_slot;
  ex.seq = rs.seq;
  ex.dest_preg = rob_[rs.rob_slot].dest_preg;
  ex.broadcasts = ex.dest_preg != no_reg;
  add_exec(ex);

  rs.busy = false;
  --rs_used_;
  rs_busy_mask_ &= ~(std::uint64_t{1} << slot);
  ready_mask_ &= ~(std::uint64_t{1} << (rs.seq & (age_ring_size - 1)));
}

void batch_ooo_core::schedule_stage() {
  prf_ports_used_this_cycle_ = 0;
  if (ready_mask_ == 0) {
    return;
  }
  const int prf_ports = std::min(std::max(4, 2 * config_.issue_width), 8);
  int issued = 0;
  int alus_used = 0;
  bool alu0_used = false;
  bool lsu_used = false;

  const std::uint32_t head_pos = rob_[rob_head_].seq & (age_ring_size - 1);
  while (issued < config_.issue_width && ready_mask_ != 0) {
    std::uint64_t m = std::rotr(ready_mask_, static_cast<int>(head_pos));
    rs_entry* pick = nullptr;
    while (m != 0) {
      const auto offset = static_cast<std::uint32_t>(std::countr_zero(m));
      const std::uint32_t pos = (head_pos + offset) & (age_ring_size - 1);
      rs_entry& candidate = rs_[age_to_slot_[pos]];
      if (rs_fits_units(candidate, prf_ports, alus_used, alu0_used,
                        lsu_used)) {
        pick = &candidate;
        break;
      }
      m &= m - 1;
    }
    if (pick == nullptr) {
      break;
    }
    int alu_index = 0;
    if (pick->uses_lsu) {
      lsu_used = true;
    } else {
      ++alus_used;
      if (pick->needs_alu0 || !alu0_used) {
        alu_index = 0;
        alu0_used = true;
      } else {
        alu_index = 1;
      }
    }
    issue_entry(*pick, alu_index);
    ++issued;
  }
  cycle_dirty_ |= issued > 0;
}

// ---------------------------------------------------------------------------
// Rename: in-order front end, architectural execution per lane
// ---------------------------------------------------------------------------

void batch_ooo_core::dispatch_to_rs(rs_entry& rs, std::uint32_t rob_slot,
                                    std::size_t rs_slot) {
  rs.busy = true;
  rs.rob_slot = rob_slot;
  rs_busy_mask_ |= std::uint64_t{1} << rs_slot;
  rs.wait_count = 0;
  rs_[rs_slot] = rs;
  rs_entry& placed = rs_[rs_slot];
  for (std::size_t s = 0; s < placed.n_src; ++s) {
    if (placed.src_preg[s] != no_reg) {
      preg_waiters_[placed.src_preg[s]].push_back(
          static_cast<std::uint16_t>((rs_slot << 2) | s));
      ++placed.wait_count;
    }
  }
  if (placed.flags_wait_slot != no_slot) {
    rob_flag_waiters_[placed.flags_wait_slot].push_back(
        static_cast<std::uint8_t>(rs_slot));
    ++placed.wait_count;
  }
  const std::uint32_t pos = placed.seq & (age_ring_size - 1);
  age_to_slot_[pos] = static_cast<std::uint8_t>(rs_slot);
  if (placed.wait_count == 0) {
    ready_mask_ |= std::uint64_t{1} << pos;
  }
  ++rs_used_;
}

std::uint8_t batch_ooo_core::alloc_preg() {
  const std::uint8_t p = free_pregs_.back();
  free_pregs_.pop_back();
  preg_ready_[p] = 0;
  return p;
}

batch_ooo_core::rename_result batch_ooo_core::rename_one(int slot) {
  const std::size_t index = pc_;
  const instruction& ins = prog_->code[index];
  const bool serializing = ins.op == opcode::mark || ins.op == opcode::halt;

  // All structural stalls are checked before any architectural effect —
  // shared decisions over shared occupancy state, exactly the per-trace
  // conditions.
  if (serializing &&
      (rob_count_ > 0 || slot > 0 || !in_flight_empty() || rs_used_ > 0)) {
    return rename_result::stall;
  }
  if (rob_count_ >= rob_.size() || rs_used_ >= rs_.size() ||
      free_pregs_.empty()) {
    return rename_result::stall;
  }
  const int penalty = icache_.access(prog_->address_of(index));
  if (penalty > 0) {
    fetch_ready_ = cycle_ + static_cast<std::uint64_t>(penalty);
    return rename_result::stall;
  }

  const auto rob_slot =
      static_cast<std::uint32_t>((rob_head_ + rob_count_) % rob_.size());
  rob_entry entry;
  entry.seq = next_seq_;
  const std::size_t vrow = static_cast<std::size_t>(rob_slot) * lanes_;
  // The value row must be zero for entries that never write it: alu_out's
  // Hamming-weight emission for a dest-less µop (cmp/tst) reads this row
  // where the per-trace path reads a zero-initialized rs_entry::result.
  std::fill_n(&rob_value_[vrow], lanes_, 0U);

  // Prospective RS slot: countr_zero over the inverted busy mask — the
  // same expression dispatch_to_rs allocates from, and the mask cannot
  // change between here and there.  Lane-major RS rows are written in
  // place at this slot during rename.
  const auto rs_slot =
      static_cast<std::size_t>(std::countr_zero(~rs_busy_mask_));
  const std::size_t rs_row = rs_slot * lanes_;

  // Per-lane condition outcome.  Only branches promote it to a shared
  // control input (agreement below); everywhere else it stays lane-local
  // data, gating lane-local effects via the squash mask.
  const std::uint64_t exec_mask = ins.cond == isa::condition::al
                                     ? ~std::uint64_t{0}
                                     : passing_lanes(ins.cond);

  std::size_t next_pc = pc_ + 1;

  rs_entry rs;
  rs.seq = entry.seq;
  bool to_rs = false;
  bool redirected = false;
  const auto add_src = [&](reg r) {
    const std::uint8_t preg = rat_[isa::index_of(r)];
    rs.src_preg[rs.n_src] = preg_ready_[preg] ? no_reg : preg;
    read_reg(r, &rs_src_value_[(rs_slot * max_sources + rs.n_src) * lanes_]);
    ++rs.n_src;
  };
  const auto rename_dest = [&](reg rd, const std::uint32_t* values) {
    entry.dest_arch = isa::index_of(rd);
    entry.old_preg = rat_[entry.dest_arch];
    entry.dest_preg = alloc_preg();
    rat_[entry.dest_arch] = entry.dest_preg;
    for (const std::size_t l : lanes_in(active_mask_)) {
      rob_value_[vrow + l] = values[l];
    }
    entry.has_value = true;
    // RAT write port: the tag is lane-invariant (see broadcast_stage).
    const auto lane = static_cast<std::uint8_t>(slot % 4);
    lane_values flips;
    flips.fill(rat_port_state_[lane] ^ entry.dest_preg);
    weigh_lanes(component::rat_port, lane, flips.data(), cycle_, active_mask_);
    rat_port_state_[lane] = entry.dest_preg;
  };
  const auto wait_flags = [&] {
    if (flags_producer_slot_ != no_slot &&
        !rob_[flags_producer_slot_].completed) {
      rs.flags_wait_slot = flags_producer_slot_;
    }
  };

  // --- simulator pseudo-ops ------------------------------------------------
  if (ins.op == opcode::mark) {
    entry.is_mark = true;
    entry.mark_id = ins.imm16;
    entry.completed = true;
    pc_ = next_pc;
  } else if (ins.op == opcode::halt) {
    entry.is_halt = true;
    entry.completed = true;
    // pc intentionally left on the halt: the machine stops at commit.
  } else if (isa::is_nop(ins)) {
    entry.completed = true;
    pc_ = next_pc;
  } else if (isa::is_branch(ins)) {
    // Divergence checkpoint: the condition outcome steers the front end.
    const bool exec = agree_bit(exec_mask);
    if (ins.op == opcode::bx) {
      if (exec) {
        // Second checkpoint: the indirect target IS the fetch stream.
        lane_values target;
        read_reg(ins.op2.rm, target.data());
        agree(target.data());
        const auto target_index =
            prog_->index_of_address(target[leader()]);
        if (!target_index) {
          frontend_done_ = true;
          entry.completed = true;
          entry.is_halt = true;
          rob_[rob_slot] = entry;
          ++rob_count_;
          ++next_seq_;
          ++renamed_;
          return rename_result::accepted_stop;
        }
        next_pc = *target_index;
      }
    } else if (exec) {
      const auto target = static_cast<std::size_t>(
          static_cast<std::int64_t>(pc_) + 1 + ins.branch_offset);
      if (ins.op == opcode::bl) {
        const std::uint32_t link = prog_->address_of(pc_ + 1);
        lane_values link_row;
        link_row.fill(link);
        rename_dest(reg::lr, link_row.data());
        preg_ready_[entry.dest_preg] = 1; // value known at rename
        write_reg(reg::lr, link_row.data(), active_mask_);
      }
      next_pc = target;
    }
    redirected = next_pc != pc_ + 1;
    if (redirected && !config_.perfect_branch_prediction) {
      fetch_ready_ =
          cycle_ + 1 +
          static_cast<std::uint64_t>(config_.branch_mispredict_penalty);
    }
    entry.completed = true;
    pc_ = next_pc;
  } else if (isa::is_memory(ins)) {
    add_src(ins.mem.base);
    if (ins.mem.reg_offset) {
      add_src(ins.mem.offset_reg);
    }
    std::uint32_t* addr = &rs_address_[rs_row];
    effective_addresses(ins, addr);
    rs.uses_lsu = true;
    rs.is_subword = isa::is_subword(ins);
    if (isa::reads_flags(ins)) {
      wait_flags();
    }

    rs_squash_[rs_slot] = active_mask_ & ~exec_mask;
    if (isa::is_load(ins)) {
      if (ins.cond != isa::condition::al) {
        add_src(ins.rd); // select µop reads the old destination
      }
      lane_values value;
      for (const std::size_t l : lanes_in(active_mask_)) {
        value[l] = state_[l].reg(ins.rd); // kept on a failed condition
        if ((exec_mask >> l) & 1U) {
          switch (ins.op) {
          case opcode::ldr:
            value[l] = memory_[l].read32(addr[l]);
            break;
          case opcode::ldrb:
            value[l] = memory_[l].read8(addr[l]);
            break;
          case opcode::ldrh:
            value[l] = memory_[l].read16(addr[l]);
            break;
          default:
            break;
          }
          rs_mem_word_[rs_row + l] = memory_[l].containing_word(addr[l]);
        }
      }
      rename_dest(ins.rd, value.data());
      for (const std::size_t l : lanes_in(active_mask_)) {
        state_[l].set_reg(ins.rd, value[l]);
        rs_sub_value_[rs_row + l] = value[l];
      }
      rs.is_load = true;
    } else {
      lane_values data;
      read_reg(ins.rd, data.data());
      add_src(ins.rd); // store data is a register source
      for (const std::size_t l : lanes_in(active_mask_ & exec_mask)) {
        switch (ins.op) {
        case opcode::str:
          memory_[l].write32(addr[l], data[l]);
          break;
        case opcode::strb:
          memory_[l].write8(addr[l], static_cast<std::uint8_t>(data[l]));
          break;
        case opcode::strh:
          memory_[l].write16(addr[l], static_cast<std::uint16_t>(data[l]));
          break;
        default:
          break;
        }
        rs_mem_word_[rs_row + l] = memory_[l].containing_word(addr[l]);
        rs_sub_value_[rs_row + l] = ins.op == opcode::strb
                                        ? (data[l] & 0xffU)
                                        : (data[l] & 0xffffU);
      }
      rs.is_store = true;
      // A squashed store still occupies its store-buffer slot at commit
      // (the drain probes the computed address; memory is untouched).
      entry.is_store = true;
      entry.has_value = true;
      for (const std::size_t l : lanes_in(active_mask_)) {
        rob_store_addr_[vrow + l] = addr[l];
        rob_value_[vrow + l] = data[l];
      }
    }
    to_rs = true;
    pc_ = next_pc;
  } else if (ins.op == opcode::mul || ins.op == opcode::mla) {
    add_src(ins.rn);
    add_src(ins.op2.rm);
    lane_values acc{};
    if (ins.op == opcode::mla) {
      add_src(ins.ra);
      read_reg(ins.ra, acc.data());
    }
    if (isa::reads_flags(ins)) {
      wait_flags();
    }
    if (ins.cond != isa::condition::al) {
      add_src(ins.rd); // select µop reads the old destination
    }
    rs.is_mul = true;
    rs.needs_alu0 = true;
    rs_squash_[rs_slot] = active_mask_ & ~exec_mask;
    lane_values result;
    for (const std::size_t l : lanes_in(active_mask_)) {
      result[l] = ((exec_mask >> l) & 1U) != 0
                      ? state_[l].reg(ins.rn) * state_[l].reg(ins.op2.rm) +
                            acc[l]
                      : state_[l].reg(ins.rd);
    }
    rename_dest(ins.rd, result.data());
    write_reg(ins.rd, result.data(), active_mask_);
    if (ins.set_flags) {
      for (const std::size_t l : lanes_in(active_mask_ & exec_mask)) {
        state_[l].f.n = (result[l] >> 31) != 0;
        state_[l].f.z = result[l] == 0;
      }
      // The flag rename happens either way: younger flag readers wait on
      // this µop independent of the condition's outcome.
      flags_producer_slot_ = rob_slot;
    }
    to_rs = true;
    pc_ = next_pc;
  } else {
    // Data processing (incl. movw/movt and standalone shifts).
    const bool has_rn = !(ins.op == opcode::mov || ins.op == opcode::mvn ||
                          ins.op == opcode::movw || ins.op == opcode::movt);
    lane_values rn_value{};
    if (has_rn) {
      add_src(ins.rn);
      read_reg(ins.rn, rn_value.data());
    }

    lane_values result{};
    std::array<isa::flags, max_batch_lanes> dp_flags;
    bool writes_result = true;
    bool flags_op = false;
    if (ins.op == opcode::movw) {
      result.fill(ins.imm16);
    } else if (ins.op == opcode::movt) {
      add_src(ins.rd);
      for (const std::size_t l : lanes_in(active_mask_)) {
        result[l] = (state_[l].reg(ins.rd) & 0xffffU) |
                    (static_cast<std::uint32_t>(ins.imm16) << 16);
      }
    } else {
      // The operand-2 *structure* (used_shifter, the source registers it
      // adds) is static per instruction; only the values are per lane.
      bool used_shifter = false;
      for (const std::size_t l : lanes_in(active_mask_)) {
        const operand2_value op2 = eval_operand2(
            ins, [this, l](reg r) { return state_[l].reg(r); },
            state_[l].f.c);
        rs_shift_value_[rs_row + l] = op2.value;
        const alu_result dp = execute_dp(ins.op, rn_value[l], op2.value,
                                         op2.carry, state_[l].f);
        result[l] = dp.value;
        dp_flags[l] = dp.f;
        writes_result = dp.writes_result;
        used_shifter = op2.used_shifter;
      }
      if (ins.op2.k == isa::operand2::kind::reg_shifted) {
        add_src(ins.op2.rm);
        if (ins.op2.shift.by_register) {
          add_src(ins.op2.shift.amount_reg);
        }
      }
      rs.used_shifter = used_shifter;
      rs.needs_alu0 = used_shifter;
      flags_op = isa::writes_flags(ins);
    }

    if (isa::reads_flags(ins)) {
      wait_flags();
    }
    rs_squash_[rs_slot] = active_mask_ & ~exec_mask;
    if (writes_result) {
      if (ins.cond != isa::condition::al && ins.op != opcode::movt) {
        add_src(ins.rd);
      }
      lane_values committed;
      for (const std::size_t l : lanes_in(active_mask_)) {
        committed[l] = ((exec_mask >> l) & 1U) != 0 ? result[l]
                                                    : state_[l].reg(ins.rd);
      }
      rename_dest(ins.rd, committed.data());
      write_reg(ins.rd, committed.data(), active_mask_);
    }
    if (flags_op) {
      for (const std::size_t l : lanes_in(active_mask_ & exec_mask)) {
        state_[l].f = dp_flags[l];
      }
      flags_producer_slot_ = rob_slot;
    }
    to_rs = true;
    pc_ = next_pc;
  }

  rob_[rob_slot] = entry;
  ++rob_count_;
  if (to_rs) {
    dispatch_to_rs(rs, rob_slot, rs_slot);
  }
  ++next_seq_;
  ++renamed_;

  if (pc_ >= prog_->code.size() && !entry.is_halt) {
    frontend_done_ = true;
    return rename_result::accepted_stop;
  }
  if (redirected && !config_.perfect_branch_prediction) {
    return rename_result::accepted_stop;
  }
  if (serializing) {
    return rename_result::accepted_stop;
  }
  return rename_result::accepted;
}

void batch_ooo_core::rename_stage() {
  if (frontend_done_ || cycle_ < fetch_ready_) {
    return;
  }
  if (pc_ >= prog_->code.size()) {
    frontend_done_ = true; // fell off the end without a halt
    return;
  }
  int renamed_now = 0;
  while (renamed_now < config_.ooo.rename_width &&
         pc_ < prog_->code.size()) {
    const rename_result r = rename_one(renamed_now);
    if (r == rename_result::stall) {
      break;
    }
    ++renamed_now;
    if (r == rename_result::accepted_stop) {
      break;
    }
  }
  cycle_dirty_ |= renamed_now > 0;
  if (renamed_now >= 2) {
    ++multi_rename_cycles_;
  }
}

std::uint64_t batch_ooo_core::next_event_cycle() const noexcept {
  std::uint64_t next = ~std::uint64_t{0};
  if (exec_in_flight_ > 0) {
    for (std::uint64_t c = cycle_ + 1; c <= cycle_ + age_ring_size; ++c) {
      if (!exec_wheel_[c & (age_ring_size - 1)].empty()) {
        next = std::min(next, c);
        break;
      }
    }
    for (const exec_entry& ex : exec_far_) {
      next = std::min(next, ex.complete_at);
    }
  }
  if (!frontend_done_ && fetch_ready_ > cycle_) {
    next = std::min(next, fetch_ready_);
  }
  if (lsu_busy_until_ > cycle_) {
    next = std::min(next, lsu_busy_until_);
  }
  if (mul_busy_until_ > cycle_) {
    next = std::min(next, mul_busy_until_);
  }
  return next == ~std::uint64_t{0} ? cycle_ + 1 : next;
}

bool batch_ooo_core::step_cycle() {
  if (halted_) {
    return false;
  }
  active_lane_cycles_ +=
      static_cast<std::uint64_t>(std::popcount(active_mask_));
  cycle_dirty_ = false;
  retire_stage();
  if (halted_) {
    ++cycle_;
    return false;
  }
  drain_store_buffer();
  broadcast_stage();
  schedule_stage();
  rename_stage();

  if (frontend_done_ && rob_count_ == 0 && in_flight_empty() &&
      sb_count_ == 0) {
    halted_ = true;
  }
  if (!halted_ && !cycle_dirty_) {
    const std::uint64_t next = next_event_cycle();
    idle_skipped_ += next - cycle_ - 1;
    cycle_ = next;
  } else {
    ++cycle_;
  }
  return !halted_;
}

} // namespace usca::sim
