#include "sim/ooo/ooo_control.h"

#include "util/error.h"

namespace usca::sim {

namespace {

void validate(const micro_arch_config& config) {
  constexpr int ports = ooo_control::ports;
  const ooo_config& ooo = config.ooo;
  if (ooo.rob_entries < 2 || ooo.rename_width < 1 || ooo.retire_width < 1 ||
      ooo.rs_entries < 1 || ooo.cdb_width < 1 ||
      ooo.store_buffer_entries < 1) {
    throw util::simulation_error("ooo_config: widths/depths must be >= 1 "
                                 "(rob_entries >= 2)");
  }
  // The lane-state arrays (RAT/CDB/tag-bus/retire ports) model 4 ports;
  // wider configurations would silently alias lanes and corrupt the
  // before/after Hamming distances.
  if (ooo.rename_width > ports || ooo.retire_width > ports ||
      ooo.cdb_width > ports) {
    throw util::simulation_error(
        "ooo_config: rename/retire/cdb width beyond the 4 modelled ports");
  }
  // The fast scheduler tracks readiness in one 64-bit mask over an
  // age-ordered ring indexed by seq mod 64; positions stay unique only
  // while the in-flight window (bounded by the ROB) fits in 64 sequence
  // numbers.  Enforced regardless of the scheduler choice so that a
  // configuration's validity never depends on the implementation.
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
  if (config.issue_width < 1) {
    throw util::simulation_error("ooo backend requires issue_width >= 1");
  }
}

} // namespace

ooo_control::ooo_control(const micro_arch_config& config) : config_(config) {
  validate(config_);
  const ooo_config& ooo = config_.ooo;
  rob.resize(static_cast<std::size_t>(ooo.rob_entries));
  rs.resize(static_cast<std::size_t>(ooo.rs_entries));
  free_pregs.reserve(static_cast<std::size_t>(ooo.prf_size));
  preg_ready.resize(static_cast<std::size_t>(ooo.prf_size));
  preg_waiters_.resize(static_cast<std::size_t>(ooo.prf_size));
  for (auto& waiters : preg_waiters_) {
    waiters.reserve(max_sources);
  }
  rob_flag_waiters_.resize(rob.size());
  for (auto& waiters : rob_flag_waiters_) {
    waiters.reserve(4);
  }
  for (auto& bucket : exec_wheel_) {
    bucket.reserve(4);
  }
  pending_bcast_.reserve(rob.size());
  reset();
}

void ooo_control::reset() {
  for (std::size_t r = 0; r < isa::num_registers; ++r) {
    rat[r] = static_cast<std::uint8_t>(r);
  }
  free_pregs.clear();
  // Pop order is descending so allocation order is deterministic and
  // dense: 16, 17, 18, ...
  for (int p = config_.ooo.prf_size - 1; p >= isa::num_registers; --p) {
    free_pregs.push_back(static_cast<std::uint8_t>(p));
  }
  std::fill(preg_ready.begin(), preg_ready.end(), std::uint8_t{1});
  next_seq = 0;
  flags_producer_slot = no_slot;
  frontend_done = false;
  fetch_ready = 0;

  std::fill(rob.begin(), rob.end(), rob_entry{});
  rob_head = 0;
  rob_count = 0;
  std::fill(rs.begin(), rs.end(), rs_entry{});
  rs_used = 0;
  sb_head = 0;
  sb_count = 0;

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

  lsu_busy_until = 0;
  mul_busy_until = 0;
  prf_ports_used = 0;
  cycle = 0;
  cycle_dirty = false;
  retired = 0;
  multi_rename_cycles = 0;
}

void ooo_control::dispatch(const rs_entry& entry, std::uint32_t rob_slot,
                           std::size_t slot) {
  // `slot` is free_rs_slot(): countr_zero over the inverted busy mask IS
  // the reference's first-free-by-index scan.
  rs_busy_mask_ |= std::uint64_t{1} << slot;
  rs_entry& placed = rs[slot];
  placed = entry;
  placed.busy = true;
  placed.rob_slot = rob_slot;
  placed.wait_count = 0;
  // Register with the producers we are waiting on; each delivery
  // decrements wait_count, and the entry turns ready at zero.
  for (std::size_t s = 0; s < placed.n_src; ++s) {
    if (placed.src_preg[s] != no_reg) {
      preg_waiters_[placed.src_preg[s]].push_back(
          static_cast<std::uint16_t>((slot << 2) | s));
      ++placed.wait_count;
    }
  }
  if (placed.flags_wait_slot != no_slot) {
    rob_flag_waiters_[placed.flags_wait_slot].push_back(
        static_cast<std::uint8_t>(slot));
    ++placed.wait_count;
  }
  const std::uint32_t pos = placed.seq & (age_ring_size - 1);
  age_to_slot_[pos] = static_cast<std::uint8_t>(slot);
  if (placed.wait_count == 0) {
    ready_mask_ |= std::uint64_t{1} << pos;
  }
  ++rs_used;
}

void ooo_control::drain_wheel() {
  if (!exec_far_.empty()) [[unlikely]] {
    // Far-future completions migrate into the wheel once within range.
    for (std::size_t i = 0; i < exec_far_.size();) {
      if (exec_far_[i].complete_at - cycle < age_ring_size) {
        exec_wheel_[exec_far_[i].complete_at & (age_ring_size - 1)]
            .push_back(exec_far_[i]);
        exec_far_[i] = exec_far_.back();
        exec_far_.pop_back();
      } else {
        ++i;
      }
    }
  }

  // Results that need a CDB lane join the pending list (kept
  // seq-descending so the oldest µop sits at the back), the rest complete
  // immediately.  The current bucket holds exactly this cycle's
  // completions: entries land at most 63 cycles ahead, and the idle skip
  // never jumps past a scheduled completion, so no bucket is ever drained
  // late or early.
  auto& bucket = exec_wheel_[cycle & (age_ring_size - 1)];
  for (const exec_entry& done : bucket) {
    cycle_dirty = true;
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
}

void ooo_control::squash_younger(std::uint32_t branch_slot,
                                 std::uint32_t branch_seq,
                                 std::uint32_t ckpt_flags_slot,
                                 std::uint32_t ckpt_flags_seq) {
  // Walk the ROB tail back to (exclusive) the branch, youngest first:
  // each step undoes one rename (RAT mapping via the old_preg chain,
  // physical register back to the free list).  Pushing youngest-first
  // restores the free list's exact stack order.
  while (rob_count > 0) {
    const std::size_t tail = (rob_head + rob_count - 1) % rob.size();
    if (tail == branch_slot) {
      break;
    }
    rob_entry& e = rob[tail];
    if (e.dest_arch != no_reg) {
      rat[e.dest_arch] = e.old_preg;
      preg_ready[e.dest_preg] = 1;
      preg_waiters_[e.dest_preg].clear();
      free_pregs.push_back(e.dest_preg);
    }
    rob_flag_waiters_[tail].clear();
    e = rob_entry{};
    --rob_count;
  }

  // Purge younger reservation-station entries and their bookkeeping.
  for (std::size_t slot = 0; slot < rs.size(); ++slot) {
    rs_entry& entry = rs[slot];
    if (entry.busy && entry.seq > branch_seq) {
      entry.busy = false;
      --rs_used;
      rs_busy_mask_ &= ~(std::uint64_t{1} << slot);
      ready_mask_ &= ~(std::uint64_t{1} << (entry.seq & (age_ring_size - 1)));
    }
  }
  // Drop purged slots from surviving producers' waiter lists (a younger
  // µop can wait on an older result).  Every subscribed slot is now
  // either still busy (live) or just purged, so the busy flag is the
  // exact membership test.
  for (auto& waiters : preg_waiters_) {
    std::erase_if(waiters,
                  [this](std::uint16_t w) { return !rs[w >> 2].busy; });
  }
  for (auto& waiters : rob_flag_waiters_) {
    std::erase_if(waiters,
                  [this](std::uint8_t slot) { return !rs[slot].busy; });
  }
  const auto younger = [branch_seq](const exec_entry& ex) {
    return ex.seq > branch_seq;
  };
  for (auto& bucket : exec_wheel_) {
    exec_in_flight_ -= std::erase_if(bucket, younger);
  }
  exec_in_flight_ -= std::erase_if(exec_far_, younger);
  // Pending entries already left the calendar (and its in-flight count);
  // they just lose their CDB slot.
  std::erase_if(pending_bcast_, younger);

  // The flag producer reverts to the checkpointed one — unless that
  // entry has retired (possibly letting the slot be reused), which the
  // recorded seq detects; then there is nothing to wait on.
  flags_producer_slot = no_slot;
  if (ckpt_flags_slot != no_slot) {
    const std::size_t pos =
        (static_cast<std::size_t>(ckpt_flags_slot) + rob.size() - rob_head) %
        rob.size();
    if (pos < rob_count && rob[ckpt_flags_slot].seq == ckpt_flags_seq) {
      flags_producer_slot = ckpt_flags_slot;
    }
  }
  // Squashed sequence numbers are reused: the age ring needs the
  // in-flight seq window to stay dense.
  next_seq = branch_seq + 1;
  cycle_dirty = true;
}

// Next cycle at which a frozen machine can change state: the earliest
// pending completion, the fetch resume point, a unit freeing up, or the
// datapath's own event.  Only consulted when the current cycle did no
// observable work, in which case every cycle up to (exclusive) the
// returned one is provably a no-op in the reference scheduler too — the
// basis of the idle-cycle skip.
std::uint64_t
ooo_control::next_event_cycle(std::uint64_t extra_event) const noexcept {
  std::uint64_t next = extra_event;
  if (exec_in_flight_ > 0) {
    // Nearest scheduled completion: first non-empty wheel bucket ahead of
    // the current cycle (the current bucket was already drained), plus
    // anything still parked beyond the wheel horizon.
    for (std::uint64_t c = cycle + 1; c <= cycle + age_ring_size; ++c) {
      if (!exec_wheel_[c & (age_ring_size - 1)].empty()) {
        next = std::min(next, c);
        break;
      }
    }
    for (const exec_entry& ex : exec_far_) {
      next = std::min(next, ex.complete_at);
    }
  }
  if (!frontend_done && fetch_ready > cycle) {
    next = std::min(next, fetch_ready);
  }
  if (lsu_busy_until > cycle) {
    next = std::min(next, lsu_busy_until);
  }
  if (mul_busy_until > cycle) {
    next = std::min(next, mul_busy_until);
  }
  return next == never ? cycle + 1 : next;
}

} // namespace usca::sim
