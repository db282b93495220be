#include "core/leakage_scanner.h"

#include <optional>
#include <sstream>

#include "isa/disasm.h"
#include "sim/inorder_control.h"

namespace usca::core {

namespace {

using isa::instruction;
using isa::reg;

/// Symbolic occupant of a pipeline structure.
struct occupant {
  std::size_t instr_index = 0;
  std::string description;
  bool is_zero = false;  ///< structure was zeroized (nop / reset)
  bool has_reg = false;  ///< occupant is a register value
  isa::reg source_reg = isa::reg::r0;
  std::size_t reg_version = 0; ///< write count of source_reg at occupancy
};

std::string operand_desc(const char* position, reg r) {
  std::string out(position);
  out += " (";
  out += isa::reg_name(r);
  out += ")";
  return out;
}

occupant reg_occupant(std::size_t index, const char* position, reg r,
                      const std::array<std::size_t, isa::num_registers>&
                          reg_versions) {
  occupant occ{index, operand_desc(position, r)};
  occ.has_reg = true;
  occ.source_reg = r;
  occ.reg_version = reg_versions[isa::index_of(r)];
  return occ;
}

} // namespace

std::string_view leak_cause_name(leak_cause cause) noexcept {
  switch (cause) {
  case leak_cause::operand_bus_sharing:
    return "operand-bus sharing";
  case leak_cause::alu_latch_remanence:
    return "ALU-input-latch remanence";
  case leak_cause::nop_boundary_hw:
    return "nop boundary effect";
  case leak_cause::wb_bus_sharing:
    return "write-back sharing";
  case leak_cause::mdr_remanence:
    return "MDR remanence";
  case leak_cause::align_buffer_remanence:
    return "align-buffer remanence";
  }
  return "?";
}

leakage_scanner::leakage_scanner(sim::micro_arch_config config)
    : config_(config) {}

std::vector<leak_finding>
leakage_scanner::scan(const asmx::program& prog,
                      std::size_t max_findings) const {
  std::vector<leak_finding> findings;
  // Structure occupancy.
  std::array<std::size_t, isa::num_registers> reg_versions{};
  std::array<std::optional<occupant>, 3> bus;       // IS/EX operand buses
  std::array<std::optional<occupant>, 4> alu_latch; // per-ALU input latches
  std::array<std::optional<occupant>, 2> wb;        // WB bus/latch per slot
  std::optional<occupant> mdr;
  std::optional<occupant> align;

  const auto add_hd = [&](leak_cause cause, const std::string& structure,
                          const std::optional<occupant>& old_occ,
                          const occupant& new_occ,
                          const std::string& explanation) {
    if (!old_occ || old_occ->is_zero || findings.size() >= max_findings) {
      return;
    }
    if (old_occ->instr_index == new_occ.instr_index &&
        old_occ->description == new_occ.description) {
      return;
    }
    // The same register value re-asserted on the structure switches no
    // bits: not a combination (e.g. a shared mask operand).
    if (old_occ->has_reg && new_occ.has_reg &&
        old_occ->source_reg == new_occ.source_reg &&
        old_occ->reg_version == new_occ.reg_version) {
      return;
    }
    leak_finding f;
    f.cause = cause;
    f.structure = structure;
    f.older = {old_occ->instr_index, old_occ->description,
               old_occ->has_reg ? static_cast<int>(isa::index_of(old_occ->source_reg)) : -1};
    f.newer = {new_occ.instr_index, new_occ.description,
               new_occ.has_reg ? static_cast<int>(isa::index_of(new_occ.source_reg)) : -1};
    f.hamming_weight = false;
    f.explanation = explanation;
    findings.push_back(std::move(f));
  };

  const auto add_hw = [&](leak_cause cause, const std::string& structure,
                          const occupant& occ,
                          const std::string& explanation) {
    if (findings.size() >= max_findings) {
      return;
    }
    leak_finding f;
    f.cause = cause;
    f.structure = structure;
    f.older = {occ.instr_index, occ.description,
               occ.has_reg ? static_cast<int>(isa::index_of(occ.source_reg)) : -1};
    f.hamming_weight = true;
    f.explanation = explanation;
    findings.push_back(std::move(f));
  };

  // Static schedule: greedy in-order dual-issue under the same rules as
  // the pipeline (alignment included), assuming no dynamic stalls.
  std::size_t index = 0;
  const std::size_t n = prog.code.size();
  while (index < n) {
    const instruction& first = prog.code[index];
    int group = 1;
    if (index + 1 < n &&
        (!config_.pair_aligned_fetch_only || index % 2 == 0) &&
        !isa::is_branch(first) &&
        sim::statically_pairable(config_, first, prog.code[index + 1])) {
      group = 2;
    }

    for (int slot = 0; slot < group; ++slot) {
      const std::size_t i = index + static_cast<std::size_t>(slot);
      const instruction& ins = prog.code[i];

      if (isa::is_nop(ins)) {
        // nop zeroizes the slot-0 operand buses and the WB buses: any
        // occupant value is exposed as a Hamming weight.
        if (config_.nop_drives_zero_operands) {
          for (int lane = 0; lane < 2; ++lane) {
            auto& b = bus[static_cast<std::size_t>(lane)];
            if (b && !b->is_zero) {
              add_hw(leak_cause::nop_boundary_hw,
                     "IS/EX bus " + std::to_string(lane), *b,
                     "nop drives zero operands: previous bus value exposed "
                     "as Hamming weight");
            }
            b = occupant{i, "zero", true};
          }
        }
        if (config_.nop_zeroes_wb_bus) {
          for (int lane = 0; lane < 2; ++lane) {
            auto& w = wb[static_cast<std::size_t>(lane)];
            if (w && !w->is_zero) {
              add_hw(leak_cause::nop_boundary_hw,
                     "WB bus " + std::to_string(lane), *w,
                     "nop resets the write-back bus: previous result "
                     "exposed as Hamming weight");
            }
            w = occupant{i, "zero", true};
          }
        }
        continue;
      }
      if (ins.op == isa::opcode::mark || ins.op == isa::opcode::halt ||
          isa::is_branch(ins)) {
        continue;
      }

      if (isa::is_memory(ins)) {
        const occupant mem_occ =
            isa::is_load(ins)
                ? occupant{i, "loaded value"}
                : reg_occupant(i, "store data", ins.rd, reg_versions);
        add_hd(leak_cause::mdr_remanence, "MDR", mdr, mem_occ,
               "consecutive memory accesses share the memory data register "
               "(full 32-bit words, sub-word accesses included)");
        mdr = mem_occ;
        if (isa::is_subword(ins) && config_.has_align_buffer) {
          add_hd(leak_cause::align_buffer_remanence, "align buffer", align,
                 mem_occ,
                 "sub-word accesses share the LSU realignment buffer across "
                 "interleaved full-word accesses");
          align = mem_occ;
        }
        if (isa::is_store(ins)) {
          // Store data traverses an IS/EX bus and the EX->WB path.
          const std::size_t lane = slot == 0 ? 1 : 2;
          add_hd(leak_cause::operand_bus_sharing,
                 "IS/EX bus " + std::to_string(lane), bus[lane], mem_occ,
                 "store data shares the operand bus with earlier values in "
                 "the same position");
          bus[lane] = mem_occ;
        }
        const auto wslot = static_cast<std::size_t>(slot);
        const occupant wb_occ{i, isa::is_load(ins)
                                     ? std::string("loaded value")
                                     : std::string("store data")};
        add_hd(leak_cause::wb_bus_sharing,
               "EX/WB buffer " + std::to_string(wslot), wb[wslot], wb_occ,
               "memory value traverses the EX/WB buffer shared with "
               "previous results");
        wb[wslot] = wb_occ;
        continue;
      }

      // Data-processing / multiply: operand buses + ALU latches + WB.
      std::vector<std::pair<std::size_t, occupant>> drives;
      const bool has_rn =
          !(ins.op == isa::opcode::mov || ins.op == isa::opcode::mvn ||
            ins.op == isa::opcode::movw || ins.op == isa::opcode::movt);
      std::size_t first_lane = slot == 0 ? 0 : 2;
      std::size_t second_lane = slot == 0 ? 1 : 2;
      int reg_ops = 0;
      if (has_rn) {
        drives.emplace_back(first_lane,
                            reg_occupant(i, "op1", ins.rn, reg_versions));
        ++reg_ops;
      }
      if (ins.op2.k == isa::operand2::kind::reg_shifted) {
        const std::size_t lane = reg_ops == 0 ? first_lane : second_lane;
        drives.emplace_back(
            lane, reg_occupant(i, "op2", ins.op2.rm, reg_versions));
      }
      for (const auto& [lane, occ] : drives) {
        add_hd(leak_cause::operand_bus_sharing,
               "IS/EX bus " + std::to_string(lane), bus[lane], occ,
               "source operands in the same position of consecutively "
               "issued instructions share an operand bus");
        bus[lane] = occ;
      }

      // ALU binding mirrors the pipeline: shifter/mul users go to ALU0.
      const int alu = isa::needs_alu0(ins) ? 0 : (slot == 0 ? 0 : 1);
      if (config_.alu_latch_holds_on_idle) {
        for (const auto& [lane, occ] : drives) {
          const std::size_t latch_lane =
              static_cast<std::size_t>(alu) * 2 +
              (occ.description.starts_with("op1") ? 0U : 1U);
          // Latch leaks differ from bus leaks only across zeroized buses
          // (nops in between); report when the bus path was interrupted.
          if (alu_latch[latch_lane] && !alu_latch[latch_lane]->is_zero &&
              bus[lane].has_value() && bus[lane]->instr_index == i &&
              alu_latch[latch_lane]->instr_index + 1 < i) {
            add_hd(leak_cause::alu_latch_remanence,
                   "ALU" + std::to_string(alu) + " input latch",
                   alu_latch[latch_lane], occ,
                   "ALU input latches keep stale operands across nops and "
                   "combine them with later operands");
          }
          alu_latch[latch_lane] = occ;
        }
      }

      if (!isa::is_compare(ins)) {
        const auto wslot = static_cast<std::size_t>(slot);
        const occupant res{i, "result"};
        add_hd(leak_cause::wb_bus_sharing,
               "EX/WB buffer " + std::to_string(wslot), wb[wslot], res,
               "results of consecutively issued instructions share the "
               "write-back path regardless of data dependencies");
        wb[wslot] = res;
      }
    }
    for (int slot = 0; slot < group; ++slot) {
      const std::size_t i = index + static_cast<std::size_t>(slot);
      for (const reg r : isa::destination_registers(prog.code[i])) {
        ++reg_versions[isa::index_of(r)];
      }
    }
    index += static_cast<std::size_t>(group);
  }
  return findings;
}

std::string to_string(const leak_finding& finding) {
  std::ostringstream os;
  os << "[" << leak_cause_name(finding.cause) << "] " << finding.structure
     << ": ";
  if (finding.hamming_weight) {
    os << "HW of instr #" << finding.older.instr_index << " "
       << finding.older.description;
  } else {
    os << "HD between instr #" << finding.older.instr_index << " "
       << finding.older.description << " and instr #"
       << finding.newer.instr_index << " " << finding.newer.description;
  }
  os << " -- " << finding.explanation;
  return os.str();
}

} // namespace usca::core
