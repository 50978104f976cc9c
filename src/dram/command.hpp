// The PIM-Assembler command set and per-command cost accounting.
//
// The platform is programmed with ACTIVATE-ACTIVATE-PRECHARGE (AAP)
// primitives (paper §II.B "Software Support"):
//   AAP(src, des)                — RowClone copy (type-1)
//   AAP(src1, src2, des)        — two-row activation op, result to des
//   AAP(src1, src2, src3, des) — Ambit TRA, result to des (type-3)
// plus ordinary row read/write through the global row buffer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "circuit/tech.hpp"
#include "common/bitvector.hpp"
#include "dram/geometry.hpp"

namespace pima::dram {

enum class CommandKind : std::uint8_t {
  kRowRead,       ///< ACTIVATE + column reads + PRECHARGE
  kRowWrite,      ///< ACTIVATE + column writes + PRECHARGE
  kAapCopy,       ///< type-1 AAP: RowClone src → des
  kAapTwoRow,     ///< type-2 AAP: two-row activation (XNOR2/XOR2) → des
  kAapTra,        ///< type-3 AAP: triple-row activation (MAJ3 carry) → des
  kSumCycle,      ///< two-row activation + latch XOR (sum stage) → des
  kDpuReduce,     ///< MAT-level DPU row reduction (AND/OR/popcount)
  kLatchReset,    ///< Rst pulse on the carry latch — uncosted, never
                  ///< counted; names perfbench's LATCH_RST layer probe
};

constexpr std::string_view to_string(CommandKind k) {
  switch (k) {
    case CommandKind::kRowRead: return "ROW_READ";
    case CommandKind::kRowWrite: return "ROW_WRITE";
    case CommandKind::kAapCopy: return "AAP_COPY";
    case CommandKind::kAapTwoRow: return "AAP_2ROW";
    case CommandKind::kAapTra: return "AAP_TRA";
    case CommandKind::kSumCycle: return "SUM_CYCLE";
    case CommandKind::kDpuReduce: return "DPU_REDUCE";
    case CommandKind::kLatchReset: return "LATCH_RST";
  }
  return "?";
}

constexpr std::size_t kCommandKindCount = 8;

/// Instruction opcodes of the AAP ISA (isa.hpp gives them a text format and
/// an executor). CommandKind is the cost/energy class (XNOR and XOR are
/// both kAapTwoRow); Opcode is the replay-exact operation a traced
/// sub-array captures.
enum class Opcode : std::uint8_t {
  kAapCopy,    ///< type-1: AAP(src, des, size)
  kAapXnor,    ///< type-2: AAP(src1, src2, des, size), MUX → XNOR2
  kAapXor,     ///< type-2 with the complementary MUX selection
  kAapTra,     ///< type-3: AAP(src1, src2, src3, des, size)
  kSum,        ///< sum cycle: two-row activation + latch XOR
  kResetLatch, ///< Rst on the carry latch
  kRowWrite,   ///< host row write through the GRB (data in `payload`)
  kRowRead,    ///< host row read through the GRB
  kDpuAnd,     ///< DPU AND-reduce over `width` bits of a row
  kDpuOr,      ///< DPU OR-reduce
  kDpuPopcount ///< DPU popcount
};

/// One decoded instruction. Unused fields are zero. Declared here, next to
/// Opcode, because a traced sub-array captures the instructions it executes
/// (Subarray::attach_trace) and subarray.hpp cannot include isa.hpp.
struct Instruction {
  Opcode op = Opcode::kAapCopy;
  std::size_t subarray = 0;  ///< flat sub-array index
  RowAddr src1 = 0;
  RowAddr src2 = 0;
  RowAddr src3 = 0;
  RowAddr dst = 0;
  std::size_t size = 1;      ///< row count (consecutive-row expansion)
  std::size_t width = 0;     ///< DPU reduce width in bits
  BitVector payload;         ///< ROW_WRITE data (row-sized)

  bool operator==(const Instruction& o) const = default;
};

/// A program is a flat instruction sequence.
using Program = std::vector<Instruction>;

/// Latency of one command (ns) under the given timing parameters.
inline double command_latency_ns(CommandKind k,
                                 const circuit::TimingParams& t) {
  switch (k) {
    case CommandKind::kRowRead:
    case CommandKind::kRowWrite:
      // One row cycle incl. the column burst through the row buffer.
      return t.t_rcd_ns + t.t_cl_ns + t.t_bl_ns + t.t_rp_ns;
    case CommandKind::kAapCopy:
      return t.aap_ns();  // two back-to-back activates + precharge
    case CommandKind::kAapTwoRow:
    case CommandKind::kAapTra:
    case CommandKind::kSumCycle:
      // Multi-row activate, sense+drive result, write-back activate,
      // precharge — same envelope as an AAP.
      return t.aap_ns();
    case CommandKind::kDpuReduce:
      // Row read into the GRB plus the DPU combinational pass.
      return t.t_rcd_ns + t.t_cl_ns + t.t_bl_ns + t.t_rp_ns;
    case CommandKind::kLatchReset:
      // The Rst pulse rides the surrounding AAP envelope: no extra cycle.
      return 0.0;
  }
  return 0.0;
}

/// Energy of one command (pJ) for a row of `columns` bits.
inline double command_energy_pj(CommandKind k, std::size_t columns,
                                const circuit::EnergyParams& e) {
  const double col64 = static_cast<double>(columns) / 64.0;
  switch (k) {
    case CommandKind::kRowRead:
      return e.e_activate_pj + e.e_precharge_pj + e.e_read_col_pj * col64;
    case CommandKind::kRowWrite:
      return e.e_activate_pj + e.e_precharge_pj + e.e_write_col_pj * col64;
    case CommandKind::kAapCopy:
      return 2.0 * e.e_activate_pj + e.e_precharge_pj;
    case CommandKind::kAapTwoRow:
    case CommandKind::kSumCycle:
      return 2.0 * e.e_activate_pj + e.e_multirow_extra_pj +
             e.e_precharge_pj + e.e_sa_logic_pj;
    case CommandKind::kAapTra:
      return 2.0 * e.e_activate_pj + 2.0 * e.e_multirow_extra_pj +
             e.e_precharge_pj + e.e_sa_logic_pj;
    case CommandKind::kDpuReduce:
      return e.e_activate_pj + e.e_precharge_pj + e.e_read_col_pj * col64 +
             e.e_dpu_pj;
    case CommandKind::kLatchReset:
      return 0.0;
  }
  return 0.0;
}

/// Accumulated command statistics for one sub-array (or rolled up).
struct CommandStats {
  std::size_t counts[kCommandKindCount] = {};
  double busy_ns = 0.0;    ///< serialized time on this resource
  double energy_pj = 0.0;

  void record(CommandKind k, double latency_ns, double energy) {
    ++counts[static_cast<std::size_t>(k)];
    busy_ns += latency_ns;
    energy_pj += energy;
  }

  void merge_serial(const CommandStats& o) {
    for (std::size_t i = 0; i < kCommandKindCount; ++i)
      counts[i] += o.counts[i];
    busy_ns += o.busy_ns;
    energy_pj += o.energy_pj;
  }

  std::size_t total_commands() const {
    std::size_t n = 0;
    for (const auto c : counts) n += c;
    return n;
  }
};

}  // namespace pima::dram
