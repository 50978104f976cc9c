// Bit-accurate functional model of one computational sub-array
// (paper Fig. 1b / Fig. 2a).
//
// The sub-array stores real row contents (one BitVector per row) and
// executes the PIM command set with the exact electrical side effects of
// the mechanisms it models:
//   * AAP copy (RowClone): destination row ← source row.
//   * Two-row activation: both activated computation rows are destroyed by
//     charge sharing and restored to the result the SA drives on the
//     bit-lines (XNOR2 or XOR2, per MUX configuration); the result is also
//     written to a destination row within the same AAP.
//   * TRA: the three activated rows are overwritten with MAJ3 (Ambit
//     semantics), the per-column carry latch captures MAJ3, destination
//     row ← MAJ3.
//   * Sum cycle: two-row activation whose SA XOR gate combines the fresh
//     XOR2 with the latched carry; activated rows and destination get the
//     sum bits.
// Multi-row activation is only legal on computation rows (x1..x8) — the
// modified row decoder enforces this — while AAP copies may address any row.
//
// Every operation records its latency and energy into CommandStats. The
// per-kind costs are computed once, at construction, from the command cost
// model (command.hpp); the primitives compute in place into the activated
// rows and allocate nothing.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "circuit/tech.hpp"
#include "common/bitvector.hpp"
#include "dram/command.hpp"
#include "dram/fault.hpp"
#include "dram/geometry.hpp"

namespace pima::dram {

class Subarray {
 public:
  Subarray(const Geometry& geometry, const circuit::Technology& tech);

  const Geometry& geometry() const { return geom_; }

  /// Address of computation row x{i+1}, i in [0, compute_rows).
  RowAddr compute_row(std::size_t i) const;
  bool is_compute_row(RowAddr r) const;

  /// Host-side row access through the row buffer (costed as ROW_READ/WRITE).
  const BitVector& read_row(RowAddr r);
  void write_row(RowAddr r, const BitVector& bits);

  /// Zero-cost inspection for tests/verification (no commands recorded).
  const BitVector& peek_row(RowAddr r) const;
  const BitVector& peek_latch() const { return latch_; }

  /// Fault injection for reliability experiments: flips one stored cell in
  /// place without issuing a command (models a retention failure or
  /// particle strike between accesses). Works on data and computation rows
  /// alike — a flip in x1..x8 corrupts staged operands exactly like a weak
  /// compute cell would.
  void inject_bit_flip(RowAddr r, std::size_t col);

  /// Flips one bit of the per-column carry latch (Fig. 2a latch upset);
  /// consumed by the next sum cycle. Zero-cost like inject_bit_flip.
  void inject_latch_flip(std::size_t col);

  /// Attaches the stochastic fault process (nullptr = fault-free). The
  /// injector corrupts multi-row activation results per its calibrated
  /// Table-I rates and drives the retention-flip process.
  void attach_fault_injector(std::shared_ptr<FaultInjector> injector) {
    fault_ = std::move(injector);
  }
  const FaultInjector* fault_injector() const { return fault_.get(); }

  /// Models idle time on this sub-array's command stream (retry backoff):
  /// advances the busy clock without issuing a command or spending dynamic
  /// energy.
  void wait_ns(double ns) { stats_.busy_ns += ns; }

  // ---- PIM primitives (each is one costed command) ----

  /// Type-1 AAP: RowClone copy src → dst. src == dst is rejected: the AAP
  /// would activate the same row twice, which is electrically a plain
  /// refresh, and silently accepting it hides controller bugs (the fuzzer
  /// found the aliased form diverging from its intended semantics).
  void aap_copy(RowAddr src, RowAddr dst);

  /// Type-2 AAP: two-row activation of computation rows xa, xb; the SA MUX
  /// drives XNOR2 onto the bit-lines. xa, xb and dst all end up holding the
  /// XNOR2 result.
  void aap_xnor(RowAddr xa, RowAddr xb, RowAddr dst);

  /// Same mechanism with the MUX selecting the complementary output (XOR2).
  void aap_xor(RowAddr xa, RowAddr xb, RowAddr dst);

  /// Type-3 AAP: TRA majority of computation rows xa, xb, xc. All three
  /// rows, the destination, and the per-column carry latch get MAJ3.
  void aap_tra_carry(RowAddr xa, RowAddr xb, RowAddr xc, RowAddr dst);

  /// Sum cycle: two-row activation of xa, xb combined with the latched
  /// carry: dst ← xa ⊕ xb ⊕ latch (per column). xa, xb also get the sum.
  /// The latch is preserved (it is consumed by the XOR gate, not cleared).
  void sum_cycle(RowAddr xa, RowAddr xb, RowAddr dst);

  /// Clears the carry latch (Rst signal in Fig. 2a). Uncosted (the pulse
  /// rides the surrounding AAP envelope) but captured as a RST_LATCH
  /// instruction so replays reproduce the latch state exactly.
  void reset_latch();

  /// Records one DPU reduction (row read into the GRB + combinational
  /// reduce) and returns the row contents for the DPU to reduce. Used by
  /// dram::Dpu; costed as DPU_REDUCE.
  const BitVector& dpu_fetch(RowAddr r);

  // ---- Composite operations built from the primitives ----

  /// Full bit-serial vertical addition (paper Fig. 8): interprets
  /// `a_rows`/`b_rows` as m-bit operands stored LSB-first across rows
  /// (element j of each operand lives in column j), writes the m-bit sum to
  /// `sum_rows` and the final carry-out to `carry_out_row`. All row spans
  /// must have the same length m and address data rows; computation rows
  /// x1..x3 are used as scratch. Cost: per bit, 4 staging copies + 1 sum
  /// cycle + 1 TRA (the paper's "2×m cycles" counts the compute cycles).
  void add_vertical(const std::vector<RowAddr>& a_rows,
                    const std::vector<RowAddr>& b_rows,
                    const std::vector<RowAddr>& sum_rows,
                    RowAddr carry_out_row);

  /// Row-wide compare of two data rows (the PIM_XNOR building block):
  /// stages both rows into x1/x2, performs the single-cycle XNOR, and
  /// leaves the per-column match bits in `result_row`. The DPU reduces the
  /// result separately.
  void compare_rows(RowAddr a, RowAddr b, RowAddr result_row);

  /// The hash-table probe (PIM_XNOR + DPU AND-reduce, paper Fig. 7):
  /// compare_rows(a, b, result_row) followed by a DPU fetch of
  /// `result_row`. Issues exactly
  ///   AAP(a,x1) AAP(b,x2) XNOR(x1,x2→result_row) DPU_POPCOUNT(result_row)
  /// leaves x1 = x2 = result_row = XNOR(a, b), and returns whether the
  /// first `width` match bits are all 1. a and b must be data rows.
  bool xnor_match(RowAddr a, RowAddr b, RowAddr result_row, std::size_t width);

  /// One carry-save 3:2 step (paper Fig. 8) over w-bit vertical numbers
  /// stored LSB-first across rows, w = sum.size() = carry.size(). Bit i of
  /// an operand is a[i], or `pad` past the end of a narrower operand (the
  /// same for b and c). For each bit, LSB first, it issues exactly
  ///   AAP(a,x1) AAP(b,x2) XOR(x1,x2→x1) AAP(c,x2) XOR(x1,x2→sum[i])
  ///   AAP(a,x1) AAP(b,x2) AAP(c,x3) TRA(x1,x2,x3→carry[i])
  /// so sum[i] ← a⊕b⊕c, then carry[i] ← MAJ(a,b,c) of the operand rows as
  /// they stand after sum[i] is written, and it leaves x1 = x2 = x3 =
  /// latch = the last MAJ3. Operand rows and `pad` must be data rows; sum
  /// and carry rows may be any rows, operands included. Every row is
  /// checked before the first command.
  ///
  /// The fused kernels (xnor_match, compress) record the same commands, in
  /// the same order, as the sequence issued primitive by primitive, then
  /// write that sequence's final state directly. With a fault injector
  /// attached they run the sequence instead: retention ticks and sensing
  /// faults act per command.
  void compress(std::span<const RowAddr> a, std::span<const RowAddr> b,
                std::span<const RowAddr> c, RowAddr pad,
                std::span<const RowAddr> sum, std::span<const RowAddr> carry);

  /// Cached per-command cost of this sub-array: equal to
  /// command_latency_ns / command_energy_pj for its technology and width.
  double latency_ns(CommandKind k) const {
    return latency_[static_cast<std::size_t>(k)];
  }
  double energy_pj(CommandKind k) const {
    return energy_[static_cast<std::size_t>(k)];
  }

  const CommandStats& stats() const { return stats_; }
  void clear_stats() { stats_ = CommandStats{}; }

  /// Attaches a capture program: every subsequent command appends the
  /// instruction that replays it (dram::execute) on flat sub-array `flat`
  /// — a DPU fetch as a full-width DPU_POPCOUNT, a latch reset as
  /// RST_LATCH. nullptr detaches. The program must outlive the sub-array's
  /// use.
  void attach_trace(Program* sink, std::size_t flat = 0) {
    trace_ = sink;
    trace_flat_ = flat;
  }

 private:
  void check_row(RowAddr r) const;
  void check_compute(RowAddr r, const char* what) const;
  void record(CommandKind k, Opcode op, RowAddr a = 0, RowAddr b = 0,
              RowAddr c = 0, RowAddr dst = 0,
              const BitVector* payload = nullptr);
  void retention_tick();
  void trace_command(Opcode op, RowAddr a, RowAddr b, RowAddr c,
                     RowAddr dst, const BitVector* payload);

  Geometry geom_;
  std::vector<BitVector> rows_;
  BitVector latch_;       ///< per-column carry latch
  std::array<double, kCommandKindCount> latency_{};  ///< ns, per CommandKind
  std::array<double, kCommandKindCount> energy_{};   ///< pJ, per CommandKind
  CommandStats stats_;
  Program* trace_ = nullptr;
  std::shared_ptr<FaultInjector> fault_;
  std::size_t trace_flat_ = 0;
};

}  // namespace pima::dram
