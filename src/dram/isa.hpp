// The AAP instruction set (paper §II.B "Software Support").
//
// PIM-Assembler is programmed with ACTIVATE-ACTIVATE-PRECHARGE primitives;
// the paper defines three instruction types that differ only in the number
// of activated source rows:
//
//   type-1  AAP(src, des, size)               — RowClone copy
//   type-2  AAP(src1, src2, des, size)        — two-row activation (X(N)OR)
//   type-3  AAP(src1, src2, src3, des, size)  — Ambit-TRA (MAJ3 carry)
//
// plus ordinary row reads/writes, the sum cycle, DPU reductions and latch
// reset as host-visible operations. `size` is in row units: "the size of
// input vectors for in-memory computation must be a multiple of DRAM row
// size, otherwise the application must pad it with dummy data" — an
// instruction with size = n expands to n consecutive-row operations.
//
// This module gives the command stream a concrete form: a tiny
// assembler/disassembler for a human-readable text format of the
// Instruction value type (declared in command.hpp), an executor that runs
// programs against a dram::Device, and the capture path that lists what a
// traced device executed. The higher-level kernels drive Subarray directly
// for speed; the ISA layer is the documented contract (and lets tests
// replay captures).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "dram/device.hpp"

namespace pima::dram {

/// Renders one instruction in the text format, e.g.
///   `AAP2_XNOR sa=3 src1=1016 src2=1017 dst=42 size=1`
std::string to_text(const Instruction& inst);

/// Parses one text line (inverse of to_text). Throws PreconditionError on
/// malformed input. Blank lines and '#' comments yield std::nullopt.
std::optional<Instruction> parse_instruction(const std::string& line);

/// Serializes / parses whole programs.
std::string to_text(const Program& program);
Program parse_program(std::istream& in);

/// Owner of logical flat sub-array `flat` among `owners` — the
/// controller's one routing rule, for the devices of a sharded run and the
/// channels of an engine alike (interleaved chip assignment).
constexpr std::size_t owner_of(std::size_t flat, std::size_t owners) {
  return flat % owners;
}

/// Moves every instruction into the sub-program of its sub-array's
/// owner_of, keeping program order. Each sub-array's command order is
/// therefore the program's, for any owner count.
std::vector<Program> split_by_owner(Program program, std::size_t owners);

/// Result values produced by the read/reduce instructions, in program
/// order.
struct ExecutionResults {
  std::vector<BitVector> rows_read;        ///< one per ROW_READ
  std::vector<bool> reductions;            ///< one per DPU_AND / DPU_OR
  std::vector<std::size_t> popcounts;      ///< one per DPU_POPCOUNT
};

/// Executes a program against a device. Each instruction expands its
/// `size` consecutive-row repetitions. Costs accrue on the touched
/// sub-arrays exactly as if the kernels had issued the commands directly.
ExecutionResults execute(Device& device, const Program& program);

// ---- Capture (the oracle's replay path) -----------------------------------
//
// A device with Device::enable_tracing() captures, per sub-array, the exact
// instructions that replay its commands (Device::trace_if) — e.g. through
// the golden model for differential verification (`pima_asm pim-run
// --dump-trace` → `pima_fuzz --replay`). Sub-arrays share no state, so any
// interleaving that preserves per-sub-array order is an exact replay; the
// canonical one appends the captures in logical flat order, which makes a
// sharded run's capture byte-identical to one device's.

}  // namespace pima::dram
