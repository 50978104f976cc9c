// Differential verification harness: production model vs golden oracle.
//
// Runs one AAP program instruction by instruction against both the
// word-parallel production model (dram::Device) and the deliberately-naive
// golden reference (golden::GoldenDevice), diffing the touched rows and the
// carry latch after every instruction, the full device state periodically,
// and all read/reduce result values. The first mismatch is returned as a
// Divergence pinpointing the command index, sub-array, row and bit position
// that first disagreed.
//
// Completeness argument: every state-changing command touches only the rows
// it names (plus the latch), and those are diffed immediately after the
// command retires — so any divergence is caught at the instruction that
// created it, never masked by later overwrites. The periodic full-state
// diffs are belt and braces against that very assumption being wrong.
//
// Rejection symmetry is part of the contract: a program must either execute
// on both models or be rejected by both (PreconditionError). One-sided
// rejection is reported as a divergence just like a state mismatch.
#pragma once

#include <optional>
#include <string>

#include "dram/isa.hpp"
#include "golden/golden.hpp"

namespace pima::verify {

/// Where the first disagreement was observed.
enum class DivergenceSite {
  kRow,        ///< a stored row bit differs
  kLatch,      ///< a carry-latch bit differs
  kResult,     ///< a ROW_READ / reduction / popcount value differs
  kRejection,  ///< one model rejected the instruction, the other executed it
};

/// First point at which the two models disagreed.
struct Divergence {
  DivergenceSite site = DivergenceSite::kRow;
  std::size_t command_index = 0;  ///< instruction index within the program
  std::size_t subarray = 0;       ///< flat sub-array index
  std::string command_text;       ///< to_text of the offending instruction
  dram::RowAddr row = 0;          ///< differing row (site == kRow)
  std::size_t bit = 0;            ///< first differing bit/column
  bool device_bit = false;        ///< production model's value of that bit
  bool golden_bit = false;        ///< golden model's value of that bit
  std::string detail;             ///< extra context (messages, result values)

  /// One-paragraph human-readable report.
  std::string report() const;
};

struct DifferentialOptions {
  /// When true (default), an instruction rejected by BOTH models counts as
  /// agreement and execution stops there. Set false for captured traces,
  /// where every command already executed once and any rejection means the
  /// replay geometry is wrong — reported as a kRejection divergence.
  bool accept_symmetric_rejection = true;
};

/// Full state diff: every instantiated sub-array of either device, all rows
/// plus the latch. `command_index`/`command_text` of the returned divergence
/// are left for the caller to fill in.
std::optional<Divergence> diff_state(const dram::Device& device,
                                     const golden::GoldenDevice& golden);

/// Diffs one sub-array (all rows + latch).
std::optional<Divergence> diff_subarray(const dram::Subarray& sa,
                                        const golden::GoldenSubArray& gsa,
                                        std::size_t flat);

/// Executes `program` on both models, diffing as described above. Both
/// devices must start in matching state (freshly constructed, or previously
/// diffed clean). Returns the first divergence, or nullopt if the models
/// agree over the whole program. A program rejected by *both* models is
/// agreement: execution stops at the rejected instruction with nullopt.
std::optional<Divergence> run_differential(
    dram::Device& device, golden::GoldenDevice& golden,
    const dram::Program& program, const DifferentialOptions& options = {});

/// Convenience: builds both devices from the geometry and runs fault-free.
std::optional<Divergence> run_differential(
    const dram::Geometry& geometry, const dram::Program& program,
    const DifferentialOptions& options = {});

}  // namespace pima::verify
