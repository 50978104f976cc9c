// MAT-level Digital Processing Unit (paper Fig. 1a).
//
// The DPU is the low-overhead digital block each MAT uses for the non-bulk
// scalar part of PIM kernels: after a row-wide PIM_XNOR leaves 256 match
// bits in a result row, the DPU reads that row through the global row
// buffer and reduces it — e.g. a built-in AND tree that tells the
// controller whether an entire k-mer row matched the query (paper Fig. 7).
#pragma once

#include <cstddef>

#include "circuit/tech.hpp"
#include "common/bitvector.hpp"
#include "dram/command.hpp"

namespace pima::dram {

class Subarray;

/// Reduction flavours the DPU supports.
enum class DpuReduce { kAnd, kOr, kPopcount };

/// Stateless DPU attached to a MAT: every reduce costs one DPU_REDUCE
/// command on the sub-array it reads from.
class Dpu {
 public:
  /// AND-reduction over a masked prefix of the row: returns true iff the
  /// first `width` bits are all 1. With width == row size this is the
  /// full-row match test. Records the command on `sa`.
  static bool and_reduce(Subarray& sa, std::size_t row, std::size_t width);

  /// OR-reduction over the first `width` bits.
  static bool or_reduce(Subarray& sa, std::size_t row, std::size_t width);

  /// Popcount over the first `width` bits.
  static std::size_t popcount(Subarray& sa, std::size_t row,
                              std::size_t width);

  /// Counts 2-bit groups in [lo, lo + 2·pairs) whose BOTH bits are 1 —
  /// with XNOR match bits in the row this is the number of matching
  /// bases, so (pairs − result) is the base-level Hamming distance
  /// (pair-AND feeding the popcount tree).
  static std::size_t popcount_pairs(Subarray& sa, std::size_t row,
                                    std::size_t lo, std::size_t pairs);
};

}  // namespace pima::dram
