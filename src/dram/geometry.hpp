// Physical organization of the PIM-Assembler memory (paper Fig. 1).
//
// chip → banks → MATs → computational sub-arrays. Each sub-array has 1024
// rows × 256 columns: 1016 data rows behind the regular row decoder and 8
// computation rows (x1..x8) behind the modified row decoder that supports
// multi-row activation. The paper's evaluation configuration is 1024×256
// sub-arrays, 4×4 MATs per bank, 16×16 banks per group; the bulk-throughput
// comparison (Fig. 3b) uses 8 banks of computational sub-arrays.
#pragma once

#include <cstddef>

#include "common/error.hpp"

namespace pima::dram {

/// Row address inside a sub-array: [0, data_rows) are data rows,
/// [data_rows, rows) are the computation rows x1..x8.
using RowAddr = std::size_t;

struct Geometry {
  std::size_t rows = 1024;          ///< total rows per sub-array
  std::size_t compute_rows = 8;     ///< x1..x8, multi-row-activatable
  std::size_t columns = 256;        ///< bit-lines per sub-array
  std::size_t subarrays_per_mat = 16;
  std::size_t mats_per_bank = 16;   ///< 4×4 (paper §IV setup)
  std::size_t banks = 8;            ///< computational banks in the device

  std::size_t data_rows() const { return rows - compute_rows; }
  std::size_t subarrays_per_bank() const {
    return subarrays_per_mat * mats_per_bank;
  }
  std::size_t total_subarrays() const { return subarrays_per_bank() * banks; }
  /// Bits processed by one row-wide operation.
  std::size_t row_bits() const { return columns; }

  void validate() const {
    PIMA_CHECK(rows > compute_rows, "need at least one data row");
    PIMA_CHECK(compute_rows >= 4,
               "two-row ops + TRA + carry/result rows need >= 4 compute rows");
    PIMA_CHECK(columns > 0 && subarrays_per_mat > 0 && mats_per_bank > 0 &&
                   banks > 0,
               "geometry dimensions must be positive");
  }
};

}  // namespace pima::dram
