// Correlated data partitioning and mapping for the hash table
// (paper Fig. 6).
//
// One sub-array holds one hash-table shard, laid out so that keys, values
// and the staging area for incoming queries are local to the rows that
// compute on them:
//
//   k-mer region  — one k-mer per row (up to 128 bp at 2 bits/base);
//   value region  — 8-bit saturating frequency counters packed 32 per row;
//   temp region   — incoming query k-mers staged for row-parallel compare;
//   compute rows  — x1..x8 behind the modified row decoder.
//
// With the architecture's 1016 data rows (paper §II.A) the shard stores 977
// keys: 977 k-mer rows + 31 value rows (977 counters / 32 per row) + 8 temp
// rows. (Paper Fig. 6 sketches 980/32/8 over a 4-compute-row
// array; we keep §II.A's 8 compute rows and adjust the key count — the
// mapping logic is identical. See DESIGN.md.)
#pragma once

#include <cstddef>

#include "dram/geometry.hpp"

namespace pima::core {

/// Row-region plan of one hash shard within a sub-array.
struct ShardLayout {
  std::size_t kmer_rows;    ///< number of key slots (one row each)
  std::size_t value_rows;   ///< counter rows (32 × 8-bit counters per row)
  std::size_t temp_rows;    ///< query staging rows
  std::size_t counter_bits = 8;
  std::size_t columns = 256;  ///< row width of the geometry

  std::size_t counters_per_row() const { return columns / counter_bits; }

  /// Derives the layout for a geometry: temp gets 8 rows, values get
  /// ceil(slots / 32) rows, keys get the rest (solved so it all fits).
  static ShardLayout for_geometry(const dram::Geometry& g);

  /// Row address of key slot i (slots occupy the first kmer_rows rows).
  dram::RowAddr kmer_row(std::size_t slot) const;
  /// Row address holding slot i's counter.
  dram::RowAddr value_row(std::size_t slot) const;
  /// Row address of temp slot t.
  dram::RowAddr temp_row(std::size_t t) const;

  /// Total data rows consumed (must be ≤ geometry data rows).
  std::size_t rows_used() const {
    return kmer_rows + value_rows + temp_rows;
  }
};

}  // namespace pima::core
