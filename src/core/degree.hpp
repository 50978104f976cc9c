// In-memory vertex-degree computation (paper Fig. 8, "mapping" stage).
//
// The adjacency rows of an edge block are mapped onto consecutive sub-array
// rows; the degree of every destination vertex is the column sum of those
// 1-bit rows. PIM-Assembler computes the sums with a carry-save reduction:
// every three rows are compressed to a (Carry, Sum) pair — one TRA for the
// carry, two two-row XORs for the sum — written back to reserved rows; the
// resulting multi-bit vertical numbers are then combined with bit-serial
// additions (2 compute cycles per bit) until one number per column remains.
// All 256 columns advance in parallel at every step.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "core/graph_map.hpp"
#include "dram/device.hpp"
#include "dram/subarray.hpp"
#include "runtime/engine.hpp"

namespace pima::core {

/// Column sums of `rows` (each a 1-bit-per-column adjacency row) computed
/// entirely with PIM operations inside `sa`. Returns one sum per column.
/// Requires enough free data rows for inputs + carry-save intermediates
/// (≈ 3× the input row count).
std::vector<std::uint32_t> pim_column_sums(dram::Subarray& sa,
                                           const std::vector<BitVector>& rows);

/// Degrees of every vertex of `g`, computed block-by-block on `device`
/// (block (i,j) of the partition runs on its own sub-array; per-vertex
/// partial degrees from the M blocks of a row/column are accumulated by
/// the controller).
struct DegreeResult {
  std::vector<std::uint32_t> in_degree;
  std::vector<std::uint32_t> out_degree;
};

/// With an engine, each block's column-sum kernels are dispatched to the
/// channel owning the block's sub-array and run concurrently; per-vertex
/// partial degrees are accumulated by the controller in block order after
/// the barrier, so the result (and every CommandStats) is bit-identical to
/// the serial path. `engine == nullptr` runs the blocks inline.
DegreeResult pim_degrees(dram::Device& device,
                         const assembly::DeBruijnGraph& g,
                         const GraphPartition& partition,
                         runtime::Engine* engine = nullptr);

/// Sub-array executing block (i, j) of an M² interval partition (the
/// paper's block → sub-array mapping). `offset` selects a disjoint region
/// of the block grid: the transposed blocks sit at offset M².
inline std::size_t block_subarray(std::size_t total_subarrays, std::size_t i,
                                  std::size_t j, std::size_t m,
                                  std::size_t offset = 0) {
  return (i * m + j + offset) % total_subarrays;
}

/// The degree kernel's block walk, shared by pim_degrees and the pipeline:
/// every non-empty block (i, j) of `partition`, in (i, j) order, yields two
/// column-sum jobs — the in-degrees of its destinations on sub-array
/// block_subarray(i, j), then the out-degrees of its sources (the
/// transposed block) on block_subarray(j, i, M²). `job(flat, n, block,
/// transposed)` gets the job's sub-array, the source count of the block it
/// sums (its adjacency row count; both intervals are checked to fit a row)
/// and the untransposed block.
template <typename Job>
void for_each_degree_job(const GraphPartition& partition,
                         const dram::Geometry& geometry, Job&& job) {
  const std::size_t width = geometry.columns;
  const std::size_t total = geometry.total_subarrays();
  const std::uint32_t m = partition.intervals;
  for (std::uint32_t i = 0; i < m; ++i) {
    for (std::uint32_t j = 0; j < m; ++j) {
      const EdgeBlock& block = partition.block(i, j);
      if (block.edges.empty()) continue;
      const std::size_t n_src = partition.interval_vertices[i].size();
      const std::size_t n_dst = partition.interval_vertices[j].size();
      PIMA_CHECK(n_dst <= width,
                 "interval too wide for one sub-array row — increase M");
      PIMA_CHECK(n_src <= width,
                 "interval too wide for one sub-array row — increase M");
      job(block_subarray(total, i, j, m), n_src, block, false);
      job(block_subarray(total, j, i, m, std::size_t{m} * m), n_dst, block,
          true);
    }
  }
}

}  // namespace pima::core
