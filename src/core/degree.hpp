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

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "core/graph_map.hpp"
#include "dram/device.hpp"
#include "dram/subarray.hpp"
#include "runtime/engine.hpp"

namespace pima::core {

/// A vertical multi-bit number of the degree kernel: its bit rows,
/// LSB-first, held inline so the reduction builds no per-number heap
/// vector. Widths only grow along the reduction (a number never outgrows
/// the final sum it feeds), so a number wider than the 32-bit degree
/// readout is an error wherever it appears.
class VerticalNumber {
 public:
  static constexpr std::size_t kCapacity = 32;

  // Only the first size() rows are ever read, so construction leaves the
  // rest unset and copies move only those: the reduction makes and copies
  // numbers by the hundred per job.
  VerticalNumber() {}
  explicit VerticalNumber(dram::RowAddr r) { push_back(r); }
  VerticalNumber(const VerticalNumber& o) : size_(o.size_) {
    std::copy_n(o.rows_.begin(), size_, rows_.begin());
  }
  VerticalNumber& operator=(const VerticalNumber& o) {
    if (this == &o) return *this;
    size_ = o.size_;
    std::copy_n(o.rows_.begin(), size_, rows_.begin());
    return *this;
  }

  std::size_t size() const { return size_; }
  dram::RowAddr operator[](std::size_t i) const { return rows_[i]; }
  const dram::RowAddr* begin() const { return rows_.data(); }
  const dram::RowAddr* end() const { return rows_.data() + size_; }

  void push_back(dram::RowAddr r) {
    PIMA_CHECK(size_ < kCapacity, "degree exceeds 32-bit readout");
    rows_[size_++] = r;
  }

 private:
  std::array<dram::RowAddr, kCapacity> rows_;
  std::size_t size_ = 0;
};

/// The degree kernel's working buffers. They keep their capacity from job
/// to job, so a stream of degree jobs allocates no heap row per adjacency
/// row once they have grown. Not shareable between concurrent jobs: one
/// per engine channel, whose tasks run one at a time.
struct ColumnSumScratch {
  AdjacencyRows adjacency;  ///< the current job's rows
  BitVector zero;           ///< image of the all-zero padding row
  std::vector<dram::RowAddr> free_rows;
  std::vector<VerticalNumber> numbers;
};

/// Column sums of `rows` (each a 1-bit-per-column adjacency row) computed
/// entirely with PIM operations inside `sa`. Returns one sum per column.
/// Requires enough free data rows for inputs + carry-save intermediates
/// (≈ 3× the input row count).
std::vector<std::uint32_t> pim_column_sums(dram::Subarray& sa,
                                           const std::vector<BitVector>& rows);

/// One degree job: the column sums of `block`'s adjacency rows (its
/// `n_local_sources` source rows plus the extra-instance rows; see
/// AdjacencyRows) on `sa`, rendered through `scratch`. Issues exactly the
/// commands pim_column_sums issues for the same rows. On a sub-array
/// without a fault injector the sums are then checked against the host
/// reference block_column_degrees: a mismatch throws SimulationError
/// naming `flat` (the sub-array's index) and the first differing column.
/// With faults on, wrong sums are the modelled outcome and pass through.
std::vector<std::uint32_t> run_degree_job(dram::Subarray& sa, std::size_t flat,
                                          const EdgeBlock& block,
                                          std::size_t n_local_sources,
                                          ColumnSumScratch& scratch);

/// The check run_degree_job makes: throws SimulationError naming `flat`
/// and the first differing column unless `sums` equals
/// block_column_degrees(block, sums.size()).
void check_block_sums(std::size_t flat, const EdgeBlock& block,
                      const std::vector<std::uint32_t>& sums);

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
