// Interval-block graph partitioning and adjacency mapping (paper Fig. 8,
// stages "partitioning" and "allocation").
//
// The hash-based method divides the N vertices into M intervals and the
// edges into M² blocks — block (i, j) holds the edges from interval i to
// interval j. Each block is allocated to a chip and mapped onto its
// sub-arrays as a dense adjacency sub-matrix: one matrix row per sub-array
// row. An N-vertex sub-graph needs Ns = ceil(N / f) sub-arrays, with
// f = min(a, b) for an a×b sub-array.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "assembly/debruijn.hpp"
#include "common/bitvector.hpp"
#include "dram/geometry.hpp"

namespace pima::core {

/// One edge block: edges between two vertex intervals, in local ids.
struct EdgeBlock {
  std::uint32_t source_interval = 0;
  std::uint32_t dest_interval = 0;
  /// Edges as (local source index, local dest index, multiplicity).
  struct LocalEdge {
    std::uint32_t from, to, multiplicity;
  };
  std::vector<LocalEdge> edges;
};

/// The complete partition: interval assignment plus M² blocks.
struct GraphPartition {
  std::uint32_t intervals = 1;                 ///< M
  std::vector<std::uint32_t> vertex_interval;  ///< node → interval
  std::vector<std::uint32_t> vertex_local;     ///< node → index in interval
  std::vector<std::vector<assembly::NodeId>> interval_vertices;
  std::vector<EdgeBlock> blocks;               ///< M² blocks, row-major

  const EdgeBlock& block(std::uint32_t i, std::uint32_t j) const {
    return blocks.at(i * intervals + j);
  }
};

/// Hash-partitions the graph into M intervals and M² edge blocks.
GraphPartition partition_graph(const assembly::DeBruijnGraph& g,
                               std::uint32_t m_intervals);

/// The block with every edge reversed and its intervals swapped: the
/// out-degree view of a block (its column sums are source out-degrees).
EdgeBlock transpose(const EdgeBlock& block);

/// A block's dense adjacency rows (paper "mapping" stage): row r <
/// n_local_sources holds the out-edges of local source vertex r (column c
/// is set iff an edge r → c exists). Multiplicities above 1 append one
/// single-bit row per extra instance, in edge order (each instance
/// contributes 1 to its destination's in-degree). `width` is the sub-array
/// column count; blocks wider than a row are split by the caller. The rows
/// are kept for the next assign(), which clears and reuses them, so a
/// stream of blocks allocates no row once the largest block has been seen.
class AdjacencyRows {
 public:
  void assign(const EdgeBlock& block, std::size_t n_local_sources,
              std::size_t width);
  /// The rows of the last assign(), valid until the next one.
  std::span<const BitVector> rows() const { return {rows_.data(), size_}; }

 private:
  std::size_t size_ = 0;
  std::vector<BitVector> rows_;  ///< all zero past size_
};

/// Software reference: per-destination in-degree of a block (column sums).
std::vector<std::uint32_t> block_column_degrees(const EdgeBlock& block,
                                                std::size_t width);

}  // namespace pima::core
