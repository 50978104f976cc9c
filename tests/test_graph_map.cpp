#include "core/graph_map.hpp"

#include <gtest/gtest.h>

#include "dna/genome.hpp"

namespace pima::core {
namespace {

assembly::DeBruijnGraph random_graph(std::size_t genome_len, std::size_t k,
                                     std::uint64_t seed = 3) {
  dna::GenomeParams gp;
  gp.length = genome_len;
  gp.seed = seed;
  const auto genome = dna::generate_genome(gp);
  dna::ReadSamplerParams rp;
  rp.coverage = 6.0;
  rp.read_length = 60;
  const auto reads = dna::sample_reads(genome, rp);
  return assembly::DeBruijnGraph::from_counter(
      assembly::build_hashmap(reads, k));
}

TEST(GraphPartition, EveryVertexAssignedOnce) {
  const auto g = random_graph(1000, 15);
  const auto p = partition_graph(g, 4);
  EXPECT_EQ(p.intervals, 4u);
  ASSERT_EQ(p.vertex_interval.size(), g.node_count());
  std::size_t total = 0;
  for (const auto& iv : p.interval_vertices) total += iv.size();
  EXPECT_EQ(total, g.node_count());
  // Local indices are consistent with interval membership.
  for (assembly::NodeId v = 0; v < g.node_count(); ++v) {
    const auto i = p.vertex_interval[v];
    ASSERT_LT(i, 4u);
    EXPECT_EQ(p.interval_vertices[i][p.vertex_local[v]], v);
  }
}

TEST(GraphPartition, EveryEdgeInExactlyOneBlock) {
  const auto g = random_graph(800, 14);
  const auto p = partition_graph(g, 3);
  EXPECT_EQ(p.blocks.size(), 9u);
  std::size_t edges = 0;
  for (const auto& b : p.blocks) edges += b.edges.size();
  EXPECT_EQ(edges, g.edge_count());
}

TEST(GraphPartition, BlockEdgesRespectIntervals) {
  const auto g = random_graph(600, 13);
  const auto p = partition_graph(g, 3);
  for (std::uint32_t i = 0; i < 3; ++i)
    for (std::uint32_t j = 0; j < 3; ++j) {
      const auto& b = p.block(i, j);
      EXPECT_EQ(b.source_interval, i);
      EXPECT_EQ(b.dest_interval, j);
      for (const auto& e : b.edges) {
        EXPECT_LT(e.from, p.interval_vertices[i].size());
        EXPECT_LT(e.to, p.interval_vertices[j].size());
      }
    }
}

TEST(GraphPartition, HashSpreadIsRoughlyBalanced) {
  const auto g = random_graph(3000, 16);
  const auto p = partition_graph(g, 8);
  const double expect =
      static_cast<double>(g.node_count()) / 8.0;
  for (const auto& iv : p.interval_vertices) {
    EXPECT_GT(static_cast<double>(iv.size()), expect * 0.7);
    EXPECT_LT(static_cast<double>(iv.size()), expect * 1.3);
  }
}

TEST(GraphPartition, SingleIntervalDegenerate) {
  const auto g = random_graph(300, 12);
  const auto p = partition_graph(g, 1);
  EXPECT_EQ(p.blocks.size(), 1u);
  EXPECT_EQ(p.blocks[0].edges.size(), g.edge_count());
}

TEST(GraphPartition, ZeroIntervalsRejected) {
  const auto g = random_graph(200, 12);
  EXPECT_THROW(partition_graph(g, 0), pima::PreconditionError);
}

TEST(BlockAdjacency, RowsEncodeEdges) {
  EdgeBlock b;
  b.edges = {{0, 3, 1}, {0, 5, 1}, {2, 3, 1}};
  AdjacencyRows adjacency;
  adjacency.assign(b, 3, 8);
  auto rows = adjacency.rows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].to_string(), "00010100");
  EXPECT_EQ(rows[1].to_string(), "00000000");
  EXPECT_EQ(rows[2].to_string(), "00010000");
  // The rows are reused: the next block sees none of the last one's bits,
  // and a narrower row width starts afresh.
  EdgeBlock one;
  one.edges = {{1, 0, 1}};
  adjacency.assign(one, 3, 8);
  rows = adjacency.rows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].to_string(), "00000000");
  EXPECT_EQ(rows[1].to_string(), "10000000");
  EXPECT_EQ(rows[2].to_string(), "00000000");
  adjacency.assign(one, 2, 4);
  rows = adjacency.rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].to_string(), "0000");
  EXPECT_EQ(rows[1].to_string(), "1000");
}

TEST(BlockAdjacency, MultiplicityAppendsRows) {
  EdgeBlock b;
  b.edges = {{0, 1, 3}, {1, 2, 2}};
  AdjacencyRows adjacency;
  adjacency.assign(b, 2, 4);
  const auto rows = adjacency.rows();
  ASSERT_EQ(rows.size(), 5u);  // 2 base rows + 2 + 1 duplicates
  // Duplicates follow the base rows in edge order.
  const char* want[] = {"0100", "0010", "0100", "0100", "0010"};
  for (std::size_t r = 0; r < rows.size(); ++r)
    EXPECT_EQ(rows[r].to_string(), want[r]) << r;
}

TEST(BlockAdjacency, ColumnDegreesReference) {
  EdgeBlock b;
  b.edges = {{0, 1, 2}, {1, 1, 1}, {2, 3, 1}};
  const auto deg = block_column_degrees(b, 4);
  EXPECT_EQ(deg[1], 3u);
  EXPECT_EQ(deg[3], 1u);
  EXPECT_EQ(deg[0], 0u);
}

TEST(BlockAdjacency, OutOfRangeEdgeThrows) {
  EdgeBlock b;
  b.edges = {{5, 0, 1}};
  AdjacencyRows adjacency;
  EXPECT_THROW(adjacency.assign(b, 3, 8), pima::PreconditionError);
  EdgeBlock wide;
  wide.edges = {{0, 9, 1}};
  EXPECT_THROW(adjacency.assign(wide, 3, 8), pima::PreconditionError);
  EXPECT_THROW(block_column_degrees(wide, 8), pima::PreconditionError);
}

}  // namespace
}  // namespace pima::core
