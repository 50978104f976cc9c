#include "core/graph_map.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pima::core {

GraphPartition partition_graph(const assembly::DeBruijnGraph& g,
                               std::uint32_t m_intervals) {
  PIMA_CHECK(m_intervals >= 1, "need at least one interval");
  GraphPartition p;
  p.intervals = m_intervals;
  const auto n = g.node_count();
  p.vertex_interval.resize(n);
  p.vertex_local.resize(n);
  p.interval_vertices.resize(m_intervals);

  // Hash-based vertex → interval assignment (paper cites GraphH/GraphS):
  // the node's (k-1)-mer hash spreads hot vertices evenly.
  for (assembly::NodeId v = 0; v < n; ++v) {
    const auto interval =
        static_cast<std::uint32_t>(g.node_kmer(v).hash() % m_intervals);
    p.vertex_interval[v] = interval;
    p.vertex_local[v] =
        static_cast<std::uint32_t>(p.interval_vertices[interval].size());
    p.interval_vertices[interval].push_back(v);
  }

  p.blocks.resize(static_cast<std::size_t>(m_intervals) * m_intervals);
  for (std::uint32_t i = 0; i < m_intervals; ++i)
    for (std::uint32_t j = 0; j < m_intervals; ++j) {
      auto& b = p.blocks[i * m_intervals + j];
      b.source_interval = i;
      b.dest_interval = j;
    }

  for (const auto& e : g.edges()) {
    const auto si = p.vertex_interval[e.from];
    const auto di = p.vertex_interval[e.to];
    p.blocks[si * m_intervals + di].edges.push_back(
        {p.vertex_local[e.from], p.vertex_local[e.to], e.multiplicity});
  }
  return p;
}

EdgeBlock transpose(const EdgeBlock& block) {
  EdgeBlock t;
  t.source_interval = block.dest_interval;
  t.dest_interval = block.source_interval;
  t.edges.reserve(block.edges.size());
  for (const auto& e : block.edges)
    t.edges.push_back({e.to, e.from, e.multiplicity});
  return t;
}

void AdjacencyRows::assign(const EdgeBlock& block,
                           std::size_t n_local_sources, std::size_t width) {
  std::size_t size = n_local_sources;
  for (const auto& e : block.edges) {
    PIMA_CHECK(e.from < n_local_sources, "edge source outside block");
    PIMA_CHECK(e.to < width, "edge destination outside row width");
    if (e.multiplicity > 1) size += e.multiplicity - 1;
  }
  if (!rows_.empty() && rows_.front().size() != width) rows_.clear();
  for (std::size_t r = 0; r < std::min(size_, rows_.size()); ++r)
    rows_[r].fill(false);
  while (rows_.size() < size) rows_.emplace_back(width);
  size_ = size;
  std::size_t extra_row = n_local_sources;
  for (const auto& e : block.edges) {
    rows_[e.from].set(e.to, true);
    // Dense 1-bit rows carry one instance each: extra instances get rows
    // of their own.
    for (std::uint32_t extra = 1; extra < e.multiplicity; ++extra)
      rows_[extra_row++].set(e.to, true);
  }
}

std::vector<std::uint32_t> block_column_degrees(const EdgeBlock& block,
                                                std::size_t width) {
  std::vector<std::uint32_t> deg(width, 0);
  for (const auto& e : block.edges) {
    PIMA_CHECK(e.to < width, "edge destination outside row width");
    deg[e.to] += e.multiplicity;
  }
  return deg;
}

}  // namespace pima::core
