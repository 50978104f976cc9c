// de Bruijn graph construction (the paper's DeBruijn(Hashmap, k) procedure).
//
// Nodes are (k-1)-mers; every counted k-mer contributes a directed edge
// prefix → suffix carrying the k-mer's frequency as multiplicity. The graph
// keeps dense integer node ids so the PIM mapping layer can treat it as an
// adjacency structure (paper Fig. 8 maps vertex intervals to sub-arrays).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "assembly/hash_table.hpp"
#include "assembly/kmer.hpp"

namespace pima::assembly {

using NodeId = std::uint32_t;

/// One directed edge: prefix-node → suffix-node, labelled by the k-mer.
struct Edge {
  NodeId from = 0;
  NodeId to = 0;
  Kmer kmer;                    ///< the k-mer that spells this edge
  std::uint32_t multiplicity = 1;
};

class DeBruijnGraph {
 public:
  /// Builds the graph from a counted k-mer table. If `use_multiplicity`,
  /// each k-mer contributes an edge with its frequency as multiplicity
  /// (Eulerian traversal then reconstructs repeats); otherwise each
  /// distinct k-mer is a single edge (unitig-style assembly).
  static DeBruijnGraph from_counter(const KmerCounter& counter,
                                    bool use_multiplicity = false);

  /// Builds the graph from an explicit (k-mer, multiplicity) list — the
  /// entry point the graph-simplification passes rebuild through. Edges
  /// are sorted by k-mer for deterministic node ids.
  static DeBruijnGraph from_edges(
      std::vector<std::pair<Kmer, std::uint32_t>> kmers);

  std::size_t node_count() const { return node_kmers_.size(); }
  std::size_t edge_count() const { return edges_.size(); }
  /// Total traversable edge instances (Σ multiplicity).
  std::uint64_t edge_instances() const { return edge_instances_; }

  const Kmer& node_kmer(NodeId n) const { return node_kmers_.at(n); }
  const Edge& edge(std::size_t e) const { return edges_.at(e); }
  const std::vector<Edge>& edges() const { return edges_; }

  /// Out-edge indices of a node.
  const std::vector<std::uint32_t>& out_edges(NodeId n) const {
    return adjacency_.at(n);
  }

 private:
  NodeId intern_node(const Kmer& km);

  std::vector<Kmer> node_kmers_;
  std::unordered_map<Kmer, NodeId> node_index_;
  std::vector<Edge> edges_;
  std::vector<std::vector<std::uint32_t>> adjacency_;  ///< per-node out-edge ids
  std::uint64_t edge_instances_ = 0;
};

}  // namespace pima::assembly
