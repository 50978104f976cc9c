#include "assembly/debruijn.hpp"

#include <algorithm>

namespace pima::assembly {

NodeId DeBruijnGraph::intern_node(const Kmer& km) {
  const auto [it, inserted] =
      node_index_.try_emplace(km, static_cast<NodeId>(node_kmers_.size()));
  if (inserted) {
    node_kmers_.push_back(km);
    adjacency_.emplace_back();
  }
  return it->second;
}

DeBruijnGraph DeBruijnGraph::from_counter(const KmerCounter& counter,
                                          bool use_multiplicity) {
  // Collect k-mers in deterministic order (slot order is deterministic for
  // a given input, but sort by value for full input-order independence).
  std::vector<std::pair<Kmer, std::uint32_t>> kmers;
  kmers.reserve(counter.distinct_kmers());
  counter.for_each([&](const Kmer& km, std::uint32_t freq) {
    kmers.emplace_back(km, use_multiplicity ? freq : 1);
  });
  return from_edges(std::move(kmers));
}

DeBruijnGraph DeBruijnGraph::from_edges(
    std::vector<std::pair<Kmer, std::uint32_t>> kmers) {
  DeBruijnGraph g;
  std::sort(kmers.begin(), kmers.end());
  for (const auto& [km, mult] : kmers) {
    PIMA_CHECK(mult > 0, "edge multiplicity must be positive");
    const NodeId from = g.intern_node(km.prefix());
    const NodeId to = g.intern_node(km.suffix());
    Edge e;
    e.from = from;
    e.to = to;
    e.kmer = km;
    e.multiplicity = mult;
    g.adjacency_[from].push_back(static_cast<std::uint32_t>(g.edges_.size()));
    g.edge_instances_ += e.multiplicity;
    g.edges_.push_back(e);
  }
  return g;
}

}  // namespace pima::assembly
