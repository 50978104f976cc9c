#include "assembly/contig.hpp"

#include <algorithm>

namespace pima::assembly {

std::vector<dna::Sequence> contigs_from_euler(const DeBruijnGraph& g) {
  std::vector<dna::Sequence> contigs;
  for (const auto& walk : euler_walks(g))
    contigs.push_back(spell_walk(g, walk));
  return contigs;
}

std::vector<dna::Sequence> contigs_from_unitigs(const DeBruijnGraph& g) {
  // Distinct-edge view: multiplicity does not affect unitig structure, but
  // branching (in/out degree over distinct edges) does.
  const std::size_t n = g.node_count();
  std::vector<std::uint32_t> in_distinct(n, 0), out_distinct(n, 0);
  for (const auto& e : g.edges()) {
    ++out_distinct[e.from];
    ++in_distinct[e.to];
  }
  auto is_through_node = [&](NodeId v) {
    return in_distinct[v] == 1 && out_distinct[v] == 1;
  };

  std::vector<bool> used(g.edge_count(), false);
  std::vector<dna::Sequence> contigs;

  auto extend = [&](std::uint32_t first_edge) {
    EdgeWalk walk{first_edge};
    used[first_edge] = true;
    NodeId v = g.edge(first_edge).to;
    while (is_through_node(v)) {
      const auto& adj = g.out_edges(v);
      std::uint32_t next = ~std::uint32_t{0};
      for (const auto e : adj)
        if (!used[e]) {
          next = e;
          break;
        }
      if (next == ~std::uint32_t{0}) break;  // single out-edge already used
      used[next] = true;
      walk.push_back(next);
      v = g.edge(next).to;
    }
    contigs.push_back(spell_walk(g, walk));
  };

  // Start unitigs at every edge leaving a junction (or path start) node.
  for (NodeId v = 0; v < n; ++v) {
    if (is_through_node(v)) continue;
    for (const auto e : g.out_edges(v))
      if (!used[e]) extend(e);
  }
  // Remaining edges belong to perfect cycles of through-nodes.
  for (std::uint32_t e = 0; e < g.edge_count(); ++e)
    if (!used[e]) extend(e);
  return contigs;
}

ContigStats compute_stats(const std::vector<dna::Sequence>& contigs) {
  ContigStats s{};
  s.count = contigs.size();
  std::vector<std::size_t> lengths;
  lengths.reserve(contigs.size());
  for (const auto& c : contigs) {
    lengths.push_back(c.size());
    s.total_length += c.size();
    s.longest = std::max(s.longest, c.size());
  }
  if (s.count == 0) return s;
  s.mean_length =
      static_cast<double>(s.total_length) / static_cast<double>(s.count);
  std::sort(lengths.rbegin(), lengths.rend());
  std::size_t acc = 0;
  for (const auto len : lengths) {
    acc += len;
    if (acc * 2 >= s.total_length) {
      s.n50 = len;
      break;
    }
  }
  return s;
}

}  // namespace pima::assembly
