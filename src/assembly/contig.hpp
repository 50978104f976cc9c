// Contig generation and assembly statistics.
//
// Two contig extraction strategies:
//  * Euler walks (the paper's stage-2 path): each Euler walk spells one
//    contig — exact reconstruction when coverage is complete and the graph
//    has an Eulerian path.
//  * Unitigs: maximal non-branching paths of the de Bruijn graph — the
//    robust strategy practical assemblers (Velvet-style) use on imperfect
//    graphs; repeats terminate contigs at branch nodes (paper Fig. 5c shows
//    exactly this: contigs I–III end at the branching TTA node).
#pragma once

#include <vector>

#include "assembly/debruijn.hpp"
#include "assembly/euler.hpp"

namespace pima::assembly {

/// Contigs from Euler walks (multiplicity-aware traversal).
std::vector<dna::Sequence> contigs_from_euler(const DeBruijnGraph& g);

/// Contigs as maximal non-branching paths (unitigs). Every edge is used
/// exactly once; paths stop at nodes with in-degree ≠ 1 or out-degree ≠ 1
/// (branch/junction nodes).
std::vector<dna::Sequence> contigs_from_unitigs(const DeBruijnGraph& g);

/// Assembly summary statistics.
struct ContigStats {
  std::size_t count = 0;
  std::size_t total_length = 0;
  std::size_t longest = 0;
  std::size_t n50 = 0;  ///< length L s.t. contigs ≥ L cover ≥ half the total
  double mean_length = 0.0;
};

ContigStats compute_stats(const std::vector<dna::Sequence>& contigs);

}  // namespace pima::assembly
