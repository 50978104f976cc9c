// End-to-end software reference assembler (the paper's three-stage pipeline
// run on a conventional processor).
//
// Stage 1: k-mer analysis — Hashmap(S, k) over all reads.
// Stage 2: contig generation — DeBruijn(Hashmap, k) + Traverse(G).
// Stage 3 (scaffolding) is future work in the paper and here.
//
// Besides the assembled contigs, the assembler reports the per-stage
// operation counts (comparisons, additions, memory inserts, graph ops) that
// parameterize the platform cost models — this is the role the paper's
// Matlab behavioural simulator plays.
#pragma once

#include <cstdint>
#include <vector>

#include "assembly/contig.hpp"
#include "assembly/debruijn.hpp"
#include "assembly/hash_table.hpp"
#include "assembly/simplify.hpp"

namespace pima::assembly {

struct AssemblyOptions {
  std::size_t k = 16;
  bool use_multiplicity = false;    ///< Euler over edge multiplicities
  /// Drop k-mers below this frequency (error filtering; 1 keeps all).
  std::uint32_t min_kmer_freq = 1;
  /// true: contigs from Euler walks (paper's traverse); false: unitigs.
  bool euler_contigs = true;
  /// Clean sequencing-error artifacts (tips/bubbles/low-coverage edges)
  /// before traversal. Needed for reads with error_rate > 0.
  bool simplify = false;
  SimplifyParams simplify_params;
};

/// Per-stage operation counts (the workload profile the cost model scales).
struct StageOpCounts {
  // Stage 1 — hashmap.
  HashOpCounts hash;
  std::uint64_t kmers_processed = 0;
  // Stage 2a — graph construction.
  std::uint64_t node_inserts = 0;
  std::uint64_t edge_inserts = 0;
  // Stage 2b — traversal.
  std::uint64_t degree_additions = 0;  ///< PIM_Add-class ops in Traverse(G)
  std::uint64_t edges_walked = 0;
};

struct AssemblyResult {
  std::vector<dna::Sequence> contigs;
  ContigStats stats;
  StageOpCounts ops;
  std::size_t distinct_kmers = 0;
  std::size_t graph_nodes = 0;
  std::size_t graph_edges = 0;
  SimplifyStats simplify_stats;  ///< zeros when options.simplify is false
};

/// Runs the full pipeline on a read set.
AssemblyResult assemble(const std::vector<dna::Sequence>& reads,
                        const AssemblyOptions& options);

/// Applies the frequency filter to a counter, returning a filtered copy.
KmerCounter filter_by_frequency(const KmerCounter& counter,
                                std::uint32_t min_freq);

}  // namespace pima::assembly
