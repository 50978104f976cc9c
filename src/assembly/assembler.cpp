#include "assembly/assembler.hpp"

namespace pima::assembly {

KmerCounter filter_by_frequency(const KmerCounter& counter,
                                std::uint32_t min_freq) {
  KmerCounter out(counter.distinct_kmers());
  counter.for_each([&](const Kmer& km, std::uint32_t freq) {
    if (freq < min_freq) return;
    for (std::uint32_t i = 0; i < freq; ++i) out.insert_or_increment(km);
  });
  out.reset_op_counts();  // filtering is not application workload
  return out;
}

AssemblyResult assemble(const std::vector<dna::Sequence>& reads,
                        const AssemblyOptions& options) {
  AssemblyResult result;

  // Stage 1: k-mer analysis.
  KmerCounter counter = build_hashmap(reads, options.k);
  result.ops.hash = counter.op_counts();
  result.ops.kmers_processed = counter.total_kmers();
  result.distinct_kmers = counter.distinct_kmers();

  if (options.min_kmer_freq > 1)
    counter = filter_by_frequency(counter, options.min_kmer_freq);

  // Stage 2a: graph construction. Each distinct k-mer inserts two nodes
  // (probe + possible insert) and one edge (paper DeBruijn procedure).
  DeBruijnGraph graph =
      DeBruijnGraph::from_counter(counter, options.use_multiplicity);
  if (options.simplify) {
    auto cleaned = simplify_graph(graph, options.simplify_params);
    graph = std::move(cleaned.graph);
    result.simplify_stats = cleaned.stats;
  }
  result.graph_nodes = graph.node_count();
  result.graph_edges = graph.edge_count();
  result.ops.node_inserts = 2 * graph.edge_count();
  result.ops.edge_inserts = graph.edge_count();

  // Stage 2b: traversal. The paper's Traverse(G) computes in/out degrees of
  // every vertex by summing adjacency entries (PIM_Add): every edge
  // instance feeds one out-degree and one in-degree accumulation.
  result.ops.degree_additions = 2 * graph.edge_instances();
  result.contigs = options.euler_contigs
                       ? contigs_from_euler(graph)
                       : contigs_from_unitigs(graph);
  result.ops.edges_walked = graph.edge_instances();
  result.stats = compute_stats(result.contigs);
  return result;
}

}  // namespace pima::assembly
