#include "assembly/debruijn.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "dna/genome.hpp"

namespace pima::assembly {
namespace {

DeBruijnGraph graph_of(const std::vector<std::string>& reads, std::size_t k,
                       bool multiplicity = false) {
  std::vector<dna::Sequence> seqs;
  for (const auto& r : reads) seqs.push_back(dna::Sequence::from_string(r));
  return DeBruijnGraph::from_counter(build_hashmap(seqs, k), multiplicity);
}

// Σ multiplicity of each node's in-edges and out-edges.
struct Degrees {
  std::vector<std::uint32_t> in, out;
};
Degrees degrees_of(const DeBruijnGraph& g) {
  Degrees d{std::vector<std::uint32_t>(g.node_count(), 0),
            std::vector<std::uint32_t>(g.node_count(), 0)};
  for (const auto& e : g.edges()) {
    d.out[e.from] += e.multiplicity;
    d.in[e.to] += e.multiplicity;
  }
  return d;
}

// The node whose (k-1)-mer spells `bases`, if any.
std::optional<NodeId> node_of(const DeBruijnGraph& g, const std::string& bases) {
  const auto seq = dna::Sequence::from_string(bases);
  const auto km = Kmer::from_sequence(seq, 0, bases.size());
  for (NodeId v = 0; v < g.node_count(); ++v)
    if (g.node_kmer(v) == km) return v;
  return std::nullopt;
}

TEST(DeBruijn, PaperFig5bGraph) {
  // From S = CGTGCGTGCTT with k = 5: 6 distinct k-mers ⇒ 6 edges over
  // 4-mer nodes {CGTG, GTGC, TGCG, GCGT, TGCT, GCTT... } (prefix/suffix).
  const auto g = graph_of({"CGTGCGTGCTT"}, 5);
  EXPECT_EQ(g.edge_count(), 6u);
  // Distinct 4-mer nodes: CGTG GTGC TGCG GCGT TGCT GCTT.
  EXPECT_EQ(g.node_count(), 6u);
  // Node CGTG must exist and have out-degree 1 (edge CGTGC).
  const auto node = node_of(g, "CGTG");
  ASSERT_TRUE(node.has_value());
  EXPECT_EQ(g.out_edges(*node).size(), 1u);
  EXPECT_FALSE(node_of(g, "AAAA").has_value());
}

TEST(DeBruijn, EdgeEndpointsAreKmerAffixes) {
  const auto g = graph_of({"CGTGCGTGCTT"}, 5);
  for (const auto& e : g.edges()) {
    EXPECT_EQ(g.node_kmer(e.from), e.kmer.prefix());
    EXPECT_EQ(g.node_kmer(e.to), e.kmer.suffix());
  }
}

TEST(DeBruijn, DegreeSumsEqualEdgeInstances) {
  const auto g = graph_of({"CGTGCTTACGG", "CGTGCTTAGG"}, 4);
  const auto d = degrees_of(g);
  std::uint64_t in_sum = 0, out_sum = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    in_sum += d.in[v];
    out_sum += d.out[v];
  }
  EXPECT_EQ(in_sum, g.edge_instances());
  EXPECT_EQ(out_sum, g.edge_instances());
}

TEST(DeBruijn, MultiplicityCarriesFrequency) {
  const auto plain = graph_of({"CGTGCGTGCTT"}, 5, false);
  const auto multi = graph_of({"CGTGCGTGCTT"}, 5, true);
  EXPECT_EQ(plain.edge_instances(), 6u);   // distinct edges only
  EXPECT_EQ(multi.edge_instances(), 7u);   // CGTGC counted twice
  EXPECT_EQ(plain.edge_count(), multi.edge_count());
}

TEST(DeBruijn, UnbalancedNodesOfLinearSequence) {
  // A repeat-free linear sequence has exactly two unbalanced nodes: the
  // start (out > in) and the end (in > out).
  const auto g = graph_of({"ACGGTCAGGTTT"}, 4);
  const auto d = degrees_of(g);
  std::size_t unbalanced = 0;
  for (NodeId v = 0; v < g.node_count(); ++v)
    if (d.in[v] != d.out[v]) ++unbalanced;
  EXPECT_EQ(unbalanced, 2u);
}

TEST(DeBruijn, BranchingAtRepeatNode) {
  // Paper Fig. 5c: after CTT the graph branches to TTA→{TAC, TAG}.
  const auto g = graph_of({"CGTGCTTACGG", "CGTGCTTAGG"}, 4);
  const auto node = node_of(g, "TTA");
  ASSERT_TRUE(node.has_value());
  EXPECT_EQ(g.out_edges(*node).size(), 2u);
  EXPECT_EQ(degrees_of(g).in[*node], 1u);
}

TEST(DeBruijn, DeterministicConstruction) {
  const auto a = graph_of({"CGTGCTTACGG", "CGTGCTTAGG"}, 4);
  const auto b = graph_of({"CGTGCTTACGG", "CGTGCTTAGG"}, 4);
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (std::size_t e = 0; e < a.edge_count(); ++e)
    EXPECT_EQ(a.edge(e).kmer, b.edge(e).kmer);
}

TEST(DeBruijn, LargeRandomGraphInvariants) {
  dna::GenomeParams gp;
  gp.length = 4000;
  gp.repeat_count = 2;  // default 20×300 bp would dominate a 4 kb genome
  const auto genome = dna::generate_genome(gp);
  dna::ReadSamplerParams rp;
  rp.coverage = 8.0;
  rp.read_length = 90;
  const auto reads = dna::sample_reads(genome, rp);
  const auto g = DeBruijnGraph::from_counter(build_hashmap(reads, 21));
  EXPECT_GT(g.node_count(), 3000u);
  EXPECT_GE(g.edge_count() + 1, g.node_count());  // connected-ish chain
  for (const auto& e : g.edges()) {
    EXPECT_LT(e.from, g.node_count());
    EXPECT_LT(e.to, g.node_count());
  }
}

}  // namespace
}  // namespace pima::assembly
