#include "assembly/hash_table.hpp"

#include <gtest/gtest.h>

#include <unordered_map>

#include "dna/genome.hpp"

namespace pima::assembly {
namespace {

TEST(KmerCounter, PaperFig5bExample) {
  // Paper Fig. 5b: S = CGTGCGTGCTT, k = 5 →
  // CGTGC:2, GTGCG:1, TGCGT:1, GCGTG:1, GTGCT:1, TGCTT:1.
  const auto s = dna::Sequence::from_string("CGTGCGTGCTT");
  const auto table = build_hashmap({s}, 5);
  EXPECT_EQ(table.distinct_kmers(), 6u);
  EXPECT_EQ(table.total_kmers(), 7u);
  auto freq = [&](const char* txt) {
    const auto seq = dna::Sequence::from_string(txt);
    return table.lookup(Kmer::from_sequence(seq, 0, 5)).value_or(0);
  };
  EXPECT_EQ(freq("CGTGC"), 2u);
  EXPECT_EQ(freq("GTGCG"), 1u);
  EXPECT_EQ(freq("TGCGT"), 1u);
  EXPECT_EQ(freq("GCGTG"), 1u);
  EXPECT_EQ(freq("GTGCT"), 1u);
  EXPECT_EQ(freq("TGCTT"), 1u);
  const auto absent = dna::Sequence::from_string("AAAAA");
  EXPECT_FALSE(table.lookup(Kmer::from_sequence(absent, 0, 5)).has_value());
}

TEST(KmerCounter, InsertReturnsRunningFrequency) {
  KmerCounter t(16);
  const auto seq = dna::Sequence::from_string("ACGTA");
  const auto km = Kmer::from_sequence(seq, 0, 5);
  EXPECT_EQ(t.insert_or_increment(km), 1u);
  EXPECT_EQ(t.insert_or_increment(km), 2u);
  EXPECT_EQ(t.insert_or_increment(km), 3u);
  EXPECT_EQ(t.total_kmers(), 3u);
  EXPECT_EQ(t.distinct_kmers(), 1u);
}

TEST(KmerCounter, SaturatingCounters) {
  KmerCounter t(16, 2);  // 2-bit counters saturate at 3
  const auto seq = dna::Sequence::from_string("ACGTA");
  const auto km = Kmer::from_sequence(seq, 0, 5);
  for (int i = 0; i < 10; ++i) t.insert_or_increment(km);
  EXPECT_EQ(t.lookup(km).value(), 3u);
  EXPECT_EQ(t.total_kmers(), 10u);  // total still counts all arrivals
}

TEST(KmerCounter, CounterBitsValidated) {
  EXPECT_THROW(KmerCounter(16, 0), pima::PreconditionError);
  EXPECT_THROW(KmerCounter(16, 33), pima::PreconditionError);
}

TEST(KmerCounter, GrowsBeyondInitialCapacity) {
  KmerCounter t(4);
  dna::GenomeParams gp;
  gp.length = 3000;
  gp.repeat_count = 0;
  const auto g = dna::generate_genome(gp);
  for (std::size_t i = 0; i + 16 <= g.size(); ++i)
    t.insert_or_increment(Kmer::from_sequence(g, i, 16));
  EXPECT_GT(t.distinct_kmers(), 2500u);
  // Load factor below 0.7 after growth.
  EXPECT_LT(t.distinct_kmers() * 10, t.capacity() * 7 + t.capacity());
}

TEST(KmerCounter, MatchesUnorderedMapOnRandomReads) {
  dna::GenomeParams gp;
  gp.length = 5000;
  const auto g = dna::generate_genome(gp);
  dna::ReadSamplerParams rp;
  rp.read_length = 80;
  rp.coverage = 6.0;
  const auto reads = dna::sample_reads(g, rp);

  const std::size_t k = 17;
  const auto table = build_hashmap(reads, k);

  std::unordered_map<Kmer, std::uint32_t> ref;
  for (const auto& r : reads)
    for (std::size_t i = 0; i + k <= r.size(); ++i)
      ++ref[Kmer::from_sequence(r, i, k)];

  EXPECT_EQ(table.distinct_kmers(), ref.size());
  for (const auto& [km, freq] : ref)
    EXPECT_EQ(table.lookup(km).value_or(0), freq) << km.to_string();
}

TEST(KmerCounter, ForEachVisitsEverything) {
  const auto s = dna::Sequence::from_string("CGTGCGTGCTT");
  const auto table = build_hashmap({s}, 5);
  std::size_t seen = 0;
  std::uint64_t total = 0;
  table.for_each([&](const Kmer&, std::uint32_t f) {
    ++seen;
    total += f;
  });
  EXPECT_EQ(seen, 6u);
  EXPECT_EQ(total, 7u);
}

TEST(KmerCounter, OpCountsTrackWorkload) {
  KmerCounter t(16);
  const auto seq = dna::Sequence::from_string("ACGTA");
  const auto km = Kmer::from_sequence(seq, 0, 5);
  t.insert_or_increment(km);  // 1 insert
  t.insert_or_increment(km);  // ≥1 comparison + 1 increment
  const auto& ops = t.op_counts();
  EXPECT_EQ(ops.inserts, 1u);
  EXPECT_EQ(ops.increments, 1u);
  EXPECT_GE(ops.comparisons, 1u);
  t.reset_op_counts();
  EXPECT_EQ(t.op_counts().inserts, 0u);
}

TEST(KmerCounter, SkipsShortReads) {
  const auto tiny = dna::Sequence::from_string("ACG");
  const auto table = build_hashmap({tiny}, 5);
  EXPECT_EQ(table.distinct_kmers(), 0u);
}

TEST(HashOpCounts, Accumulate) {
  HashOpCounts a{1, 2, 3}, b{10, 20, 30};
  a += b;
  EXPECT_EQ(a.comparisons, 11u);
  EXPECT_EQ(a.increments, 22u);
  EXPECT_EQ(a.inserts, 33u);
}

}  // namespace
}  // namespace pima::assembly
