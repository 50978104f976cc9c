#include "core/pim_hash_table.hpp"

#include <gtest/gtest.h>

#include <unordered_map>

#include "dna/genome.hpp"
#include "dram/command.hpp"

namespace pima::core {
namespace {

using assembly::Kmer;

dram::Geometry test_geometry() {
  dram::Geometry g;
  g.rows = 256;  // 248 data rows → ~200-key shards, fast tests
  g.compute_rows = 8;
  g.columns = 256;
  g.subarrays_per_mat = 8;
  g.mats_per_bank = 1;
  g.banks = 1;
  return g;
}

Kmer kmer_of(const std::string& s) {
  const auto seq = dna::Sequence::from_string(s);
  return Kmer::from_sequence(seq, 0, seq.size());
}

TEST(PimHashTable, InsertAndIncrement) {
  dram::Device dev(test_geometry());
  PimHashTable table(dev, 2);
  EXPECT_EQ(table.insert_or_increment(kmer_of("CGTGC")), 1u);
  EXPECT_EQ(table.insert_or_increment(kmer_of("CGTGC")), 2u);
  EXPECT_EQ(table.insert_or_increment(kmer_of("GTGCG")), 1u);
  EXPECT_EQ(table.distinct_kmers(), 2u);
  EXPECT_EQ(table.lookup(kmer_of("CGTGC")).value(), 2u);
  EXPECT_EQ(table.lookup(kmer_of("GTGCG")).value(), 1u);
  EXPECT_FALSE(table.lookup(kmer_of("AAAAA")).has_value());
}

TEST(PimHashTable, PaperFig5bExampleInDram) {
  dram::Device dev(test_geometry());
  PimHashTable table(dev, 2);
  const auto s = dna::Sequence::from_string("CGTGCGTGCTT");
  for (std::size_t i = 0; i + 5 <= s.size(); ++i)
    table.insert_or_increment(Kmer::from_sequence(s, i, 5));
  EXPECT_EQ(table.distinct_kmers(), 6u);
  EXPECT_EQ(table.lookup(kmer_of("CGTGC")).value(), 2u);
  EXPECT_EQ(table.lookup(kmer_of("TGCTT")).value(), 1u);
}

TEST(PimHashTable, KeysLiveInDramRows) {
  dram::Device dev(test_geometry());
  PimHashTable table(dev, 1);
  table.insert_or_increment(kmer_of("CGTGCGTGCTTACGG"));
  // Find the occupied slot and decode the row image.
  bool found = false;
  for (std::size_t slot = 0; slot < table.layout().kmer_rows; ++slot) {
    const auto entry = table.peek_slot(0, slot);
    if (!entry) continue;
    EXPECT_EQ(entry->first.to_string(), "CGTGCGTGCTTACGG");
    EXPECT_EQ(entry->second, 1u);
    found = true;
  }
  EXPECT_TRUE(found);
}

TEST(PimHashTable, SaturatingEightBitCounter) {
  dram::Device dev(test_geometry());
  PimHashTable table(dev, 1);
  const auto km = kmer_of("ACGTACGTACGT");
  for (int i = 0; i < 300; ++i) table.insert_or_increment(km);
  EXPECT_EQ(table.lookup(km).value(), 255u);  // saturates, never wraps
}

TEST(PimHashTable, MixedKRejected) {
  dram::Device dev(test_geometry());
  PimHashTable table(dev, 1);
  table.insert_or_increment(kmer_of("ACGTA"));
  EXPECT_THROW(table.insert_or_increment(kmer_of("ACGTAC")),
               pima::PreconditionError);
  EXPECT_FALSE(table.lookup(kmer_of("ACGTAC")).has_value());
}

TEST(PimHashTable, OverlongKmerRejected) {
  dram::Geometry g = test_geometry();
  g.columns = 32;  // 16 bp max
  dram::Device dev(g);
  PimHashTable table(dev, 1);
  EXPECT_THROW(table.insert_or_increment(kmer_of("ACGTACGTACGTACGTACGTA")),
               pima::PreconditionError);
}

TEST(PimHashTable, ShardFullThrows) {
  dram::Geometry g = test_geometry();
  g.rows = 32;  // tiny shard (≈12 keys)
  dram::Device dev(g);
  PimHashTable table(dev, 1);
  dna::GenomeParams gp;
  gp.length = 600;
  gp.repeat_count = 0;
  const auto genome = dna::generate_genome(gp);
  EXPECT_THROW(
      {
        for (std::size_t i = 0; i + 16 <= genome.size(); ++i)
          table.insert_or_increment(Kmer::from_sequence(genome, i, 16));
      },
      pima::SimulationError);
}

TEST(PimHashTable, MatchesSoftwareCounterOnRandomReads) {
  dram::Device dev(test_geometry());
  PimHashTable table(dev, 8);

  dna::GenomeParams gp;
  gp.length = 1200;
  gp.repeat_count = 2;
  gp.repeat_length = 80;
  const auto genome = dna::generate_genome(gp);
  dna::ReadSamplerParams rp;
  rp.coverage = 6.0;
  rp.read_length = 70;
  const auto reads = dna::sample_reads(genome, rp);

  const std::size_t k = 16;
  std::unordered_map<Kmer, std::uint32_t> ref;
  for (const auto& r : reads) {
    for (std::size_t i = 0; i + k <= r.size(); ++i) {
      const auto km = Kmer::from_sequence(r, i, k);
      table.insert_or_increment(km);
      ++ref[km];
    }
  }
  EXPECT_EQ(table.distinct_kmers(), ref.size());
  for (const auto& [km, freq] : ref)
    ASSERT_EQ(table.lookup(km).value_or(0), std::min<std::uint32_t>(freq, 255))
        << km.to_string();

  // The shards, read out in order, hold exactly the reference multiset.
  KmerEntries entries;
  for (std::size_t s = 0; s < table.shard_count(); ++s) {
    const auto part = table.extract_shard(s);
    entries.insert(entries.end(), part.begin(), part.end());
  }
  EXPECT_EQ(entries.size(), ref.size());
  for (const auto& [km, freq] : entries)
    EXPECT_EQ(std::min<std::uint32_t>(ref.at(km), 255), freq);
}

TEST(PimHashTable, CommandsAreCosted) {
  dram::Device dev(test_geometry());
  PimHashTable table(dev, 1);
  table.insert_or_increment(kmer_of("ACGTACGT"));
  table.insert_or_increment(kmer_of("ACGTACGT"));
  const auto stats = dev.roll_up();
  EXPECT_GT(stats.commands, 0u);
  EXPECT_GT(stats.energy_pj, 0.0);
  EXPECT_GT(stats.time_ns, 0.0);
  // The second arrival must have used the single-cycle compare + DPU path.
  const auto& sa_stats = dev.subarray(0).stats();
  EXPECT_GE(sa_stats.counts[static_cast<std::size_t>(
                dram::CommandKind::kAapTwoRow)],
            1u);
  EXPECT_GE(sa_stats.counts[static_cast<std::size_t>(
                dram::CommandKind::kDpuReduce)],
            1u);
}

TEST(PimHashTable, ShardsSpreadAcrossSubarrays) {
  dram::Device dev(test_geometry());
  PimHashTable table(dev, 8);
  dna::GenomeParams gp;
  gp.length = 800;
  gp.repeat_count = 0;
  const auto genome = dna::generate_genome(gp);
  for (std::size_t i = 0; i + 20 <= genome.size(); i += 3)
    table.insert_or_increment(Kmer::from_sequence(genome, i, 20));
  // Hash routing must touch most shards.
  EXPECT_GE(dev.roll_up().subarrays_used, 6u);
}

TEST(PimHashTable, ConstructorValidation) {
  dram::Device dev(test_geometry());
  EXPECT_THROW(PimHashTable(dev, 0), pima::PreconditionError);
  EXPECT_THROW(PimHashTable(dev, 9), pima::PreconditionError);  // > 8 arrays
  EXPECT_NO_THROW(PimHashTable(dev, 4, 4));
}

}  // namespace
}  // namespace pima::core
