#include "core/pim_hash_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dna/genome.hpp"
#include "dram/command.hpp"
#include "dram/fault.hpp"
#include "dram/isa.hpp"
#include "golden/golden.hpp"
#include "runtime/recovery.hpp"
#include "test_support.hpp"

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
  // Reading the shard back decodes the key from its DRAM row.
  bool found = false;
  for (const auto& [kmer, count] : table.extract_shard(0)) {
    EXPECT_EQ(kmer.to_string(), "CGTGCGTGCTTACGG");
    EXPECT_EQ(count, 1u);
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
}

// ---- fused-probe oracle -------------------------------------------------

// The k-mers of reads sampled from a repeat-bearing genome: every k-mer
// arrives several times, so the stream mixes first inserts, increments and
// long probe chains.
std::vector<Kmer> read_kmers(std::size_t length, std::size_t k,
                             std::uint64_t seed) {
  dna::GenomeParams gp;
  gp.length = length;
  gp.repeat_count = 2;
  gp.repeat_length = 60;
  gp.seed = seed;
  dna::ReadSamplerParams rp;
  rp.coverage = 6.0;
  rp.read_length = 60;
  rp.seed = seed + 1;
  std::vector<Kmer> out;
  for (const auto& r : dna::sample_reads(dna::generate_genome(gp), rp))
    for (std::size_t i = 0; i + k <= r.size(); ++i)
      out.push_back(Kmer::from_sequence(r, i, k));
  return out;
}

// One table on its own traced device. `stepped` attaches a zero-rate fault
// injector to every sub-array the table uses: it injects nothing but makes
// Subarray::xnor_match run the per-command sequence.
struct ProbeRig {
  ProbeRig(const dram::Geometry& g, std::size_t shards, MappingPolicy policy,
           bool stepped)
      : dev(g), table(dev, shards, policy) {
    dev.enable_tracing();
    const std::size_t used =
        shards + (policy == MappingPolicy::kCentralValues ? 1 : 0);
    const auto model = std::make_shared<const dram::FaultModel>(
        circuit::TechParams{}, dram::FaultConfig{});
    for (std::size_t flat = 0; flat < used; ++flat) {
      // Both rigs instantiate the same sub-arrays up front.
      dram::Subarray& sa = dev.subarray(flat);
      if (stepped)
        sa.attach_fault_injector(
            std::make_shared<dram::FaultInjector>(model, flat, g));
    }
  }
  dram::Device dev;
  PimHashTable table;
};

// Inserts every k-mer (recording each returned frequency, or 0 once a
// shard overflows), then looks up each of `queries`.
std::vector<std::uint32_t> drive(PimHashTable& table,
                                 const std::vector<Kmer>& inserts,
                                 const std::vector<Kmer>& queries) {
  std::vector<std::uint32_t> out;
  for (const auto& km : inserts) {
    try {
      out.push_back(table.insert_or_increment(km));
    } catch (const pima::SimulationError&) {
      out.push_back(0);
    }
  }
  for (const auto& km : queries)
    out.push_back(table.lookup(km).value_or(0));
  return out;
}

// Rows (compute rows included), latch, per-kind counts, busy time and
// energy (exactly) of every sub-array, the captured program, and a golden
// replay of that program.
void expect_same_device(const dram::Device& fused,
                        const dram::Device& stepped) {
  const dram::Geometry& g = fused.geometry();
  for (std::size_t flat = 0; flat < g.total_subarrays(); ++flat) {
    const dram::Subarray* a = fused.subarray_if(flat);
    const dram::Subarray* b = stepped.subarray_if(flat);
    ASSERT_EQ(a == nullptr, b == nullptr) << "sub-array " << flat;
    if (a == nullptr) continue;
    for (dram::RowAddr r = 0; r < g.rows; ++r)
      ASSERT_EQ(a->peek_row(r), b->peek_row(r))
          << "sub-array " << flat << " row " << r;
    EXPECT_EQ(a->peek_latch(), b->peek_latch()) << flat;
    for (std::size_t k = 0; k < dram::kCommandKindCount; ++k)
      EXPECT_EQ(a->stats().counts[k], b->stats().counts[k]) << flat << " " << k;
    EXPECT_EQ(a->stats().busy_ns, b->stats().busy_ns) << flat;
    EXPECT_EQ(a->stats().energy_pj, b->stats().energy_pj) << flat;
  }
  const dram::Program program = test_support::captured_program(fused);
  EXPECT_EQ(dram::to_text(program),
            dram::to_text(test_support::captured_program(stepped)));

  golden::GoldenDevice replay(g);
  golden::execute(replay, program);
  for (std::size_t flat = 0; flat < g.total_subarrays(); ++flat) {
    const dram::Subarray* a = fused.subarray_if(flat);
    if (a == nullptr) continue;
    const auto& gsa = replay.subarray(flat);
    for (dram::RowAddr r = 0; r < g.rows; ++r)
      ASSERT_EQ(gsa.row_bits(r), a->peek_row(r))
          << "golden sub-array " << flat << " row " << r;
    EXPECT_EQ(gsa.latch_bits(), a->peek_latch()) << flat;
  }
}

class FusedProbe : public ::testing::TestWithParam<MappingPolicy> {};

TEST_P(FusedProbe, MatchesPerCommandPathAndGolden) {
  const MappingPolicy policy = GetParam();
  const auto inserts = read_kmers(500, 16, 31);
  // Queries: every fourth inserted k-mer (hits) and k-mers of an
  // unrelated genome (almost all misses).
  std::vector<Kmer> queries;
  for (std::size_t i = 0; i < inserts.size(); i += 4)
    queries.push_back(inserts[i]);
  for (const auto& km : read_kmers(150, 16, 77)) queries.push_back(km);

  ProbeRig fused(test_geometry(), 4, policy, /*stepped=*/false);
  ProbeRig stepped(test_geometry(), 4, policy, /*stepped=*/true);
  const auto got = drive(fused.table, inserts, queries);
  EXPECT_EQ(got, drive(stepped.table, inserts, queries));
  EXPECT_EQ(fused.table.distinct_kmers(), stepped.table.distinct_kmers());
  std::size_t hits = 0, misses = 0;
  for (std::size_t i = inserts.size(); i < got.size(); ++i)
    ++(got[i] == 0 ? misses : hits);
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
  expect_same_device(fused.dev, stepped.dev);
}

TEST_P(FusedProbe, SaturatedCountersMatch) {
  const auto km = kmer_of("ACGTACGTACGTTGCA");
  const std::vector<Kmer> inserts(300, km);
  ProbeRig fused(test_geometry(), 2, GetParam(), false);
  ProbeRig stepped(test_geometry(), 2, GetParam(), true);
  const auto got = drive(fused.table, inserts, {km});
  EXPECT_EQ(got.back(), 255u);
  EXPECT_EQ(got, drive(stepped.table, inserts, {km}));
  expect_same_device(fused.dev, stepped.dev);
}

TEST_P(FusedProbe, FullShardMatches) {
  dram::Geometry g = test_geometry();
  g.rows = 32;  // ≈12 keys per shard
  const auto inserts = read_kmers(200, 16, 5);
  const std::vector<Kmer> queries(inserts.begin(), inserts.begin() + 40);
  ProbeRig fused(g, 1, GetParam(), false);
  ProbeRig stepped(g, 1, GetParam(), true);
  const auto got = drive(fused.table, inserts, queries);
  EXPECT_NE(std::find(got.begin(), got.end(), 0u), got.end())
      << "the shard never filled";
  EXPECT_EQ(got, drive(stepped.table, inserts, queries));
  expect_same_device(fused.dev, stepped.dev);
}

INSTANTIATE_TEST_SUITE_P(Policies, FusedProbe,
                         ::testing::Values(MappingPolicy::kCorrelated,
                                           MappingPolicy::kCentralValues));

TEST(PimHashTable, RecoveryAttachedTakesTheRecoveryProbe) {
  // With a recovery manager attached the probe is the recovery executor's
  // compare_rows plus a DPU AND-reduce, not the fused xnor_match. Vote
  // mode makes that visible: every probe's XNOR runs three times.
  const auto inserts = read_kmers(600, 16, 9);
  ProbeRig fused(test_geometry(), 4, MappingPolicy::kCorrelated, false);
  ProbeRig guarded(test_geometry(), 4, MappingPolicy::kCorrelated, false);
  runtime::RecoveryOptions ro;
  ro.mode = runtime::RecoveryMode::kVote;
  runtime::RecoveryManager recovery(guarded.dev, ro);
  guarded.table.attach_recovery(&recovery);
  EXPECT_EQ(drive(fused.table, inserts, inserts),
            drive(guarded.table, inserts, inserts));
  const auto two_row = static_cast<std::size_t>(dram::CommandKind::kAapTwoRow);
  const std::size_t probes = fused.dev.fold().commands.counts[two_row];
  ASSERT_GT(probes, 0u);
  EXPECT_EQ(guarded.dev.fold().commands.counts[two_row], 3 * probes);
  EXPECT_EQ(recovery.roll_up().escaped, 0u);
}

TEST(PimHashTable, ConcurrentDisjointShardsMatchSerial) {
  // Two threads insert into disjoint shard sets of one table, each in the
  // stream's order. Every shard sees the same insert sequence as in the
  // serial run, so rows, stats and the distinct count must be equal.
  const auto stream = read_kmers(1500, 17, 3);
  const std::size_t shards = 8;
  dram::Device serial_dev(test_geometry());
  PimHashTable serial(serial_dev, shards);
  serial.bind_key_length(17);
  for (const auto& km : stream) serial.insert_or_increment(km);

  dram::Device dev(test_geometry());
  PimHashTable table(dev, shards);
  table.bind_key_length(17);
  std::vector<Kmer> part[2];
  for (const auto& km : stream) part[table.shard_for(km) % 2].push_back(km);
  ASSERT_FALSE(part[0].empty());
  ASSERT_FALSE(part[1].empty());
  std::thread t0([&] {
    for (const auto& km : part[0]) table.insert_or_increment(km);
  });
  std::thread t1([&] {
    for (const auto& km : part[1]) table.insert_or_increment(km);
  });
  t0.join();
  t1.join();

  EXPECT_EQ(table.distinct_kmers(), serial.distinct_kmers());
  for (std::size_t flat = 0; flat < shards; ++flat) {
    const dram::Subarray* a = dev.subarray_if(flat);
    const dram::Subarray* b = serial_dev.subarray_if(flat);
    ASSERT_EQ(a == nullptr, b == nullptr) << flat;
    if (a == nullptr) continue;
    for (dram::RowAddr r = 0; r < test_geometry().rows; ++r)
      ASSERT_EQ(a->peek_row(r), b->peek_row(r)) << flat << " row " << r;
    for (std::size_t k = 0; k < dram::kCommandKindCount; ++k)
      EXPECT_EQ(a->stats().counts[k], b->stats().counts[k]) << flat << " " << k;
    EXPECT_EQ(a->stats().busy_ns, b->stats().busy_ns) << flat;
    EXPECT_EQ(a->stats().energy_pj, b->stats().energy_pj) << flat;
  }
  EXPECT_EQ(dev.roll_up(), serial_dev.roll_up());
}

}  // namespace
}  // namespace pima::core
