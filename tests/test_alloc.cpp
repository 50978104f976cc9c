// Heap-allocation guard for the simulator's per-probe hot path.
//
// This binary replaces the global operator new with a counting one, which
// is why it is a suite of its own: the count covers the whole process.
// A fault-free hash-table insert or lookup, and a DPU reduction, must not
// allocate once the sub-arrays they touch exist; a degree job must not
// allocate per adjacency row.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "core/pim_hash_table.hpp"
#include "core/shard_worker.hpp"
#include "dna/genome.hpp"
#include "dram/dpu.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pima {
namespace {

dram::Geometry table_geometry() {
  dram::Geometry g;
  g.rows = 256;
  g.compute_rows = 8;
  g.columns = 256;
  g.subarrays_per_mat = 8;
  g.mats_per_bank = 1;
  g.banks = 1;
  return g;
}

std::size_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(HotPathAllocation, CounterSeesAnAllocation) {
  const std::size_t before = allocations();
  const BitVector row(256);
  EXPECT_GT(allocations(), before);
}

TEST(HotPathAllocation, FaultFreeInsertAndLookupAllocateNothing) {
  dna::GenomeParams gp;
  gp.length = 600;
  gp.repeat_count = 0;
  const auto genome = dna::generate_genome(gp);
  std::vector<assembly::Kmer> kmers;
  for (std::size_t i = 0; i + 16 <= genome.size(); ++i)
    kmers.push_back(assembly::Kmer::from_sequence(genome, i, 16));

  for (const auto policy :
       {core::MappingPolicy::kCorrelated, core::MappingPolicy::kCentralValues}) {
    dram::Device dev(table_geometry());
    core::PimHashTable table(dev, 4, policy);
    table.bind_key_length(16);
    // Sub-arrays are created on first touch; create them up front.
    for (std::size_t flat = 0; flat < 5; ++flat) (void)dev.subarray(flat);

    const std::size_t before = allocations();
    for (const auto& km : kmers) (void)table.insert_or_increment(km);
    for (const auto& km : kmers) (void)table.insert_or_increment(km);
    std::size_t found = 0;
    for (const auto& km : kmers)
      if (table.lookup(km).has_value()) ++found;
    EXPECT_EQ(allocations(), before);
    EXPECT_EQ(found, kmers.size());
    EXPECT_EQ(table.lookup(kmers.front()).value(), 2u);
  }
}

TEST(HotPathAllocation, DpuReductionsAllocateNothing) {
  dram::Subarray sa(table_geometry(), circuit::default_technology());
  const std::size_t before = allocations();
  const bool all = dram::Dpu::and_reduce(sa, 0, 200);
  const bool any = dram::Dpu::or_reduce(sa, 0, 200);
  const std::size_t ones = dram::Dpu::popcount(sa, 0, 256);
  const bool match = sa.xnor_match(0, 1, sa.compute_row(3), 64);
  EXPECT_EQ(allocations(), before);
  // Zero rows: nothing reduces to 1 except the match of two equal rows.
  EXPECT_FALSE(all);
  EXPECT_FALSE(any);
  EXPECT_EQ(ones, 0u);
  EXPECT_TRUE(match);
}

// A degree job renders its adjacency rows through its channel's reused
// buffers: once they have grown, the job's allocations (its task, block
// copy, result and host reference) do not depend on how many rows it sums.
TEST(HotPathAllocation, DegreeJobAllocationsDoNotGrowWithRows) {
  dram::Geometry g = table_geometry();
  g.rows = 512;
  dram::Device dev(g);
  core::DeviceShard shard(dev, runtime::EngineOptions{}, 1, 16, 64);
  const auto job = [&](std::uint32_t n_sources) {
    // Two edges; the second has multiplicity 2, so one extra row.
    core::EdgeBlock block;
    block.edges = {{0, 5, 1}, {n_sources - 1, 9, 2}};
    const std::size_t before = allocations();
    shard.degree_block(5, n_sources, std::move(block));
    shard.drain();
    return allocations() - before;
  };
  (void)job(200);  // creates the sub-array and grows the buffers
  const std::size_t small = job(16), large = job(200);
  EXPECT_EQ(small, large);
}

}  // namespace
}  // namespace pima
