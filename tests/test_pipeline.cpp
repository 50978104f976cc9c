#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include "assembly/verify.hpp"
#include "common/error.hpp"
#include "dna/genome.hpp"

namespace pima::core {
namespace {

dram::Geometry pipeline_geometry() {
  dram::Geometry g;
  g.rows = 512;
  g.compute_rows = 8;
  g.columns = 256;
  g.subarrays_per_mat = 16;
  g.mats_per_bank = 4;
  g.banks = 2;
  return g;
}

struct TestWorkload {
  dna::Sequence genome;
  std::vector<dna::Sequence> reads;
};

TestWorkload small_workload(std::size_t genome_len = 1200,
                            double coverage = 8.0) {
  TestWorkload w;
  dna::GenomeParams gp;
  gp.length = genome_len;
  gp.repeat_count = 0;
  const auto genome = dna::generate_genome(gp);
  dna::ReadSamplerParams rp;
  rp.coverage = coverage;
  rp.read_length = 70;
  w.genome = genome;
  w.reads = dna::sample_reads(genome, rp);
  return w;
}

TEST(Pipeline, EndToEndAssemblyVerifies) {
  const auto w = small_workload();
  dram::Device dev(pipeline_geometry());
  PipelineOptions opt;
  opt.k = 17;
  opt.hash_shards = 8;
  const auto result = run_pipeline(dev, w.reads, opt);

  EXPECT_GT(result.distinct_kmers, 1000u);
  EXPECT_EQ(result.graph.edge_count(), result.distinct_kmers);
  const auto report =
      assembly::verify_contigs(w.genome, result.contigs, 2 * opt.k);
  EXPECT_TRUE(report.all_match());
  EXPECT_GT(report.reference_coverage, 0.9);
}

TEST(Pipeline, MatchesSoftwareAssembler) {
  const auto w = small_workload(900, 7.0);
  dram::Device dev(pipeline_geometry());
  PipelineOptions popt;
  popt.k = 15;
  popt.hash_shards = 8;
  const auto pim = run_pipeline(dev, w.reads, popt);

  assembly::AssemblyOptions sopt;
  sopt.k = 15;
  const auto sw = assemble(w.reads, sopt);

  EXPECT_EQ(pim.distinct_kmers, sw.distinct_kmers);
  EXPECT_EQ(pim.graph.node_count(), sw.graph_nodes);
  EXPECT_EQ(pim.graph.edge_count(), sw.graph_edges);
  EXPECT_EQ(pim.contig_stats.total_length, sw.stats.total_length);
  EXPECT_EQ(pim.contig_stats.count, sw.stats.count);
}

TEST(Pipeline, StageStatsAreAllPopulated) {
  const auto w = small_workload(600, 6.0);
  dram::Device dev(pipeline_geometry());
  PipelineOptions opt;
  opt.k = 15;
  opt.hash_shards = 6;
  const auto result = run_pipeline(dev, w.reads, opt);

  for (const auto* stage : {&result.hashmap, &result.debruijn,
                            &result.traverse}) {
    EXPECT_GT(stage->device.commands, 0u) << stage->name;
    EXPECT_GT(stage->device.time_ns, 0.0) << stage->name;
    EXPECT_GT(stage->device.energy_pj, 0.0) << stage->name;
  }
  // Hashmap dominates, as the paper reports (>60% of time on GPU; the PIM
  // run keeps it the largest stage too at these scales).
  EXPECT_GT(result.hashmap.device.time_ns, result.debruijn.device.time_ns);

  const auto total = result.total();
  EXPECT_NEAR(total.time_ns,
              result.hashmap.device.time_ns + result.debruijn.device.time_ns +
                  result.traverse.device.time_ns,
              1e-6);
  EXPECT_EQ(total.commands, result.hashmap.device.commands +
                                result.debruijn.device.commands +
                                result.traverse.device.commands);
}

// Stage 2a stores the graph on the sub-arrays after the hash shards, so
// the shards must leave at least one: a run that cannot fit is refused up
// front, before stage 1 issues a command, on either transport.
TEST(Pipeline, ShardCountMustLeaveRoomForTheGraph) {
  const auto w = small_workload(600, 6.0);
  const std::size_t total = pipeline_geometry().total_subarrays();
  for (const bool isolate : {false, true}) {
    for (const std::size_t shards : {total, total + 1}) {
      dram::Device dev(pipeline_geometry());
      PipelineOptions opt;
      opt.k = 15;
      opt.hash_shards = shards;
      opt.isolate = isolate;
      EXPECT_THROW(run_pipeline(dev, w.reads, opt), PreconditionError)
          << shards << " shards, isolate " << isolate;
      for (std::size_t flat = 0; flat < total; ++flat)
        EXPECT_EQ(dev.subarray_if(flat), nullptr) << flat;
      EXPECT_EQ(dev.roll_up().commands, 0u);
    }
  }
  dram::Device dev(pipeline_geometry());
  PipelineOptions opt;
  opt.k = 15;
  opt.hash_shards = total - 1;
  const auto result = run_pipeline(dev, w.reads, opt);
  EXPECT_GT(result.debruijn.device.commands, 0u);
  EXPECT_EQ(result.debruijn.device.subarrays_used, 1u);
}

TEST(Pipeline, ParallelShardsReduceCriticalPath) {
  const auto w = small_workload(900, 6.0);
  PipelineOptions narrow;
  narrow.k = 15;
  narrow.hash_shards = 6;
  PipelineOptions wide = narrow;
  wide.hash_shards = 24;

  dram::Device dev_a(pipeline_geometry());
  dram::Device dev_b(pipeline_geometry());
  const auto slow = run_pipeline(dev_a, w.reads, narrow);
  const auto fast = run_pipeline(dev_b, w.reads, wide);
  // Same total work, spread over more sub-arrays → shorter critical path.
  EXPECT_LT(fast.hashmap.device.time_ns, slow.hashmap.device.time_ns);
  EXPECT_EQ(fast.distinct_kmers, slow.distinct_kmers);
}

TEST(Pipeline, UnitigModeProducesVerifiedContigs) {
  const auto w = small_workload(800, 8.0);
  dram::Device dev(pipeline_geometry());
  PipelineOptions opt;
  opt.k = 15;
  opt.hash_shards = 8;
  opt.euler_contigs = false;
  const auto result = run_pipeline(dev, w.reads, opt);
  const auto report =
      assembly::verify_contigs(w.genome, result.contigs, 2 * opt.k);
  EXPECT_TRUE(report.all_match());
}

}  // namespace
}  // namespace pima::core
