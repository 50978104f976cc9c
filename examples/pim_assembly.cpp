// Runs the full PIM-Assembler pipeline on the bit-accurate DRAM simulator:
// reads are chopped into k-mers, counted in in-memory hash shards with the
// single-cycle row comparator, the de Bruijn graph is built and traversed
// with in-memory degree computation, and the resulting contigs are checked
// against the reference. Per-stage command/time/energy statistics come
// straight from the simulated sub-arrays.
#include <cstdio>
#include <string>

#include "assembly/verify.hpp"
#include "common/table.hpp"
#include "core/pipeline.hpp"
#include "dna/genome.hpp"

// A fixed demo run; `pima_asm pim-run` takes the same pipeline with
// engine channels, isolation, fault injection, recovery, checkpoints and
// telemetry as range-checked flags.
int main() {
  using namespace pima;

  // Synthetic 3 kb chromosome and 8x read set.
  dna::GenomeParams gp;
  gp.length = 3'000;
  gp.repeat_count = 2;
  gp.repeat_length = 100;
  const auto genome = dna::generate_genome(gp);
  dna::ReadSamplerParams rp;
  rp.coverage = 8.0;
  rp.read_length = 101;
  const auto reads = dna::sample_reads(genome, rp);

  // A small PIM device: 2 banks x 4 MATs x 16 sub-arrays of 512x256.
  dram::Geometry geom;
  geom.rows = 512;
  geom.compute_rows = 8;
  geom.columns = 256;
  geom.subarrays_per_mat = 16;
  geom.mats_per_bank = 4;
  geom.banks = 2;
  dram::Device device(geom);

  core::PipelineOptions options;
  options.k = 17;
  options.hash_shards = 16;
  options.euler_contigs = false;  // unitigs: exact across repeats
  options.threads = 0;            // one channel per hardware thread
  const auto result = core::run_pipeline(device, reads, options);

  std::printf("PIM-Assembler functional run (%zu reads, k=%zu, threads=%zu)\n",
              reads.size(), options.k, options.threads);
  std::printf("distinct k-mers: %zu   graph: %zu nodes / %zu edges\n\n",
              result.distinct_kmers, result.graph.node_count(),
              result.graph.edge_count());

  TextTable table("per-stage simulated cost");
  table.set_header({"stage", "commands", "time (us)", "energy (nJ)",
                    "sub-arrays", "dyn. power (W)"});
  for (const auto* stage :
       {&result.hashmap, &result.debruijn, &result.traverse}) {
    const auto& d = stage->device;
    table.add_row({stage->name, std::to_string(d.commands),
                   TextTable::num(d.time_ns / 1e3, 4),
                   TextTable::num(d.energy_pj / 1e3, 4),
                   std::to_string(d.subarrays_used),
                   TextTable::num(d.dynamic_power_w(), 3)});
  }
  const auto total = result.total();
  table.add_row({"total", std::to_string(total.commands),
                 TextTable::num(total.time_ns / 1e3, 4),
                 TextTable::num(total.energy_pj / 1e3, 4),
                 std::to_string(total.subarrays_used),
                 TextTable::num(total.dynamic_power_w(), 3)});
  std::fputs(table.render().c_str(), stdout);

  const auto report =
      assembly::verify_contigs(genome, result.contigs, 2 * options.k);
  std::printf(
      "\ncontigs: %zu (N50 %zu bp) — %zu/%zu verified, %.1f%% reference "
      "coverage\n",
      result.contig_stats.count, result.contig_stats.n50,
      report.contigs_matching, report.contigs_checked,
      100.0 * report.reference_coverage);
  return report.all_match() ? 0 : 1;
}
