// Reproduces paper Fig. 10: trade-off between power consumption and delay
// as the parallelism degree Pd (replicated sub-array groups) grows, for
// k = 16 and k = 32, plus the mapping optimizer's chosen operating point
// (the paper determines the optimum at Pd ≈ 2).
//
// The analytic sweep is followed by a *measured* section: the bit-accurate
// pipeline is executed through the multi-channel runtime at increasing
// channel counts and timed with a wall clock, so the modelled parallelism
// is checked against parallelism we actually exploit on the host.
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/table.hpp"
#include "core/pd_optimizer.hpp"
#include "core/pipeline.hpp"
#include "dna/genome.hpp"
#include "platforms/presets.hpp"

using namespace pima;

namespace {

struct MeasuredRun {
  double wall_ms = 0.0;
  core::PipelineResult result;
};

MeasuredRun run_measured(const std::vector<dna::Sequence>& reads,
                         std::size_t threads) {
  dram::Geometry geom;
  geom.rows = 512;
  geom.compute_rows = 8;
  geom.columns = 256;
  geom.subarrays_per_mat = 16;
  geom.mats_per_bank = 4;
  geom.banks = 2;
  dram::Device device(geom);

  core::PipelineOptions opt;
  opt.k = 17;
  opt.hash_shards = 64;
  opt.threads = threads;

  const auto start = std::chrono::steady_clock::now();
  MeasuredRun run;
  run.result = core::run_pipeline(device, reads, opt);
  run.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return run;
}

void measured_speedup() {
  // Bundled workload: synthetic 12 kb chromosome at 12x coverage. The
  // PIM-executed stages (hash inserts and the m^2 degree blocks) account
  // for ~98% of the host wall time at this size, so the measured speedup
  // tracks the runtime's channel parallelism rather than serial overhead.
  dna::GenomeParams gp;
  gp.length = 12'000;
  gp.repeat_count = 4;
  gp.repeat_length = 200;
  const auto genome = dna::generate_genome(gp);
  dna::ReadSamplerParams rp;
  rp.coverage = 12.0;
  rp.read_length = 101;
  const auto reads = dna::sample_reads(genome, rp);

  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<std::size_t> counts{1, 2, 4};
  if (hw > 4) counts.push_back(std::min<std::size_t>(hw, 8));

  TextTable table("\nMeasured multi-channel runtime (bit-accurate pipeline)");
  table.set_header({"channels", "wall (ms)", "speedup", "contigs", "N50",
                    "identical"});
  MeasuredRun baseline;
  for (const std::size_t threads : counts) {
    const auto run = run_measured(reads, threads);
    if (threads == 1) baseline = run;
    const bool identical =
        run.result.contig_stats.count == baseline.result.contig_stats.count &&
        run.result.contig_stats.n50 == baseline.result.contig_stats.n50 &&
        run.result.total() == baseline.result.total();
    table.add_row({std::to_string(threads), TextTable::num(run.wall_ms, 1),
                   TextTable::num(baseline.wall_ms / run.wall_ms, 2) + "x",
                   std::to_string(run.result.contig_stats.count),
                   std::to_string(run.result.contig_stats.n50),
                   identical ? "yes" : "NO"});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("(reads: %zu, k=17, 64 hash shards; host threads: %u)\n",
              reads.size(), hw);

  if (hw <= 1) {
    std::printf(
        "note: this host exposes a single CPU, so wall-clock speedup cannot\n"
        "manifest here; the 'identical' column is the load-bearing check on\n"
        "this machine, and the speedup columns become meaningful on any\n"
        "multi-core host (e.g. the CI runners).\n");
  }
}

}  // namespace

int main() {
  const auto pa = platforms::pim_assembler();
  TextTable table("Fig. 10: power/delay vs parallelism degree");
  table.set_header({"k", "Pd", "delay (s)", "power (W)", "energy (J)"});
  for (const std::size_t k : {16u, 32u}) {
    core::WorkloadParams w;
    w.k = k;
    for (const auto& pt : core::sweep_parallelism(pa, w)) {
      table.add_row({std::to_string(k), std::to_string(pt.pd),
                     TextTable::num(pt.delay_s, 4),
                     TextTable::num(pt.power_w, 4),
                     TextTable::num(pt.energy_j, 4)});
    }
  }
  std::fputs(table.render().c_str(), stdout);

  TextTable opt("\nMapping-optimizer operating point");
  opt.set_header({"k", "paper optimum", "chosen Pd", "delay (s)",
                  "power (W)"});
  for (const std::size_t k : {16u, 32u}) {
    core::WorkloadParams w;
    w.k = k;
    const auto best = core::optimal_parallelism(pa, w);
    opt.add_row({std::to_string(k), "Pd ~ 2", std::to_string(best.pd),
                 TextTable::num(best.delay_s, 4),
                 TextTable::num(best.power_w, 4)});
  }
  std::fputs(opt.render().c_str(), stdout);

  measured_speedup();
  return 0;
}
