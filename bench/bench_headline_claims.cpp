// Summarizes every headline claim of the paper's abstract/conclusion
// against this reproduction's measured values (E10 in DESIGN.md):
//   * 8.4× XNOR throughput vs CPU, 2.3× vs recent processing-in-DRAM,
//   * ~5× execution-time and ~7.5× power reduction vs GPU on chr14,
//   * ~5% DRAM chip-area overhead,
//   * two-row activation robust to ±10% process variation (0% failures).
//
// Besides the human-readable table, writes `BENCH_headline.json` (path
// overridable as argv[1]): the same measurements as machine-readable
// fields — commands & commands/s, serial/parallel wall-clock, simulated
// energy, the headline ratios — so CI can diff runs without scraping the
// table.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "circuit/area.hpp"
#include "circuit/montecarlo.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/cost_model.hpp"
#include "core/pipeline.hpp"
#include "dna/genome.hpp"
#include "net/json.hpp"
#include "platforms/presets.hpp"

using namespace pima;
using platforms::BulkOp;

namespace {

// Measured wall-clock speedup of the bit-accurate pipeline when sharded
// over the multi-channel runtime (see bench_fig10_parallelism for the
// full sweep). On a single-core host the ratio degenerates to ~1x; the
// accompanying "identical" flag still certifies the parallel path.
struct RuntimeSpeedup {
  double speedup = 0.0;
  bool identical = false;
  std::size_t channels = 0;
  double serial_wall_ms = 0.0;
  double parallel_wall_ms = 0.0;
  dram::DeviceStats device;  ///< simulated totals (same serial & parallel)
};

RuntimeSpeedup measure_runtime_speedup() {
  dna::GenomeParams gp;
  gp.length = 6'000;
  gp.repeat_count = 2;
  gp.repeat_length = 150;
  const auto genome = dna::generate_genome(gp);
  dna::ReadSamplerParams rp;
  rp.coverage = 10.0;
  rp.read_length = 101;
  const auto reads = dna::sample_reads(genome, rp);

  auto run = [&](std::size_t threads, double& wall_ms) {
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
    opt.hash_shards = 32;
    opt.threads = threads;
    const auto start = std::chrono::steady_clock::now();
    auto result = core::run_pipeline(device, reads, opt);
    wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
    return result;
  };

  RuntimeSpeedup out;
  out.channels = std::max(4u, std::thread::hardware_concurrency());
  const auto serial = run(1, out.serial_wall_ms);
  const auto parallel = run(out.channels, out.parallel_wall_ms);
  out.speedup = out.serial_wall_ms / out.parallel_wall_ms;
  out.identical =
      serial.contig_stats.count == parallel.contig_stats.count &&
      serial.contig_stats.n50 == parallel.contig_stats.n50 &&
      serial.total() == parallel.total();
  out.device = serial.total();
  return out;
}

// Machine-readable mirror of the table for CI diffing. Written with the
// service Json writer (shortest round-trip-exact numbers) so equal
// measurements always produce equal bytes.
void write_headline_json(const char* path, double vs_cpu, double vs_pim,
                         double time_ratio, double power_ratio,
                         double area_overhead_percent,
                         double variation_failure_percent,
                         const RuntimeSpeedup& rt) {
  using net::Json;
  Json runtime = Json::object();
  runtime.set("channels", rt.channels)
      .set("serial_wall_ms", rt.serial_wall_ms)
      .set("parallel_wall_ms", rt.parallel_wall_ms)
      .set("speedup", rt.speedup)
      .set("identical", rt.identical)
      .set("commands", rt.device.commands)
      .set("commands_per_s",
           rt.parallel_wall_ms > 0.0
               ? static_cast<double>(rt.device.commands) /
                     (rt.parallel_wall_ms / 1e3)
               : 0.0)
      .set("simulated_time_ns", rt.device.time_ns)
      .set("simulated_energy_pj", rt.device.energy_pj);
  Json root = Json::object();
  root.set("bench", "headline_claims")
      .set("xnor_throughput_vs_cpu", vs_cpu)
      .set("xnor_throughput_vs_pim", vs_pim)
      .set("chr14_time_ratio_vs_gpu", time_ratio)
      .set("chr14_power_ratio_vs_gpu", power_ratio)
      .set("area_overhead_percent", area_overhead_percent)
      .set("variation_failure_percent", variation_failure_percent)
      .set("runtime", std::move(runtime));
  std::ofstream out(path);
  out << root.dump() << "\n";
  if (!out)
    std::fprintf(stderr, "warning: could not write %s\n", path);
  else
    std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  TextTable table("PIM-Assembler headline claims: paper vs this reproduction");
  table.set_header({"claim", "paper", "measured"});

  // Bulk XNOR throughput ratios.
  const double bits = 1ull << 28;
  const auto pa = platforms::pim_assembler();
  const double pa_tp = platforms::bulk_throughput_bits_per_s(pa, BulkOp::kXnor, bits);
  const double vs_cpu =
      pa_tp / platforms::bulk_throughput_bits_per_s(platforms::cpu_corei7(),
                                                    BulkOp::kXnor, bits);
  const double vs_pim = geometric_mean(
      {pa_tp / platforms::bulk_throughput_bits_per_s(platforms::ambit(),
                                                     BulkOp::kXnor, bits),
       pa_tp / platforms::bulk_throughput_bits_per_s(platforms::drisa_1t1c(),
                                                     BulkOp::kXnor, bits),
       pa_tp / platforms::bulk_throughput_bits_per_s(platforms::drisa_3t1c(),
                                                     BulkOp::kXnor, bits)});
  table.add_row({"bulk XNOR throughput vs CPU", "8.4x",
                 TextTable::num(vs_cpu, 3) + "x"});
  table.add_row({"bulk XNOR throughput vs recent PIM", "2.3x",
                 TextTable::num(vs_pim, 3) + "x"});

  // Application-level vs GPU, averaged over the paper's k sweep.
  double time_ratio = 0.0, power_ratio = 0.0;
  for (const std::size_t k : {16u, 22u, 26u, 32u}) {
    core::WorkloadParams w;
    w.k = k;
    const auto gpu = core::estimate_application(platforms::gpu_1080ti(), w);
    const auto pac = core::estimate_application(pa, w);
    time_ratio += gpu.total_time_s / pac.total_time_s / 4.0;
    power_ratio += gpu.avg_power_w / pac.avg_power_w / 4.0;
  }
  table.add_row({"chr14 execution time vs GPU", "~5x",
                 TextTable::num(time_ratio, 3) + "x"});
  table.add_row({"chr14 power vs GPU", "~7.5x",
                 TextTable::num(power_ratio, 3) + "x"});

  // Area overhead.
  const auto area = circuit::estimate_area();
  table.add_row({"DRAM chip area overhead", "~5%",
                 TextTable::num(area.overhead_fraction * 100.0, 3) + "%"});

  // Variation robustness at ±10%.
  const auto var = circuit::run_variation_trials(
      circuit::TechParams{}, circuit::Mechanism::kTwoRowActivation, 0.10,
      10000, 7);
  table.add_row({"2-row failures at ±10% variation", "0.00%",
                 TextTable::num(var.failure_percent, 3) + "%"});

  // Multi-channel runtime: measured host speedup of the bit-accurate
  // pipeline, plus the determinism contract (parallel == serial output).
  const auto rt = measure_runtime_speedup();
  table.add_row({"runtime wall-clock speedup, " + std::to_string(rt.channels) +
                     " channels",
                 "scales", TextTable::num(rt.speedup, 2) + "x" +
                     (rt.identical ? " (bit-identical)" : " (MISMATCH)")});

  std::fputs(table.render().c_str(), stdout);
  write_headline_json(argc > 1 ? argv[1] : "BENCH_headline.json", vs_cpu,
                      vs_pim, time_ratio, power_ratio,
                      area.overhead_fraction * 100.0, var.failure_percent,
                      rt);
  if (std::thread::hardware_concurrency() <= 1)
    std::printf("note: single-core host — runtime speedup cannot exceed ~1x "
                "here; see bench_fig10_parallelism.\n");
  return 0;
}
