// perfbench_layers — host-time probes of single layers of the simulator,
// plus a standalone pipeline run used as the reference for service jobs.
//
//   perfbench_layers micro
//       Prints one JSON object: median host ns per call of the public
//       functions of layers 1-4 (BitVector kernels, one Subarray command
//       per CommandKind, an empty engine task hand-off, and the hash-probe,
//       column-sum and program-slice kernels).
//   perfbench_layers contigs --reads R --k K --shards S --threads T --out F
//       Runs core::run_pipeline on the pim-run / serve geometry, writes the
//       contigs exactly as the daemon writes a job's contigs.fa, and prints
//       the contig statistics and the exact per-stage model totals as JSON.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bitvector.hpp"
#include "common/rng.hpp"
#include "core/degree.hpp"
#include "core/pim_hash_table.hpp"
#include "core/pipeline.hpp"
#include "dna/fasta.hpp"
#include "dna/genome.hpp"
#include "dram/dpu.hpp"
#include "dram/isa.hpp"
#include "dram/subarray.hpp"
#include "runtime/engine.hpp"

using namespace pima;

namespace {

using Clock = std::chrono::steady_clock;

// Results reach memory through this sink, so no timed call is dead code.
volatile std::uint64_t g_sink = 0;
void keep(std::uint64_t v) { g_sink = v; }

// The geometry `pima_asm pim-run` and `pima_asm serve` build.
dram::Geometry run_geometry() {
  dram::Geometry g;
  g.rows = 512;
  g.columns = 256;
  g.subarrays_per_mat = 16;
  g.mats_per_bank = 4;
  g.banks = 2;
  return g;
}

BitVector random_row(Rng& rng) {
  BitVector row(256);
  for (std::size_t c = 0; c < row.size(); ++c) row.set(c, rng.bernoulli(0.5));
  return row;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Median host ns per call of `body`, which makes `calls_per_body` calls.
// `setup` runs untimed before every timed batch. Batches are sized to take
// about 2 ms; batches repeat for `budget_s`.
double median_ns(const std::function<void()>& body, std::size_t calls_per_body,
                 const std::function<void()>& setup = {},
                 double budget_s = 0.15) {
  std::size_t reps = 1;
  for (;;) {
    if (setup) setup();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) body();
    if (seconds_since(t0) >= 2e-3 || reps >= (std::size_t{1} << 24)) break;
    reps *= 2;
  }
  std::vector<double> samples;
  const auto start = Clock::now();
  while (samples.size() < 5 || seconds_since(start) < budget_s) {
    if (setup) setup();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) body();
    samples.push_back(seconds_since(t0) * 1e9 /
                      static_cast<double>(reps * calls_per_body));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

void micro_bitvector(std::map<std::string, double>& out) {
  Rng rng(1);
  const BitVector a = random_row(rng), b = random_row(rng), c = random_row(rng);
  out["bitvector.xnor_ns"] =
      median_ns([&] { keep(BitVector::bit_xnor(a, b).word(0)); }, 1);
  out["bitvector.xor_ns"] =
      median_ns([&] { keep(BitVector::bit_xor(a, b).word(0)); }, 1);
  out["bitvector.maj3_ns"] =
      median_ns([&] { keep(BitVector::bit_maj3(a, b, c).word(1)); }, 1);
}

void micro_subarray(std::map<std::string, double>& out) {
  const auto geom = run_geometry();
  dram::Subarray sa(geom, circuit::default_technology());
  Rng rng(2);
  const BitVector payload = random_row(rng);
  for (dram::RowAddr r = 0; r < 8; ++r) sa.write_row(r, random_row(rng));
  const dram::RowAddr x1 = sa.compute_row(0), x2 = sa.compute_row(1),
                      x3 = sa.compute_row(2);
  // Operands are re-staged once per batch; the commands themselves keep
  // the rows at full width, so the timed work does not depend on values.
  const auto stage = [&] {
    sa.aap_copy(0, x1);
    sa.aap_copy(1, x2);
    sa.aap_copy(2, x3);
  };
  const auto kind = [](dram::CommandKind k) {
    return "subarray." + std::string(dram::to_string(k)) + "_ns";
  };
  using K = dram::CommandKind;
  out[kind(K::kRowRead)] =
      median_ns([&] { keep(sa.read_row(3).word(0)); }, 1);
  out[kind(K::kRowWrite)] = median_ns([&] { sa.write_row(4, payload); }, 1);
  out[kind(K::kAapCopy)] = median_ns([&] { sa.aap_copy(5, 6); }, 1);
  out[kind(K::kAapTwoRow)] =
      median_ns([&] { sa.aap_xnor(x1, x2, 7); }, 1, stage);
  out[kind(K::kAapTra)] =
      median_ns([&] { sa.aap_tra_carry(x1, x2, x3, 7); }, 1, stage);
  out[kind(K::kSumCycle)] =
      median_ns([&] { sa.sum_cycle(x1, x2, 7); }, 1, stage);
  out[kind(K::kDpuReduce)] =
      median_ns([&] { keep(sa.dpu_fetch(3).word(0)); }, 1);
  out[kind(K::kLatchReset)] = median_ns([&] { sa.reset_latch(); }, 1);
  keep(sa.stats().total_commands());
}

void micro_engine(std::map<std::string, double>& out) {
  dram::Device device(run_geometry());
  runtime::EngineOptions eo;
  eo.channels = 2;
  runtime::Engine engine(device, eo);
  std::size_t next = 0;
  out["engine.empty_task_ns"] = median_ns(
      [&] {
        engine.submit(next++ % 2, [] {});
        engine.drain();
      },
      1);
}

void micro_kernels(std::map<std::string, double>& out) {
  const auto geom = run_geometry();

  // Hash probe: the k-mers of a repeat-free 6 kbp genome, each inserted
  // three times (one insert, two increments), into a fresh 64-shard table
  // per batch — the occupancy a kmer_dense shard reaches.
  dna::GenomeParams gp;
  gp.length = 6000;
  gp.repeat_count = 0;
  gp.seed = 3;
  const auto genome = dna::generate_genome(gp);
  std::vector<assembly::Kmer> kmers;
  for (std::size_t i = 0; i + 17 <= genome.size(); ++i)
    kmers.push_back(assembly::Kmer::from_sequence(genome, i, 17));
  std::unique_ptr<dram::Device> device;
  std::unique_ptr<core::PimHashTable> table;
  out["kernels.hash_insert_ns"] = median_ns(
      [&] {
        for (int pass = 0; pass < 3; ++pass)
          for (const auto& km : kmers) keep(table->insert_or_increment(km));
      },
      3 * kmers.size(),
      [&] {
        table.reset();
        device = std::make_unique<dram::Device>(geom);
        table = std::make_unique<core::PimHashTable>(*device, 64);
      },
      0.6);
  table.reset();

  // Column sums: the traverse stage's degree kernel at 16 and 64 rows.
  dram::Device sums_device(geom);
  Rng rng(4);
  for (const std::size_t n : {std::size_t{16}, std::size_t{64}}) {
    std::vector<BitVector> rows;
    for (std::size_t r = 0; r < n; ++r) {
      BitVector row(256);
      for (std::size_t c = 0; c < 256; ++c) row.set(c, rng.bernoulli(0.3));
      rows.push_back(std::move(row));
    }
    out["kernels.column_sums_" + std::to_string(n) + "_ns"] = median_ns(
        [&] {
          keep(core::pim_column_sums(sums_device.subarray(0), rows)[0]);
        },
        1);
  }

  // Program slice: one 8192-instruction slice (the pipeline's slice size)
  // cycling through every opcode over four sub-arrays.
  dram::Program program;
  const BitVector payload = random_row(rng);
  const dram::RowAddr x1 = geom.data_rows(), x2 = x1 + 1, x3 = x1 + 2;
  for (std::size_t i = 0; program.size() < 8192; ++i) {
    const std::size_t sa = i % 4;
    const auto push = [&](dram::Opcode op, dram::RowAddr s1, dram::RowAddr s2,
                          dram::RowAddr s3, dram::RowAddr dst) {
      dram::Instruction inst;
      inst.op = op;
      inst.subarray = sa;
      inst.src1 = s1;
      inst.src2 = s2;
      inst.src3 = s3;
      inst.dst = dst;
      inst.width = 256;
      if (op == dram::Opcode::kRowWrite) inst.payload = payload;
      program.push_back(std::move(inst));
    };
    push(dram::Opcode::kRowWrite, 0, 0, 0, 10);
    push(dram::Opcode::kAapCopy, 10, 0, 0, x1);
    push(dram::Opcode::kAapCopy, 11, 0, 0, x2);
    push(dram::Opcode::kAapCopy, 12, 0, 0, x3);
    push(dram::Opcode::kResetLatch, 0, 0, 0, 0);
    push(dram::Opcode::kAapTra, x1, x2, x3, 13);
    push(dram::Opcode::kSum, x1, x2, 0, 14);
    push(dram::Opcode::kAapXnor, x1, x2, 0, 15);
    push(dram::Opcode::kDpuPopcount, 15, 0, 0, 0);
    push(dram::Opcode::kRowRead, 14, 0, 0, 0);
  }
  program.resize(8192);
  dram::Device program_device(geom);
  out["kernels.program_slice_ns"] = median_ns(
      [&] {
        keep(dram::execute(program_device, program).popcounts.size());
      },
      1, {}, 0.3);
}

int cmd_micro() {
  std::map<std::string, double> out;
  micro_bitvector(out);
  micro_subarray(out);
  micro_engine(out);
  micro_kernels(out);
  std::printf("{");
  const char* sep = "";
  for (const auto& [name, value] : out) {
    std::printf("%s\"%s\": %.6g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}\n");
  return 0;
}

int cmd_contigs(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) args[argv[i] + 2] = argv[i + 1];
  for (const char* key : {"reads", "k", "shards", "threads", "out"})
    if (!args.count(key)) {
      std::fprintf(stderr, "perfbench_layers contigs: missing --%s\n", key);
      return 2;
    }
  std::vector<dna::Sequence> reads;
  for (auto& r : dna::read_fasta_file(args["reads"]))
    reads.push_back(std::move(r.seq));
  dram::Device device(run_geometry());
  core::PipelineOptions opt;
  opt.k = std::stoul(args["k"]);
  opt.hash_shards = std::stoul(args["shards"]);
  opt.threads = std::stoul(args["threads"]);
  opt.euler_contigs = false;  // the daemon's JobSpec default
  const auto result = core::run_pipeline(device, reads, opt);

  std::vector<dna::Record> records;
  for (std::size_t i = 0; i < result.contigs.size(); ++i)
    records.push_back({"contig_" + std::to_string(i), result.contigs[i]});
  dna::write_fasta_file(args["out"], records);

  std::printf("{\"contigs\": %zu, \"n50\": %zu, \"stages\": {",
              result.contig_stats.count, result.contig_stats.n50);
  const char* sep = "";
  for (const auto* stage :
       {&result.hashmap, &result.debruijn, &result.traverse}) {
    std::printf(
        "%s\"%s\": {\"commands\": %zu, \"time_ns\": %.17g, "
        "\"energy_pj\": %.17g}",
        sep, stage->name, stage->device.commands, stage->device.time_ns,
        stage->device.energy_pj);
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::strcmp(argv[1], "micro") == 0) return cmd_micro();
    if (argc >= 2 && std::strcmp(argv[1], "contigs") == 0)
      return cmd_contigs(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_layers: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: perfbench_layers micro\n"
               "       perfbench_layers contigs --reads R --k K --shards S "
               "--threads T --out F\n");
  return 2;
}
