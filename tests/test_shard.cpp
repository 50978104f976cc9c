// Cross-shard determinism battery (ctest -L shard, DESIGN.md §14).
//
// The multi-device contract: a run sharded over any number of simulated
// devices is indistinguishable — bit for bit — from the single-device run.
// The battery pins every observable surface: contigs, per-stage DeviceStats
// roll-ups, the model-class Prometheus snapshot, the merged command trace,
// and the per-device command sub-streams replayed through the golden model.
// Plus the algebra the stats folds rely on: DeviceStats / FaultStats fold
// properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/bitvector.hpp"
#include "core/pipeline.hpp"
#include "core/shard_worker.hpp"
#include "dna/genome.hpp"
#include "dram/device.hpp"
#include "dram/isa.hpp"
#include "runtime/recovery.hpp"
#include "telemetry/session.hpp"
#include "verify/fuzz.hpp"
#include "test_support.hpp"

namespace pima {
namespace {

using test_support::expect_bit_identical;

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

std::vector<dna::Sequence> workload_reads(std::uint64_t seed) {
  dna::GenomeParams gp;
  gp.length = 700;
  gp.repeat_count = 0;
  gp.seed = seed;
  dna::ReadSamplerParams rp;
  rp.coverage = 6.0;
  rp.read_length = 70;
  rp.seed = seed + 1;
  return dna::sample_reads(dna::generate_genome(gp), rp);
}

struct RunOutput {
  core::PipelineResult result;
  std::string model_snapshot;  ///< json_snapshot(model_only) — byte oracle
  std::string prometheus;      ///< every series, host class included
};

RunOutput run_config(const std::vector<dna::Sequence>& reads,
                     std::size_t devices, std::size_t threads,
                     bool capture = false,
                     const dram::FaultConfig& fault = {},
                     const runtime::RecoveryOptions& recovery = {}) {
  telemetry::MetricsRegistry registry;
  telemetry::ScopedMetricsRegistry scope(&registry);
  telemetry::TelemetrySession::instance().enable_metrics();
  dram::Device device(pipeline_geometry());
  core::PipelineOptions opt;
  opt.k = 15;
  opt.hash_shards = 8;
  opt.devices = devices;
  opt.threads = threads;
  opt.capture_trace = capture;
  opt.fault = fault;
  opt.recovery = recovery;
  RunOutput out;
  out.result = core::run_pipeline(device, reads, opt);
  out.model_snapshot = registry.json_snapshot(/*model_only=*/true);
  out.prometheus = registry.prometheus_text();
  return out;
}

// ---- the battery: devices × threads × seeds --------------------------------

TEST(ShardBattery, OutputsBitIdenticalAcrossDeviceAndThreadCounts) {
  for (const std::uint64_t seed : {std::uint64_t{101}, std::uint64_t{202}}) {
    const auto reads = workload_reads(seed);
    const auto baseline = run_config(reads, 1, 1);
    ASSERT_FALSE(baseline.result.contigs.empty());
    ASSERT_FALSE(baseline.model_snapshot.empty());
    for (const std::size_t devices : {1u, 2u, 4u, 16u}) {
      for (const std::size_t threads : {1u, 4u}) {
        if (devices == 1 && threads == 1) continue;
        const auto run = run_config(reads, devices, threads);
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " devices=" + std::to_string(devices) +
                     " threads=" + std::to_string(threads));
        expect_bit_identical(run.result, baseline.result);
        // The model-class metrics snapshot derives only from simulated
        // state — equal bytes for every (devices, threads) combination.
        EXPECT_EQ(run.model_snapshot, baseline.model_snapshot);
      }
    }
  }
}

// Fault injection state is per sub-array: each injector is seeded from
// (model, flat), so the fault process of a flat does not depend on the
// device or channel count, and the recovery counters must be the
// one-device run's.
TEST(ShardBattery, FaultedRunsBitIdenticalAcrossDeviceCounts) {
  const auto reads = workload_reads(101);
  dram::FaultConfig fault;
  fault.variation = 0.25;
  fault.seed = 7;
  runtime::RecoveryOptions recovery;
  recovery.mode = runtime::RecoveryMode::kVote;
  const auto baseline = run_config(reads, 1, 1, false, fault, recovery);
  ASSERT_FALSE(baseline.result.contigs.empty());
  EXPECT_GT(baseline.result.fault_stats.injected, 0u);
  EXPECT_GT(baseline.result.fault_stats.detected, 0u);
  for (const std::size_t devices : {1u, 2u, 4u}) {
    for (const std::size_t threads : {1u, 4u}) {
      if (devices == 1 && threads == 1) continue;
      const auto run = run_config(reads, devices, threads, false, fault,
                                  recovery);
      SCOPED_TRACE("devices=" + std::to_string(devices) +
                   " threads=" + std::to_string(threads));
      expect_bit_identical(run.result, baseline.result);
      EXPECT_EQ(run.model_snapshot, baseline.model_snapshot);
    }
  }
}

// ---- one in-process engine of devices × threads channels -------------------

// The values of every series of `metric` in a Prometheus text exposition.
std::vector<double> series_values(const std::string& text,
                                  const std::string& metric) {
  std::vector<double> values;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);)
    if (line.rfind(metric + "{", 0) == 0 || line.rfind(metric + " ", 0) == 0)
      values.push_back(std::stod(line.substr(line.rfind(' ') + 1)));
  return values;
}

TEST(ShardEngine, EveryInProcessChannelRetiresTasks) {
  const auto reads = workload_reads(101);
  for (const std::size_t devices : {2u, 4u}) {
    SCOPED_TRACE("devices=" + std::to_string(devices));
    const auto run = run_config(reads, devices, /*threads=*/2);
    const auto channels = series_values(run.prometheus, "pima_engine_channels");
    ASSERT_EQ(channels.size(), 1u);
    EXPECT_EQ(channels[0], static_cast<double>(devices * 2));
    const auto retired =
        series_values(run.prometheus, "pima_engine_tasks_retired_total");
    EXPECT_EQ(retired.size(), devices * 2);
    for (std::size_t c = 0; c < retired.size(); ++c)
      EXPECT_GT(retired[c], 0.0) << "channel " << c;
  }
}

TEST(ShardEngine, EveryInProcessChannelOwnsItsTraceTrack) {
  const auto reads = workload_reads(101);
  auto& tracer = telemetry::tracer();
  test_support::idle_telemetry_session();
  tracer.enable();
  (void)run_config(reads, /*devices=*/4, /*threads=*/1);
  tracer.disable();
  const auto names = tracer.track_names();
  const auto events = tracer.export_events();
  test_support::idle_telemetry_session();

  std::map<std::uint32_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      spans;  // track -> [start, end) of its `task` spans
  for (const auto& e : events)
    if (e.phase == 'X' && e.name == "task")
      spans[e.track].emplace_back(e.ts_ns, e.ts_ns + e.dur_ns);
  ASSERT_EQ(spans.size(), 4u);
  std::uint32_t expected_track = 1;
  for (auto& [track, list] : spans) {
    EXPECT_EQ(track, expected_track++);
    ASSERT_TRUE(names.count(track));
    EXPECT_EQ(names.at(track), "channel " + std::to_string(track - 1));
    std::sort(list.begin(), list.end());
    for (std::size_t i = 1; i < list.size(); ++i)
      EXPECT_LE(list[i - 1].second, list[i].first)
          << "overlapping task spans on track " << track;
  }
  // No watchdog runs, so no track is named for one.
  for (const auto& [track, name] : names) EXPECT_NE(name, "watchdog");
}

// ---- per-device differential: captured sub-streams vs golden model ---------

TEST(ShardDifferential, PerDeviceTraceReplaysThroughGoldenModel) {
  const auto reads = workload_reads(303);
  const auto single = run_config(reads, 1, 1, /*capture=*/true);
  const auto sharded = run_config(reads, 4, 1, /*capture=*/true);
  // The merged capture is itself a determinism oracle: logical flat order,
  // so equal streams for any device count.
  ASSERT_FALSE(sharded.result.trace.empty());
  EXPECT_EQ(sharded.result.trace, single.result.trace);

  verify::FuzzOptions opts;
  opts.geometry = pipeline_geometry();
  // Every captured command already executed once on the production pool,
  // so a rejection during replay is a divergence, not an agreement.
  opts.diff.accept_symmetric_rejection = false;
  for (std::size_t d = 0; d < 4; ++d) {
    dram::Program part;
    for (const auto& inst : sharded.result.trace)
      if (inst.subarray % 4 == d) part.push_back(inst);
    ASSERT_FALSE(part.empty()) << "device " << d << " ran nothing";
    const auto divergence = verify::run_candidate(part, opts);
    EXPECT_FALSE(divergence.has_value())
        << "device " << d << ": " << divergence->report();
  }
}

// ---- the flat-order fold vs a single device ---------------------------------

dram::Geometry tiny_geometry() {
  dram::Geometry g;
  g.rows = 64;
  g.compute_rows = 8;
  g.columns = 64;
  g.subarrays_per_mat = 4;
  g.mats_per_bank = 2;
  g.banks = 1;
  return g;
}

// The same command sequence issued through a DeviceShard and on a bare
// device must produce identical roll-ups: the stage-boundary fold takes the
// shard's per-sub-array list in logical flat order, whatever order the list
// arrives in (an isolated run's comes over the wire), so even the doubles
// agree.
TEST(DevicePoolFolds, MatchSingleDeviceBitForBit) {
  const auto geom = tiny_geometry();
  dram::Device single(geom);
  dram::Device device(geom);
  core::DeviceShard shard(device, runtime::EngineOptions{}, 1, 15, 1);

  const auto issue = [&](dram::Device& target) {
    for (const std::size_t flat : {0u, 1u, 2u, 5u, 7u}) {
      auto& sa = target.subarray(flat);
      sa.write_row(0, BitVector(geom.columns));
      sa.write_row(1, BitVector(geom.columns));
      sa.aap_copy(0, sa.compute_row(0));
      sa.aap_copy(1, sa.compute_row(1));
      sa.aap_xor(sa.compute_row(0), sa.compute_row(1), 2);
    }
  };
  issue(single);
  issue(device);

  dram::SubarrayStats stats = shard.take_stats();
  ASSERT_EQ(stats.size(), 5u);
  EXPECT_TRUE(shard.take_stats().empty()) << "take_stats clears";
  const dram::StatsFold sf = single.fold();
  for (const bool reversed : {false, true}) {
    SCOPED_TRACE(reversed ? "reversed list" : "flat-order list");
    if (reversed) std::reverse(stats.begin(), stats.end());
    const dram::StatsFold pf = dram::fold_in_flat_order(stats);
    EXPECT_EQ(pf.device, sf.device);
    const auto& pc = pf.commands;
    const auto& sc = sf.commands;
    EXPECT_EQ(pc.total_commands(), sc.total_commands());
    EXPECT_EQ(pc.busy_ns, sc.busy_ns);
    EXPECT_EQ(pc.energy_pj, sc.energy_pj);
    for (std::size_t k = 0; k < dram::kCommandKindCount; ++k)
      EXPECT_EQ(pc.counts[k], sc.counts[k]) << "command kind " << k;
  }
}

// ---- fold algebra -----------------------------------------------------------

// Integer-valued doubles below 2^40 add exactly, so the associativity of
// the stage composition is testable bit-for-bit (the production folds
// sidestep rounding entirely by folding in a fixed logical order).
dram::DeviceStats random_stats(std::mt19937_64& rng) {
  dram::DeviceStats s;
  s.time_ns = static_cast<double>(rng() % (1u << 20));
  s.serial_ns = static_cast<double>(rng() % (1u << 20));
  s.energy_pj = static_cast<double>(rng() % (1u << 20));
  s.commands = rng() % 1000;
  s.subarrays_used = rng() % 64;
  return s;
}

runtime::FaultStats random_fault_stats(std::mt19937_64& rng) {
  runtime::FaultStats f;
  f.injected = rng() % 1000;
  f.detected = rng() % 1000;
  f.retried = rng() % 1000;
  f.remapped = rng() % 1000;
  f.escaped = rng() % 1000;
  f.vote_corrections = rng() % 1000;
  f.host_fallbacks = rng() % 1000;
  f.degraded_subarrays = rng() % 1000;
  return f;
}

TEST(FoldAlgebra, DeviceStatsAssociativeCommutativeWithIdentity) {
  std::mt19937_64 rng{7};
  for (int i = 0; i < 100; ++i) {
    const auto a = random_stats(rng), b = random_stats(rng),
               c = random_stats(rng);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a + dram::DeviceStats{}, a);
    EXPECT_EQ(dram::DeviceStats{} + a, a);
  }
}

TEST(FoldAlgebra, FaultStatsAssociativeCommutativeWithIdentity) {
  std::mt19937_64 rng{8};
  for (int i = 0; i < 100; ++i) {
    const auto a = random_fault_stats(rng), b = random_fault_stats(rng),
               c = random_fault_stats(rng);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a + runtime::FaultStats{}, a);
    EXPECT_EQ(runtime::FaultStats{} + a, a);
  }
}

TEST(ShardPlanBasics, OwnerPartitionsFlatSpace) {
  EXPECT_EQ(dram::owner_of(17, 1), 0u);
  for (std::size_t flat = 0; flat < 32; ++flat)
    EXPECT_EQ(dram::owner_of(flat, 4), flat % 4);
}

}  // namespace
}  // namespace pima
