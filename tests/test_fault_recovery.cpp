// Fault-aware execution tests: Table-I-calibrated fault model, per-sub-array
// injection determinism, and the runtime's verify-retry / vote / degradation
// recovery — up to end-to-end faulty assemblies reproducing the fault-free
// contig set.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "dna/genome.hpp"
#include "dram/device.hpp"
#include "dram/fault.hpp"
#include "runtime/recovery.hpp"

namespace pima {
namespace {

dram::Geometry small_geometry() {
  dram::Geometry g;
  g.rows = 256;
  g.compute_rows = 8;
  g.columns = 256;
  g.subarrays_per_mat = 4;
  g.mats_per_bank = 1;
  g.banks = 1;
  return g;
}

dram::FaultConfig fault_config(double variation, double rate_multiplier = 1.0,
                               std::uint64_t seed = 2020) {
  dram::FaultConfig c;
  c.variation = variation;
  c.rate_multiplier = rate_multiplier;
  c.seed = seed;
  c.calibration_trials = 500;  // keep the Monte-Carlo calibration fast
  return c;
}

BitVector pattern_row(std::size_t columns, std::size_t stride) {
  BitVector v(columns);
  for (std::size_t i = 0; i < columns; ++i) v.set(i, i % stride == 0);
  return v;
}

// ---- FaultModel calibration -------------------------------------------

TEST(FaultModel, ZeroVariationIsFaultFree) {
  const dram::FaultModel m(circuit::TechParams{}, fault_config(0.0));
  EXPECT_EQ(m.tra_column_error(), 0.0);
  EXPECT_EQ(m.two_row_column_error(), 0.0);
  EXPECT_FALSE(m.config().enabled());
}

TEST(FaultModel, TraDominatesTwoRowPerTableI) {
  // Paper Table I: the 3-cell charge share of TRA has strictly smaller
  // sensing margins — its calibrated error rate must exceed two-row's.
  const dram::FaultModel m(circuit::TechParams{}, fault_config(0.20));
  EXPECT_GT(m.tra_column_error(), m.two_row_column_error());
  EXPECT_GT(m.two_row_column_error(), 0.0);
}

TEST(FaultModel, RatesGrowWithVariation) {
  const dram::FaultModel lo(circuit::TechParams{}, fault_config(0.15));
  const dram::FaultModel hi(circuit::TechParams{}, fault_config(0.30));
  EXPECT_GT(hi.tra_column_error(), lo.tra_column_error());
  EXPECT_GT(hi.two_row_column_error(), lo.two_row_column_error());
}

TEST(FaultModel, ColumnErrorPerCommandKind) {
  const dram::FaultModel m(circuit::TechParams{}, fault_config(0.20));
  EXPECT_EQ(m.column_error(dram::CommandKind::kAapTra),
            m.tra_column_error());
  EXPECT_EQ(m.column_error(dram::CommandKind::kAapTwoRow),
            m.two_row_column_error());
  EXPECT_EQ(m.column_error(dram::CommandKind::kSumCycle),
            m.two_row_column_error());
  // Copies and host row accesses have no multi-row activation to fail.
  EXPECT_EQ(m.column_error(dram::CommandKind::kAapCopy), 0.0);
  EXPECT_EQ(m.column_error(dram::CommandKind::kRowRead), 0.0);
}

TEST(FaultModel, RejectsOutOfRangeConfig) {
  dram::FaultConfig bad = fault_config(1.5);
  EXPECT_THROW(dram::FaultModel(circuit::TechParams{}, bad),
               PreconditionError);
  bad = fault_config(0.1);
  bad.retention_flip_per_op = 2.0;
  EXPECT_THROW(dram::FaultModel(circuit::TechParams{}, bad),
               PreconditionError);
}

// ---- Injection determinism --------------------------------------------

TEST(FaultInjector, SameSubarrayStreamIsReproducible) {
  const auto model = std::make_shared<const dram::FaultModel>(
      circuit::TechParams{}, fault_config(0.30));
  const auto geom = small_geometry();
  dram::FaultInjector a(model, 2, geom);
  dram::FaultInjector b(model, 2, geom);
  for (int op = 0; op < 8; ++op) {
    BitVector ra = pattern_row(geom.columns, 3);
    BitVector rb = pattern_row(geom.columns, 3);
    a.corrupt_activation(dram::CommandKind::kAapTwoRow, {0, 1}, ra);
    b.corrupt_activation(dram::CommandKind::kAapTwoRow, {0, 1}, rb);
    EXPECT_TRUE(ra == rb) << "op " << op;
  }
  EXPECT_EQ(a.counters().compute_flips, b.counters().compute_flips);
  EXPECT_EQ(a.counters().faulty_ops, b.counters().faulty_ops);
}

TEST(FaultInjector, DistinctSubarraysGetDistinctStreams) {
  const auto model = std::make_shared<const dram::FaultModel>(
      circuit::TechParams{}, fault_config(0.30));
  const auto geom = small_geometry();
  dram::FaultInjector a(model, 0, geom);
  dram::FaultInjector b(model, 1, geom);
  bool differed = false;
  for (int op = 0; op < 8 && !differed; ++op) {
    BitVector ra(geom.columns), rb(geom.columns);
    a.corrupt_activation(dram::CommandKind::kAapTwoRow, {0, 1}, ra);
    b.corrupt_activation(dram::CommandKind::kAapTwoRow, {0, 1}, rb);
    differed = !(ra == rb);
  }
  EXPECT_TRUE(differed);
}

TEST(FaultInjector, SubarrayStaysExactWithoutInjector) {
  // The default (no injector attached) path must be bit-exact.
  dram::Subarray sa(small_geometry(), circuit::default_technology());
  const auto a = pattern_row(256, 3);
  const auto b = pattern_row(256, 5);
  sa.write_row(sa.compute_row(0), a);
  sa.write_row(sa.compute_row(1), b);
  sa.aap_xnor(sa.compute_row(0), sa.compute_row(1), sa.compute_row(2));
  EXPECT_TRUE(sa.peek_row(sa.compute_row(2)) == BitVector::bit_xnor(a, b));
}

TEST(FaultInjector, AttachedInjectorCorruptsActivations) {
  dram::Device dev(small_geometry());
  // ±30% two-row rate (~18%): a 256-column activation is corrupted with
  // near certainty.
  dev.enable_faults(fault_config(0.30));
  dram::Subarray& sa = dev.subarray(0);
  const auto a = pattern_row(256, 3);
  const auto b = pattern_row(256, 5);
  sa.write_row(sa.compute_row(0), a);
  sa.write_row(sa.compute_row(1), b);
  sa.aap_xnor(sa.compute_row(0), sa.compute_row(1), sa.compute_row(2));
  EXPECT_FALSE(sa.peek_row(sa.compute_row(2)) == BitVector::bit_xnor(a, b));
  EXPECT_GT(dev.injection_roll_up().compute_flips, 0u);
  EXPECT_GT(dev.injection_roll_up().faulty_ops, 0u);
}

TEST(FaultInjector, DisablingFaultsDetaches) {
  dram::Device dev(small_geometry());
  dev.enable_faults(fault_config(0.30));
  EXPECT_NE(dev.subarray(0).fault_injector(), nullptr);
  dev.enable_faults(dram::FaultConfig{});
  EXPECT_EQ(dev.subarray(0).fault_injector(), nullptr);
  EXPECT_EQ(dev.fault_model(), nullptr);
}

TEST(FaultInjector, RetentionProcessFlipsStoredCells) {
  dram::Device dev(small_geometry());
  dram::FaultConfig c;  // sensing off, retention on
  c.retention_flip_per_op = 1.0;
  dev.enable_faults(c);
  dram::Subarray& sa = dev.subarray(0);
  // Every command ticks the retention process once at probability 1.
  for (int i = 0; i < 16; ++i) sa.aap_copy(0, 1);
  EXPECT_EQ(dev.injection_roll_up().retention_flips, 16u);
}

// ---- Recovery executor -------------------------------------------------

runtime::RecoveryOptions recovery_options(runtime::RecoveryMode mode) {
  runtime::RecoveryOptions o;
  o.mode = mode;
  return o;
}

TEST(Recovery, ParseMode) {
  EXPECT_EQ(runtime::parse_recovery_mode("off"), runtime::RecoveryMode::kOff);
  EXPECT_EQ(runtime::parse_recovery_mode("retry"),
            runtime::RecoveryMode::kRetry);
  EXPECT_EQ(runtime::parse_recovery_mode("vote"),
            runtime::RecoveryMode::kVote);
  EXPECT_FALSE(runtime::parse_recovery_mode("bogus").has_value());
}

TEST(Recovery, RetryReproducesGoldenUnderModerateFaults) {
  dram::Device dev(small_geometry());
  // ~0.2% per-column rate: ~37% of 256-column ops faulty, retries succeed.
  dev.enable_faults(fault_config(0.30, 0.01));
  runtime::RecoveryManager mgr(dev,
                               recovery_options(runtime::RecoveryMode::kRetry));
  dram::Subarray& sa = dev.subarray(0);
  auto& ex = mgr.executor_for(0);
  const dram::RowAddr dst = sa.compute_row(3);
  for (std::size_t op = 0; op < 200; ++op) {
    const auto a = pattern_row(256, 2 + op % 7);
    const auto b = pattern_row(256, 3 + op % 5);
    sa.write_row(0, a);
    sa.write_row(1, b);
    ex.compare_rows(0, 1, dst);
    ASSERT_TRUE(sa.peek_row(dst) == BitVector::bit_xnor(a, b)) << op;
  }
  EXPECT_GT(ex.stats().detected, 0u);
  EXPECT_GT(ex.stats().retried, 0u);
  EXPECT_EQ(ex.stats().escaped, 0u);
  EXPECT_FALSE(ex.degraded());
}

TEST(Recovery, OffModeLetsFaultsEscape) {
  dram::Device dev(small_geometry());
  dev.enable_faults(fault_config(0.30));  // every op corrupted
  runtime::RecoveryManager mgr(dev,
                               recovery_options(runtime::RecoveryMode::kOff));
  dram::Subarray& sa = dev.subarray(0);
  auto& ex = mgr.executor_for(0);
  const auto a = pattern_row(256, 3);
  const auto b = pattern_row(256, 5);
  sa.write_row(0, a);
  sa.write_row(1, b);
  for (int op = 0; op < 8; ++op) ex.compare_rows(0, 1, sa.compute_row(3));
  EXPECT_GT(ex.stats().escaped, 0u);
  EXPECT_EQ(ex.stats().retried, 0u);
  EXPECT_EQ(ex.stats().detected, 0u);  // nobody looked
}

TEST(Recovery, VoteModeAcceptsMajorityAndAccountsEscapes) {
  dram::Device dev(small_geometry());
  dev.enable_faults(fault_config(0.30, 0.01));
  runtime::RecoveryManager mgr(dev,
                               recovery_options(runtime::RecoveryMode::kVote));
  dram::Subarray& sa = dev.subarray(0);
  auto& ex = mgr.executor_for(0);
  const dram::RowAddr dst = sa.compute_row(3);
  std::size_t escaped_before = 0;
  for (std::size_t op = 0; op < 100; ++op) {
    const auto a = pattern_row(256, 2 + op % 7);
    const auto b = pattern_row(256, 3 + op % 5);
    sa.write_row(0, a);
    sa.write_row(1, b);
    ex.compare_rows(0, 1, dst);
    // Invariant: an accepted-but-wrong majority is always accounted.
    if (ex.stats().escaped == escaped_before) {
      ASSERT_TRUE(sa.peek_row(dst) == BitVector::bit_xnor(a, b)) << op;
    }
    escaped_before = ex.stats().escaped;
  }
  EXPECT_GT(ex.stats().detected, 0u);  // disagreements seen
  EXPECT_EQ(ex.stats().retried, 0u);   // vote mode never retries
}

TEST(Recovery, PersistentFailuresRemapStagingRows) {
  dram::Device dev(small_geometry());
  dev.enable_faults(fault_config(0.30));  // every execution fails
  runtime::RecoveryOptions opts = recovery_options(runtime::RecoveryMode::kRetry);
  opts.max_retries = 0;  // one execution, so one blame, per op
  runtime::RecoveryManager mgr(dev, opts);
  dram::Subarray& sa = dev.subarray(0);
  auto& ex = mgr.executor_for(0);
  sa.write_row(0, pattern_row(256, 3));
  sa.write_row(1, pattern_row(256, 5));
  // The staging row survives kWeakRowThreshold - 1 blames...
  for (std::size_t op = 1; op < runtime::kWeakRowThreshold; ++op) {
    ex.compare_rows(0, 1, sa.compute_row(3));
    ASSERT_EQ(ex.stats().detected, op);
    EXPECT_EQ(ex.stats().remapped, 0u) << op;
    EXPECT_EQ(ex.staging_row(0), 0u) << op;
  }
  // ...and the next one retires it.
  ex.compare_rows(0, 1, sa.compute_row(3));
  ASSERT_EQ(ex.stats().detected, runtime::kWeakRowThreshold);
  EXPECT_GT(ex.stats().remapped, 0u);
  EXPECT_GE(ex.staging_row(0), 4u);  // retired onto a spare (x5..x8)
}

TEST(Recovery, BlownBudgetDegradesToHostFallback) {
  dram::Device dev(small_geometry());
  dev.enable_faults(fault_config(0.30));  // every execution fails
  runtime::RecoveryOptions opts = recovery_options(runtime::RecoveryMode::kRetry);
  opts.subarray_failure_budget = 0;  // first detection blows the budget
  runtime::RecoveryManager mgr(dev, opts);
  dram::Subarray& sa = dev.subarray(0);
  auto& ex = mgr.executor_for(0);
  const dram::RowAddr dst = sa.compute_row(3);
  for (std::size_t op = 0; op < 4; ++op) {
    const auto a = pattern_row(256, 2 + op);
    const auto b = pattern_row(256, 3 + op);
    sa.write_row(0, a);
    sa.write_row(1, b);
    ex.compare_rows(0, 1, dst);
    // Degraded or not, the pipeline keeps getting correct results.
    ASSERT_TRUE(sa.peek_row(dst) == BitVector::bit_xnor(a, b)) << op;
  }
  EXPECT_TRUE(ex.degraded());
  EXPECT_EQ(ex.stats().degraded_subarrays, 1u);
  EXPECT_GT(ex.stats().host_fallbacks, 0u);
  EXPECT_EQ(ex.stats().escaped, 0u);
}

TEST(Recovery, StatsFoldDeterministically) {
  runtime::FaultStats a;
  a.injected = 3;
  a.detected = 2;
  a.retried = 1;
  runtime::FaultStats b;
  b.injected = 5;
  b.escaped = 4;
  b.host_fallbacks = 7;
  runtime::FaultStats sum;
  for (const auto& part : {a, b}) sum += part;
  EXPECT_EQ(sum.injected, 8u);
  EXPECT_EQ(sum.detected, 2u);
  EXPECT_EQ(sum.retried, 1u);
  EXPECT_EQ(sum.escaped, 4u);
  EXPECT_EQ(sum.host_fallbacks, 7u);
  EXPECT_EQ(sum, a + b);
}

// ---- Seed discipline & end-to-end --------------------------------------

core::PipelineOptions faulty_pipeline_options(double variation,
                                              runtime::RecoveryMode mode,
                                              std::size_t threads) {
  core::PipelineOptions opt;
  opt.k = 15;
  opt.hash_shards = 4;
  opt.threads = threads;
  opt.fault = fault_config(variation);
  opt.recovery.mode = mode;
  return opt;
}

std::vector<std::string> contig_strings(
    const std::vector<dna::Sequence>& contigs) {
  std::vector<std::string> out;
  out.reserve(contigs.size());
  for (const auto& c : contigs) out.push_back(c.to_string());
  std::sort(out.begin(), out.end());
  return out;
}

struct SmallWorkload {
  dna::Sequence genome;
  std::vector<dna::Sequence> reads;
};

SmallWorkload small_workload() {
  SmallWorkload w;
  dna::GenomeParams gp;
  gp.length = 900;
  gp.repeat_count = 0;
  w.genome = dna::generate_genome(gp);
  dna::ReadSamplerParams rp;
  rp.coverage = 6.0;
  rp.read_length = 70;
  w.reads = dna::sample_reads(w.genome, rp);
  return w;
}

dram::Geometry pipeline_geometry() {
  dram::Geometry g;
  g.rows = 512;
  g.compute_rows = 8;
  g.columns = 256;
  g.subarrays_per_mat = 8;
  g.mats_per_bank = 1;
  g.banks = 1;
  return g;
}

TEST(FaultPipeline, SameSeedProducesIdenticalFaultStats) {
  const auto w = small_workload();
  const auto opt = faulty_pipeline_options(0.20, runtime::RecoveryMode::kRetry,
                                           /*threads=*/1);
  dram::Device dev1(pipeline_geometry());
  const auto r1 = core::run_pipeline(dev1, w.reads, opt);
  dram::Device dev2(pipeline_geometry());
  const auto r2 = core::run_pipeline(dev2, w.reads, opt);
  EXPECT_GT(r1.fault_stats.injected, 0u);
  EXPECT_EQ(r1.fault_stats, r2.fault_stats);
  EXPECT_EQ(contig_strings(r1.contigs), contig_strings(r2.contigs));
}

TEST(FaultPipeline, DifferentSeedChangesInjection) {
  const auto w = small_workload();
  auto opt = faulty_pipeline_options(0.20, runtime::RecoveryMode::kRetry,
                                     /*threads=*/1);
  dram::Device dev1(pipeline_geometry());
  const auto r1 = core::run_pipeline(dev1, w.reads, opt);
  opt.fault.seed = 777;
  dram::Device dev2(pipeline_geometry());
  const auto r2 = core::run_pipeline(dev2, w.reads, opt);
  EXPECT_NE(r1.fault_stats.injected, r2.fault_stats.injected);
}

TEST(FaultPipeline, FaultyRunIsChannelCountInvariant) {
  const auto w = small_workload();
  const auto serial = faulty_pipeline_options(
      0.20, runtime::RecoveryMode::kRetry, /*threads=*/1);
  const auto parallel = faulty_pipeline_options(
      0.20, runtime::RecoveryMode::kRetry, /*threads=*/3);
  dram::Device dev1(pipeline_geometry());
  const auto r1 = core::run_pipeline(dev1, w.reads, serial);
  dram::Device dev2(pipeline_geometry());
  const auto r2 = core::run_pipeline(dev2, w.reads, parallel);
  EXPECT_EQ(r1.fault_stats, r2.fault_stats);
  EXPECT_EQ(contig_strings(r1.contigs), contig_strings(r2.contigs));
}

TEST(FaultPipeline, RetryAtTenPercentReproducesFaultFreeContigs) {
  // The acceptance bar: ±10% variation with verify-retry recovers the
  // fault-free assembly exactly on the reference seed.
  const auto w = small_workload();
  core::PipelineOptions clean;
  clean.k = 15;
  clean.hash_shards = 4;
  dram::Device dev_clean(pipeline_geometry());
  const auto fault_free = core::run_pipeline(dev_clean, w.reads, clean);

  const auto faulty = faulty_pipeline_options(
      0.10, runtime::RecoveryMode::kRetry, /*threads=*/1);
  dram::Device dev_faulty(pipeline_geometry());
  const auto recovered = core::run_pipeline(dev_faulty, w.reads, faulty);
  EXPECT_EQ(recovered.fault_stats.escaped, 0u);
  EXPECT_EQ(contig_strings(fault_free.contigs),
            contig_strings(recovered.contigs));
}

TEST(FaultPipeline, DisabledFaultsLeaveResultUntouched) {
  // recovery mode retry with no faults: the checked path runs but changes
  // nothing and detects nothing.
  const auto w = small_workload();
  core::PipelineOptions clean;
  clean.k = 15;
  clean.hash_shards = 4;
  dram::Device dev_clean(pipeline_geometry());
  const auto baseline = core::run_pipeline(dev_clean, w.reads, clean);

  auto checked = faulty_pipeline_options(0.0, runtime::RecoveryMode::kRetry,
                                         /*threads=*/1);
  dram::Device dev_checked(pipeline_geometry());
  const auto verified = core::run_pipeline(dev_checked, w.reads, checked);
  EXPECT_EQ(verified.fault_stats.injected, 0u);
  EXPECT_EQ(verified.fault_stats.detected, 0u);
  EXPECT_EQ(verified.fault_stats.escaped, 0u);
  EXPECT_EQ(contig_strings(baseline.contigs),
            contig_strings(verified.contigs));
}

}  // namespace
}  // namespace pima
