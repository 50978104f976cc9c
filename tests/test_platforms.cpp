#include "platforms/platform.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "platforms/presets.hpp"

namespace pima::platforms {
namespace {

TEST(Presets, AllSevenPlatformsPresent) {
  const auto all = all_platforms();
  ASSERT_EQ(all.size(), 7u);
  EXPECT_EQ(all[0].name, "CPU");
  EXPECT_EQ(all[6].name, "P-A");
}

TEST(Presets, ApplicationPlatformsMatchPaperFig9Order) {
  const auto app = application_platforms();
  ASSERT_EQ(app.size(), 5u);
  EXPECT_EQ(app[0].name, "GPU");
  EXPECT_EQ(app[1].name, "P-A");
  EXPECT_EQ(app[2].name, "Ambit");
  EXPECT_EQ(app[3].name, "DRISA-3T1C");
  EXPECT_EQ(app[4].name, "DRISA-1T1C");
}

TEST(Presets, PimPlatformsShareMemoryConfiguration) {
  // Paper: "an identical physical memory configuration is also considered".
  const auto pa = pim_assembler();
  for (const auto& p : {ambit(), drisa_1t1c(), drisa_3t1c()}) {
    EXPECT_EQ(p.row_cycle_ns, pa.row_cycle_ns);
    EXPECT_EQ(p.row_bits, pa.row_bits);
    EXPECT_EQ(p.concurrent_subarrays, pa.concurrent_subarrays);
  }
}

TEST(Presets, MechanismCycleCounts) {
  // Paper §I: Ambit imposes 7 memory cycles for X(N)OR; P-A needs a single
  // compute cycle plus two staging copies.
  EXPECT_DOUBLE_EQ(ambit().xnor_cycles, 7.0);
  EXPECT_DOUBLE_EQ(pim_assembler().xnor_cycles, 3.0);
  EXPECT_DOUBLE_EQ(pim_assembler().add_cycles_per_bit, 6.0);
}

TEST(Throughput, PimRatiosMatchPaperFig3b) {
  // Paper: P-A improves XNOR throughput by 2.3× vs Ambit, 1.9× vs D1,
  // 3.7× vs D3 (we allow ±15% of the reported ratios).
  const double bits = 1 << 27;
  const double pa =
      bulk_throughput_bits_per_s(pim_assembler(), BulkOp::kXnor, bits);
  EXPECT_NEAR(pa / bulk_throughput_bits_per_s(ambit(), BulkOp::kXnor, bits),
              2.3, 0.35);
  EXPECT_NEAR(
      pa / bulk_throughput_bits_per_s(drisa_1t1c(), BulkOp::kXnor, bits), 1.9,
      0.3);
  EXPECT_NEAR(
      pa / bulk_throughput_bits_per_s(drisa_3t1c(), BulkOp::kXnor, bits), 3.7,
      0.55);
}

TEST(Throughput, PaBeatsCpuByHeadlineFactor) {
  // Paper abstract: 8.4× higher XNOR throughput than CPU (±25%).
  const double bits = 1 << 28;
  const double ratio =
      bulk_throughput_bits_per_s(pim_assembler(), BulkOp::kXnor, bits) /
      bulk_throughput_bits_per_s(cpu_corei7(), BulkOp::kXnor, bits);
  EXPECT_GT(ratio, 8.4 * 0.75);
  EXPECT_LT(ratio, 8.4 * 1.25);
}

TEST(Throughput, PaWinsAgainstEveryPlatform) {
  const double bits = 1 << 29;
  const double pa =
      bulk_throughput_bits_per_s(pim_assembler(), BulkOp::kXnor, bits);
  for (const auto& p : all_platforms()) {
    if (p.name == "P-A") continue;
    EXPECT_GT(pa, bulk_throughput_bits_per_s(p, BulkOp::kXnor, bits))
        << p.name;
  }
}

TEST(Throughput, BandwidthBoundPlatformsAreVectorLengthInvariant) {
  const auto cpu = cpu_corei7();
  EXPECT_DOUBLE_EQ(
      bulk_throughput_bits_per_s(cpu, BulkOp::kXnor, 1 << 27),
      bulk_throughput_bits_per_s(cpu, BulkOp::kXnor, 1 << 29));
}

TEST(Throughput, GpuIsStagingLimited) {
  // With PCIe staging the GPU cannot use its full GDDR5X bandwidth.
  auto gpu = gpu_1080ti();
  const double staged =
      bulk_throughput_bits_per_s(gpu, BulkOp::kXnor, 1 << 27);
  gpu.staging_bw_gbs = 0.0;  // data already resident
  const double resident =
      bulk_throughput_bits_per_s(gpu, BulkOp::kXnor, 1 << 27);
  EXPECT_LT(staged, resident / 5.0);
}

TEST(Throughput, CpuMathIsExplicit) {
  // 34.1 GB/s × 8 bits × 0.7 efficiency / 3 bytes touched per result byte.
  const auto cpu = cpu_corei7();
  EXPECT_NEAR(bulk_throughput_bits_per_s(cpu, BulkOp::kXnor, 1024),
              34.1e9 * 8.0 * 0.7 / 3.0, 1.0);
}

TEST(Throughput, PimAdditionSlowerThanXnor) {
  // Addition costs more row cycles per result bit on every PIM design.
  for (const auto& p : {pim_assembler(), ambit(), drisa_1t1c(),
                        drisa_3t1c()}) {
    EXPECT_LT(bulk_throughput_bits_per_s(p, BulkOp::kAdd, 1 << 27, 32),
              bulk_throughput_bits_per_s(p, BulkOp::kXnor, 1 << 27))
        << p.name;
  }
}

TEST(Throughput, AdditionElementWidthInvariantForPim) {
  // Vertical addition throughput in result bits/s is width-independent
  // (cycles and produced bits both scale with m).
  const auto pa = pim_assembler();
  EXPECT_NEAR(bulk_throughput_bits_per_s(pa, BulkOp::kAdd, 1 << 27, 16),
              bulk_throughput_bits_per_s(pa, BulkOp::kAdd, 1 << 27, 32),
              1.0);
}

TEST(Throughput, InvalidSpecsThrow) {
  PlatformSpec p;
  p.kind = PlatformKind::kVonNeumann;  // no bandwidth set
  EXPECT_THROW(bulk_throughput_bits_per_s(p, BulkOp::kXnor, 1024),
               pima::PreconditionError);
  PlatformSpec q = pim_assembler();
  q.xnor_cycles = 0.0;
  EXPECT_THROW(bulk_throughput_bits_per_s(q, BulkOp::kXnor, 1024),
               pima::PreconditionError);
  EXPECT_THROW(bulk_throughput_bits_per_s(pim_assembler(), BulkOp::kXnor, 0),
               pima::PreconditionError);
}

}  // namespace
}  // namespace pima::platforms
