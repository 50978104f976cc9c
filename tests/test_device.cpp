#include "dram/device.hpp"

#include <gtest/gtest.h>

namespace pima::dram {
namespace {

Geometry small() {
  Geometry g;
  g.rows = 32;
  g.compute_rows = 8;
  g.columns = 64;
  g.subarrays_per_mat = 2;
  g.mats_per_bank = 2;
  g.banks = 2;
  return g;
}

TEST(Geometry, DerivedCounts) {
  const auto g = small();
  EXPECT_EQ(g.data_rows(), 24u);
  EXPECT_EQ(g.subarrays_per_bank(), 4u);
  EXPECT_EQ(g.total_subarrays(), 8u);
  EXPECT_EQ(g.row_bits(), 64u);
}

TEST(Geometry, PaperDefaults) {
  const Geometry g;
  EXPECT_EQ(g.rows, 1024u);         // paper §II.A
  EXPECT_EQ(g.data_rows(), 1016u);  // 1016 data + 8 compute
  EXPECT_EQ(g.columns, 256u);
  EXPECT_EQ(g.banks, 8u);
}

TEST(Geometry, ValidationCatchesBadShapes) {
  Geometry g = small();
  g.compute_rows = 2;  // too few for TRA + scratch
  EXPECT_THROW(g.validate(), pima::PreconditionError);
  g = small();
  g.rows = g.compute_rows;
  EXPECT_THROW(g.validate(), pima::PreconditionError);
}

TEST(Device, LazyInstantiation) {
  Device dev(small());
  const auto instantiated = [&] {
    std::size_t n = 0;
    for (std::size_t flat = 0; flat < dev.geometry().total_subarrays(); ++flat)
      if (dev.subarray_if(flat) != nullptr) ++n;
    return n;
  };
  EXPECT_EQ(instantiated(), 0u);
  dev.subarray(3);
  dev.subarray(7);
  EXPECT_EQ(instantiated(), 2u);
  EXPECT_EQ(dev.subarray_if(0), nullptr);
  EXPECT_NE(dev.subarray_if(3), nullptr);
  EXPECT_THROW(dev.subarray(8), pima::PreconditionError);
}

TEST(Device, RollUpParallelismSemantics) {
  Device dev(small());
  // Two sub-arrays each do one copy: time = max (parallel), energy = sum.
  dev.subarray(0).aap_copy(0, 1);
  dev.subarray(1).aap_copy(0, 1);
  dev.subarray(2);  // instantiated but idle: not a participant
  const auto s = dev.roll_up();
  EXPECT_EQ(s.subarrays_used, 2u);
  EXPECT_EQ(s.commands, 2u);
  const double aap = circuit::default_technology().timing.aap_ns();
  EXPECT_DOUBLE_EQ(s.time_ns, aap);
  EXPECT_DOUBLE_EQ(s.serial_ns, 2.0 * aap);
  EXPECT_GT(s.energy_pj, 0.0);
  // The per-kind merge runs over the same sub-arrays in the same order.
  const StatsFold f = dev.fold();
  EXPECT_EQ(f.device, s);
  EXPECT_EQ(f.commands.counts[static_cast<std::size_t>(CommandKind::kAapCopy)],
            2u);
  EXPECT_EQ(f.commands.total_commands(), 2u);
  EXPECT_EQ(f.commands.busy_ns, s.serial_ns);
  EXPECT_EQ(f.commands.energy_pj, s.energy_pj);
}

TEST(Device, SerialCommandsAccumulateOnOneSubarray) {
  Device dev(small());
  dev.subarray(0).aap_copy(0, 1);
  dev.subarray(0).aap_copy(1, 2);
  const auto s = dev.roll_up();
  const double aap = circuit::default_technology().timing.aap_ns();
  EXPECT_DOUBLE_EQ(s.time_ns, 2.0 * aap);
  EXPECT_EQ(s.subarrays_used, 1u);
}

TEST(Device, ClearStatsPreservesContents) {
  Device dev(small());
  BitVector bits(64);
  bits.set(5, true);
  dev.subarray(0).write_row(3, bits);
  dev.clear_stats();
  EXPECT_EQ(dev.roll_up().commands, 0u);
  EXPECT_EQ(dev.subarray(0).peek_row(3), bits);
}

TEST(DeviceStats, SerialCompositionAddsTimesAndKeepsWidestFootprint) {
  DeviceStats a{}, b{};
  a.time_ns = 10;
  a.serial_ns = 12;
  a.energy_pj = 5;
  a.commands = 100;
  a.subarrays_used = 3;
  b.time_ns = 4;
  b.serial_ns = 4;
  b.energy_pj = 2;
  b.commands = 40;
  b.subarrays_used = 2;
  DeviceStats ser = a;
  ser += b;
  EXPECT_DOUBLE_EQ(ser.time_ns, 14);    // phases back to back: times add
  EXPECT_DOUBLE_EQ(ser.serial_ns, 16);
  EXPECT_DOUBLE_EQ(ser.energy_pj, 7);
  EXPECT_EQ(ser.commands, 140u);
  EXPECT_EQ(ser.subarrays_used, 3u);    // the widest phase
  EXPECT_EQ(ser, a + b);
}

TEST(DeviceStats, DynamicPower) {
  DeviceStats s;
  s.energy_pj = 1000.0;  // 1e-9 J over 1e-8 s = 0.1 W
  s.time_ns = 10.0;
  EXPECT_DOUBLE_EQ(s.dynamic_power_w(), 0.1);
  s.time_ns = 0.0;
  EXPECT_DOUBLE_EQ(s.dynamic_power_w(), 0.0);
}

}  // namespace
}  // namespace pima::dram
