#include "core/layout.hpp"

#include <gtest/gtest.h>

namespace pima::core {
namespace {

TEST(Layout, PaperGeometryShard) {
  const dram::Geometry g;  // 1024×256, 8 compute rows
  const auto l = ShardLayout::for_geometry(g);
  // 977 keys + 31 value rows + 8 temp = 1016 data rows (paper Fig. 6
  // sketches 980/32/8 over a 4-compute-row array; see layout.hpp).
  EXPECT_EQ(l.kmer_rows, 977u);
  EXPECT_EQ(l.value_rows, 31u);
  EXPECT_EQ(l.temp_rows, 8u);
  EXPECT_EQ(l.counter_bits, 8u);
  EXPECT_LE(l.rows_used(), g.data_rows());
  // Counter capacity covers every key slot.
  EXPECT_GE(l.value_rows * l.counters_per_row(), l.kmer_rows);
}

TEST(Layout, RegionsAreDisjointAndOrdered) {
  const dram::Geometry g;
  const auto l = ShardLayout::for_geometry(g);
  EXPECT_EQ(l.kmer_row(0), 0u);
  EXPECT_EQ(l.kmer_row(l.kmer_rows - 1), l.kmer_rows - 1);
  EXPECT_EQ(l.value_row(0), l.kmer_rows);
  EXPECT_EQ(l.value_row(l.kmer_rows - 1),
            l.kmer_rows + l.value_rows - 1);
  EXPECT_EQ(l.temp_row(0), l.kmer_rows + l.value_rows);
  EXPECT_LT(l.temp_row(l.temp_rows - 1), g.data_rows());
}

TEST(Layout, CounterAddressing) {
  const dram::Geometry g;
  const auto l = ShardLayout::for_geometry(g);
  // 32 counters per row at 8 bits each.
  EXPECT_EQ(l.counters_per_row(), 32u);
  EXPECT_EQ(l.value_row(0), l.value_row(31));
  EXPECT_NE(l.value_row(31), l.value_row(32));
}

TEST(Layout, BoundsChecked) {
  const dram::Geometry g;
  const auto l = ShardLayout::for_geometry(g);
  EXPECT_THROW(l.kmer_row(l.kmer_rows), pima::PreconditionError);
  EXPECT_THROW(l.value_row(l.kmer_rows), pima::PreconditionError);
  EXPECT_THROW(l.temp_row(l.temp_rows), pima::PreconditionError);
}

TEST(Layout, AdaptsToSmallGeometry) {
  dram::Geometry g;
  g.rows = 64;
  g.compute_rows = 8;
  g.columns = 64;
  const auto l = ShardLayout::for_geometry(g);
  EXPECT_LE(l.rows_used(), g.data_rows());
  EXPECT_GT(l.kmer_rows, 0u);
  EXPECT_GE(l.value_rows * l.counters_per_row(), l.kmer_rows);
}

}  // namespace
}  // namespace pima::core
