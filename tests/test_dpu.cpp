#include "dram/dpu.hpp"

#include <gtest/gtest.h>

#include "dram/subarray.hpp"

namespace pima::dram {
namespace {

Geometry tiny() {
  Geometry g;
  g.rows = 32;
  g.compute_rows = 8;
  g.columns = 64;
  return g;
}

class DpuTest : public ::testing::Test {
 protected:
  DpuTest() : sa_(tiny(), circuit::default_technology()) {}
  Subarray sa_;
};

TEST_F(DpuTest, AndReduceFullRow) {
  BitVector ones(64);
  ones.fill(true);
  sa_.write_row(0, ones);
  EXPECT_TRUE(Dpu::and_reduce(sa_, 0, 64));
  ones.set(63, false);
  sa_.write_row(0, ones);
  EXPECT_FALSE(Dpu::and_reduce(sa_, 0, 64));
}

TEST_F(DpuTest, AndReducePrefixIgnoresTail) {
  // The paper's k-mer compare only reduces the first 2k bits; a mismatch
  // in padding must not matter.
  BitVector v(64);
  for (std::size_t i = 0; i < 32; ++i) v.set(i, true);
  sa_.write_row(0, v);
  EXPECT_TRUE(Dpu::and_reduce(sa_, 0, 32));
  EXPECT_FALSE(Dpu::and_reduce(sa_, 0, 33));
}

TEST_F(DpuTest, OrReduce) {
  BitVector v(64);
  sa_.write_row(0, v);
  EXPECT_FALSE(Dpu::or_reduce(sa_, 0, 64));
  v.set(40, true);
  sa_.write_row(0, v);
  EXPECT_TRUE(Dpu::or_reduce(sa_, 0, 64));
  EXPECT_FALSE(Dpu::or_reduce(sa_, 0, 40));  // prefix excludes bit 40
}

TEST_F(DpuTest, Popcount) {
  BitVector v(64);
  v.set(0, true);
  v.set(10, true);
  v.set(63, true);
  sa_.write_row(0, v);
  EXPECT_EQ(Dpu::popcount(sa_, 0, 64), 3u);
  EXPECT_EQ(Dpu::popcount(sa_, 0, 11), 2u);
}

TEST_F(DpuTest, WidthValidated) {
  EXPECT_THROW(Dpu::and_reduce(sa_, 0, 65), pima::PreconditionError);
}

TEST_F(DpuTest, EmptyWidthReductions) {
  // Width 0: AND over nothing is vacuously true, OR is false, count is 0 —
  // the identities of the respective reductions.
  BitVector v(64);
  v.fill(true);
  sa_.write_row(0, v);
  EXPECT_TRUE(Dpu::and_reduce(sa_, 0, 0));
  EXPECT_FALSE(Dpu::or_reduce(sa_, 0, 0));
  EXPECT_EQ(Dpu::popcount(sa_, 0, 0), 0u);
}

TEST_F(DpuTest, SingleColumnReductions) {
  BitVector v(64);
  v.set(0, true);
  sa_.write_row(0, v);
  EXPECT_TRUE(Dpu::and_reduce(sa_, 0, 1));
  EXPECT_TRUE(Dpu::or_reduce(sa_, 0, 1));
  EXPECT_EQ(Dpu::popcount(sa_, 0, 1), 1u);
  v.set(0, false);
  sa_.write_row(0, v);
  EXPECT_FALSE(Dpu::and_reduce(sa_, 0, 1));
  EXPECT_FALSE(Dpu::or_reduce(sa_, 0, 1));
  EXPECT_EQ(Dpu::popcount(sa_, 0, 1), 0u);
}

// Reductions read the fetched row in place, word by word: ranges that end
// on a 64-bit word boundary and ranges that straddle one must count
// exactly the addressed columns.
TEST(DpuWordBoundary, RangesEndingOnAndStraddlingWords) {
  Geometry g = tiny();
  g.columns = 256;
  Subarray sa(g, circuit::default_technology());
  BitVector v(256);
  v.fill(true);
  sa.write_row(0, v);
  for (const std::size_t width : {std::size_t{64}, std::size_t{65},
                                  std::size_t{128}, std::size_t{256}}) {
    EXPECT_TRUE(Dpu::and_reduce(sa, 0, width)) << width;
    EXPECT_TRUE(Dpu::or_reduce(sa, 0, width)) << width;
    EXPECT_EQ(Dpu::popcount(sa, 0, width), width);
  }

  // Clear bit 64 (first column of word 1) and bit 255 (the last column).
  v.set(64, false);
  v.set(255, false);
  sa.write_row(0, v);
  EXPECT_TRUE(Dpu::and_reduce(sa, 0, 64));
  EXPECT_FALSE(Dpu::and_reduce(sa, 0, 65));
  EXPECT_FALSE(Dpu::and_reduce(sa, 0, 256));
  EXPECT_EQ(Dpu::popcount(sa, 0, 64), 64u);
  EXPECT_EQ(Dpu::popcount(sa, 0, 65), 64u);
  EXPECT_EQ(Dpu::popcount(sa, 0, 256), 254u);
  EXPECT_EQ(Dpu::popcount(sa, 0, 255), 254u);

  // Only bit 64 set: OR over a prefix sees it from width 65 on.
  BitVector one(256);
  one.set(64, true);
  sa.write_row(0, one);
  EXPECT_FALSE(Dpu::or_reduce(sa, 0, 64));
  EXPECT_TRUE(Dpu::or_reduce(sa, 0, 65));
  EXPECT_EQ(Dpu::popcount(sa, 0, 65), 1u);
  EXPECT_THROW(Dpu::popcount(sa, 0, 257), pima::PreconditionError);
}

TEST_F(DpuTest, ReduceIsCosted) {
  sa_.write_row(0, BitVector(64));
  sa_.clear_stats();
  Dpu::and_reduce(sa_, 0, 64);
  EXPECT_EQ(
      sa_.stats().counts[static_cast<std::size_t>(CommandKind::kDpuReduce)],
      1u);
  EXPECT_GT(sa_.stats().energy_pj, 0.0);
}

}  // namespace
}  // namespace pima::dram
