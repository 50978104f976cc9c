#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace pima {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform(13), 13u);
}

TEST(Rng, UniformZeroThrows) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform(0), PreconditionError);
}

TEST(Rng, UniformIsRoughlyUniform) {
  Rng rng(11);
  std::size_t counts[8] = {};
  constexpr int kN = 80000;
  for (int i = 0; i < kN; ++i) ++counts[rng.uniform(8)];
  for (const auto c : counts) {
    EXPECT_GT(c, kN / 8 * 0.9);
    EXPECT_LT(c, kN / 8 * 1.1);
  }
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform_real();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, GaussianMomentsMatch) {
  Rng rng(5);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.gaussian());
  EXPECT_NEAR(s.mean(), 0.0, 0.03);
  EXPECT_NEAR(s.stddev(), 1.0, 0.03);
}

TEST(Rng, ScaledGaussian) {
  Rng rng(9);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.gaussian(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 50000; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(hits / 50000.0, 0.3, 0.02);
}

TEST(Rng, ForkIsIndependentAndStable) {
  Rng base(21);
  Rng f1 = base.fork(0);
  Rng f2 = base.fork(1);
  Rng f1_again = base.fork(0);
  EXPECT_EQ(f1(), f1_again());
  EXPECT_NE(f1(), f2());
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(GeometricMean, KnownValuesAndErrors) {
  EXPECT_NEAR(geometric_mean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geometric_mean({2.0, 2.0, 2.0}), 2.0, 1e-12);
  EXPECT_THROW(geometric_mean({}), PreconditionError);
  EXPECT_THROW(geometric_mean({1.0, -1.0}), PreconditionError);
}

}  // namespace
}  // namespace pima
