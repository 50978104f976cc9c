#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace pima {
namespace {

// Sample mean and standard deviation (n-1 denominator).
struct Moments {
  double mean = 0.0;
  double stddev = 0.0;
};
Moments moments_of(const std::vector<double>& xs) {
  double sum = 0.0;
  for (const double x : xs) sum += x;
  const double mean = sum / static_cast<double>(xs.size());
  double squares = 0.0;
  for (const double x : xs) squares += (x - mean) * (x - mean);
  return {mean, std::sqrt(squares / static_cast<double>(xs.size() - 1))};
}

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
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) xs.push_back(rng.gaussian());
  const auto m = moments_of(xs);
  EXPECT_NEAR(m.mean, 0.0, 0.03);
  EXPECT_NEAR(m.stddev, 1.0, 0.03);
}

TEST(Rng, ScaledGaussian) {
  Rng rng(9);
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) xs.push_back(rng.gaussian(10.0, 2.0));
  const auto m = moments_of(xs);
  EXPECT_NEAR(m.mean, 10.0, 0.1);
  EXPECT_NEAR(m.stddev, 2.0, 0.1);
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

TEST(GeometricMean, KnownValuesAndErrors) {
  EXPECT_NEAR(geometric_mean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geometric_mean({2.0, 2.0, 2.0}), 2.0, 1e-12);
  EXPECT_THROW(geometric_mean({}), PreconditionError);
  EXPECT_THROW(geometric_mean({1.0, -1.0}), PreconditionError);
}

}  // namespace
}  // namespace pima
