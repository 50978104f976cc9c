// Small statistics helpers: a running mean/variance accumulator (Welford),
// which the Rng moment tests measure with, and the geometric mean that the
// benchmark reports average ratios with.
#pragma once

#include <cstddef>
#include <vector>

namespace pima {

/// Numerically stable running mean / variance / min / max accumulator.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Geometric mean of a non-empty set of positive values.
double geometric_mean(const std::vector<double>& values);

}  // namespace pima
