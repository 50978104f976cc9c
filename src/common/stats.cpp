#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace pima {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double geometric_mean(const std::vector<double>& values) {
  PIMA_CHECK(!values.empty(), "geometric mean of empty set");
  double log_sum = 0.0;
  for (const double v : values) {
    PIMA_CHECK(v > 0.0, "geometric mean requires positive values");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace pima
