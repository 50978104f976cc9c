#include "common/stats.hpp"

#include <cmath>

#include "common/error.hpp"

namespace pima {

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
