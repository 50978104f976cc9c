// The geometric mean that the benchmark reports average ratios with.
#pragma once

#include <vector>

namespace pima {

/// Geometric mean of a non-empty set of positive values.
double geometric_mean(const std::vector<double>& values);

}  // namespace pima
