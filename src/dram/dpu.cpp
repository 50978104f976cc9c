#include "dram/dpu.hpp"

#include "dram/subarray.hpp"

namespace pima::dram {
namespace {

// Reads the row via a costed DPU_REDUCE command; the reductions scan the
// fetched row in place.
const BitVector& fetch(Subarray& sa, std::size_t row, std::size_t width) {
  PIMA_CHECK(width <= sa.geometry().columns, "reduce width exceeds row");
  return sa.dpu_fetch(row);
}

}  // namespace

bool Dpu::and_reduce(Subarray& sa, std::size_t row, std::size_t width) {
  return fetch(sa, row, width).all_ones_prefix(width);
}

bool Dpu::or_reduce(Subarray& sa, std::size_t row, std::size_t width) {
  return fetch(sa, row, width).popcount_range(0, width) > 0;
}

std::size_t Dpu::popcount(Subarray& sa, std::size_t row, std::size_t width) {
  return fetch(sa, row, width).popcount_range(0, width);
}

std::size_t Dpu::popcount_pairs(Subarray& sa, std::size_t row, std::size_t lo,
                                std::size_t pairs) {
  PIMA_CHECK(lo + 2 * pairs <= sa.geometry().columns,
             "pair range exceeds row");
  const BitVector& bits = sa.dpu_fetch(row);
  std::size_t n = 0;
  for (std::size_t p = 0; p < pairs; ++p)
    if (bits.get(lo + 2 * p) && bits.get(lo + 2 * p + 1)) ++n;
  return n;
}

}  // namespace pima::dram
