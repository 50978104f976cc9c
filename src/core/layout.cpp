#include "core/layout.hpp"

#include "common/error.hpp"

namespace pima::core {

ShardLayout ShardLayout::for_geometry(const dram::Geometry& g) {
  ShardLayout l{};
  l.temp_rows = 8;
  l.columns = g.columns;
  const std::size_t data = g.data_rows();
  PIMA_CHECK(data > l.temp_rows + 2, "sub-array too small for a hash shard");
  l.counter_bits = 8;
  PIMA_CHECK(g.columns >= l.counter_bits, "row narrower than one counter");
  const std::size_t per_row = g.columns / l.counter_bits;
  // Solve kmer_rows + ceil(kmer_rows/per_row) + temp ≤ data.
  std::size_t keys = (data - l.temp_rows) * per_row / (per_row + 1);
  while (keys + (keys + per_row - 1) / per_row + l.temp_rows > data) --keys;
  l.kmer_rows = keys;
  l.value_rows = (keys + per_row - 1) / per_row;
  return l;
}

dram::RowAddr ShardLayout::kmer_row(std::size_t slot) const {
  PIMA_CHECK(slot < kmer_rows, "key slot out of shard");
  return slot;
}

dram::RowAddr ShardLayout::value_row(std::size_t slot) const {
  PIMA_CHECK(slot < kmer_rows, "key slot out of shard");
  return kmer_rows + slot / counters_per_row();
}

dram::RowAddr ShardLayout::temp_row(std::size_t t) const {
  PIMA_CHECK(t < temp_rows, "temp slot out of shard");
  return kmer_rows + value_rows + t;
}

}  // namespace pima::core
