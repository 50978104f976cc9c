#include "core/degree.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <string>

#include "common/error.hpp"

namespace pima::core {
namespace {

using Number = VerticalNumber;

// Row allocator over a sub-array's data rows with recycling: carry-save
// intermediates are freed as soon as they are consumed, so the reduction
// runs in O(live numbers) rows instead of O(total intermediates). The free
// list is the caller's, emptied here, so it keeps its capacity.
class RowAllocator {
 public:
  RowAllocator(const dram::Geometry& g, std::vector<dram::RowAddr>& free)
      : limit_(g.data_rows()), free_(free) {
    free_.clear();
  }

  dram::RowAddr alloc() {
    if (!free_.empty()) {
      const auto r = free_.back();
      free_.pop_back();
      return r;
    }
    PIMA_CHECK(next_ < limit_, "sub-array out of reserved rows");
    return next_++;
  }

  std::vector<dram::RowAddr> alloc_span(std::size_t n) {
    std::vector<dram::RowAddr> s(n);
    for (auto& r : s) r = alloc();
    return s;
  }

  void free(dram::RowAddr r) { free_.push_back(r); }

 private:
  dram::RowAddr next_ = 0;
  std::size_t limit_;
  std::vector<dram::RowAddr>& free_;
};

// 3:2 compression of three numbers into `sum` and `carry` (carry<<1): one
// fused Subarray::compress, 9 commands per bit, into freshly allocated
// rows (taken sum then carry per bit, LSB first).
void compress(dram::Subarray& sa, RowAllocator& alloc, dram::RowAddr zero_row,
              const Number& a, const Number& b, const Number& c, Number& sum,
              Number& carry) {
  const std::size_t w = std::max({a.size(), b.size(), c.size()});
  carry.push_back(zero_row);  // carry has weight 2: shift left one bit
  for (std::size_t i = 0; i < w; ++i) {
    sum.push_back(alloc.alloc());
    carry.push_back(alloc.alloc());
  }
  sa.compress({a.begin(), a.end()}, {b.begin(), b.end()},
              {c.begin(), c.end()}, zero_row, {sum.begin(), sum.end()},
              {carry.begin() + 1, carry.end()});
}

// Bit-serial addition of two numbers via Subarray::add_vertical.
Number add(dram::Subarray& sa, RowAllocator& alloc, dram::RowAddr zero_row,
           const Number& a, const Number& b) {
  const std::size_t w = std::max(a.size(), b.size());
  std::vector<dram::RowAddr> ap(a.begin(), a.end()), bp(b.begin(), b.end());
  ap.resize(w, zero_row);
  bp.resize(w, zero_row);
  const std::vector<dram::RowAddr> out = alloc.alloc_span(w);
  const auto carry_out = alloc.alloc();
  sa.add_vertical(ap, bp, out, carry_out);
  Number sum;
  for (const auto r : out) sum.push_back(r);
  sum.push_back(carry_out);
  return sum;
}

// The kernel behind both entry points: maps `rows` in and reduces them.
std::vector<std::uint32_t> column_sums(dram::Subarray& sa,
                                       std::span<const BitVector> rows,
                                       ColumnSumScratch& scratch) {
  const std::size_t width = sa.geometry().columns;
  RowAllocator alloc(sa.geometry(), scratch.free_rows);

  // Dedicated all-zero row for padding narrower numbers.
  const auto zero_row = alloc.alloc();
  if (scratch.zero.size() != width) scratch.zero = BitVector(width);
  sa.write_row(zero_row, scratch.zero);

  if (rows.empty()) return std::vector<std::uint32_t>(width, 0);

  // Map the adjacency rows in (paper "mapping" stage).
  auto& numbers = scratch.numbers;
  numbers.clear();
  numbers.reserve(rows.size());
  for (const BitVector& row : rows) {
    PIMA_CHECK(row.size() == width, "adjacency row width mismatch");
    const auto addr = alloc.alloc();
    sa.write_row(addr, row);
    numbers.emplace_back(addr);
  }

  // Carry-save reduction: 3 → 2 until two numbers remain, in place: the
  // outputs of triple t land in slots 2t and 2t+1, behind every input not
  // yet consumed. Consumed operand rows are recycled immediately (the
  // reserved-row budget of a sub-array is finite).
  auto free_number = [&](const Number& n) {
    for (const auto r : n)
      if (r != zero_row) alloc.free(r);
  };
  while (numbers.size() > 2) {
    std::size_t out = 0, i = 0;
    for (; i + 3 <= numbers.size(); i += 3) {
      Number sum, carry;
      compress(sa, alloc, zero_row, numbers[i], numbers[i + 1],
               numbers[i + 2], sum, carry);
      free_number(numbers[i]);
      free_number(numbers[i + 1]);
      free_number(numbers[i + 2]);
      numbers[out++] = sum;
      numbers[out++] = carry;
    }
    for (; i < numbers.size(); ++i) numbers[out++] = numbers[i];
    numbers.resize(out);
  }

  // Final bit-serial addition.
  Number result = numbers[0];
  if (numbers.size() == 2) {
    result = add(sa, alloc, zero_row, numbers[0], numbers[1]);
    free_number(numbers[0]);
    free_number(numbers[1]);
  }

  // Read the vertical result out through the row buffer, visiting only the
  // set bits of each row (bits past the width are zero by invariant).
  std::vector<std::uint32_t> sums(width, 0);
  for (std::size_t bitpos = 0; bitpos < result.size(); ++bitpos) {
    const BitVector& row = sa.read_row(result[bitpos]);
    const std::uint32_t weight = std::uint32_t{1} << bitpos;
    for (std::size_t w = 0; w < row.word_count(); ++w)
      for (auto bits = row.word(w); bits != 0; bits &= bits - 1)
        sums[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))] |=
            weight;
  }
  return sums;
}

}  // namespace

std::vector<std::uint32_t> pim_column_sums(
    dram::Subarray& sa, const std::vector<BitVector>& rows) {
  ColumnSumScratch scratch;
  return column_sums(sa, rows, scratch);
}

std::vector<std::uint32_t> run_degree_job(dram::Subarray& sa, std::size_t flat,
                                          const EdgeBlock& block,
                                          std::size_t n_local_sources,
                                          ColumnSumScratch& scratch) {
  scratch.adjacency.assign(block, n_local_sources, sa.geometry().columns);
  auto sums = column_sums(sa, scratch.adjacency.rows(), scratch);
  if (sa.fault_injector() == nullptr) check_block_sums(flat, block, sums);
  return sums;
}

void check_block_sums(std::size_t flat, const EdgeBlock& block,
                      const std::vector<std::uint32_t>& sums) {
  const auto want = block_column_degrees(block, sums.size());
  const auto [got_it, want_it] = std::mismatch(sums.begin(), sums.end(),
                                               want.begin());
  if (got_it == sums.end()) return;
  const auto column = static_cast<std::size_t>(got_it - sums.begin());
  throw SimulationError("degree kernel on sub-array " + std::to_string(flat) +
                        ": column " + std::to_string(column) + " sums to " +
                        std::to_string(*got_it) + ", the block's degree is " +
                        std::to_string(*want_it));
}

DegreeResult pim_degrees(dram::Device& device,
                         const assembly::DeBruijnGraph& g,
                         const GraphPartition& partition,
                         runtime::Engine* engine) {
  DegreeResult result;
  result.in_degree.assign(g.node_count(), 0);
  result.out_degree.assign(g.node_count(), 0);

  // Each job produces its column sums into its own slot; the controller
  // accumulates them in walk order after the barrier so the result is
  // independent of channel interleaving. Reserved up front: running tasks
  // hold pointers into the slots.
  struct Slot {
    const std::vector<assembly::NodeId>* columns;  ///< column → vertex
    std::vector<std::uint32_t>* degrees;
    std::vector<std::uint32_t> sums;
  };
  std::vector<Slot> slots;
  slots.reserve(2 * partition.blocks.size());
  std::vector<ColumnSumScratch> scratch(engine ? engine->channels() : 1);
  for_each_degree_job(
      partition, device.geometry(),
      [&](std::size_t flat, std::size_t n, const EdgeBlock& block,
          bool transposed) {
        // In-degrees sum over the destination interval's columns,
        // out-degrees (the transposed block) over the source interval's.
        Slot& slot = slots.emplace_back();
        slot.columns = &partition.interval_vertices[transposed
                                                        ? block.source_interval
                                                        : block.dest_interval];
        slot.degrees = transposed ? &result.out_degree : &result.in_degree;
        ColumnSumScratch& buffers =
            scratch[engine ? engine->channel_of(flat) : 0];
        runtime::Task task = [&device, &block, &slot, &buffers, flat, n,
                              transposed] {
          dram::Subarray& sa = device.subarray(flat);
          slot.sums =
              transposed
                  ? run_degree_job(sa, flat, transpose(block), n, buffers)
                  : run_degree_job(sa, flat, block, n, buffers);
        };
        if (engine)
          engine->submit_to_subarray(flat, std::move(task));
        else
          task();
      });
  if (engine) engine->drain();

  for (const Slot& slot : slots)
    for (std::size_t c = 0; c < slot.columns->size(); ++c)
      (*slot.degrees)[(*slot.columns)[c]] += slot.sums[c];
  return result;
}

}  // namespace pima::core
