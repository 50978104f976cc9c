#include "core/degree.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <functional>

#include "common/error.hpp"
#include "runtime/shard.hpp"

namespace pima::core {
namespace {

// Row allocator over a sub-array's data rows with recycling: carry-save
// intermediates are freed as soon as they are consumed, so the reduction
// runs in O(live numbers) rows instead of O(total intermediates).
class RowAllocator {
 public:
  explicit RowAllocator(const dram::Geometry& g) : limit_(g.data_rows()) {}

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
  std::vector<dram::RowAddr> free_;
};

// A vertical multi-bit number: row addresses LSB-first, held inline so the
// reduction builds no per-number heap vector. Widths only grow along the
// reduction (a number never outgrows the final sum it feeds), so a number
// wider than the 32-bit degree readout is an error wherever it appears.
class Number {
 public:
  static constexpr std::size_t kCapacity = 32;

  Number() = default;
  explicit Number(dram::RowAddr r) { push_back(r); }

  std::size_t size() const { return size_; }
  dram::RowAddr operator[](std::size_t i) const { return rows_[i]; }
  const dram::RowAddr* begin() const { return rows_.data(); }
  const dram::RowAddr* end() const { return rows_.data() + size_; }

  void push_back(dram::RowAddr r) {
    PIMA_CHECK(size_ < kCapacity, "degree exceeds 32-bit readout");
    rows_[size_++] = r;
  }

 private:
  std::array<dram::RowAddr, kCapacity> rows_;
  std::size_t size_ = 0;
};

// 3:2 compression of three numbers into `sum` and `carry` (carry<<1).
// Each bit position costs one fused XOR3 (5 commands) and one fused MAJ3
// (4 commands) into freshly allocated rows.
void compress(dram::Subarray& sa, RowAllocator& alloc, dram::RowAddr zero_row,
              const Number& a, const Number& b, const Number& c, Number& sum,
              Number& carry) {
  const std::size_t w = std::max({a.size(), b.size(), c.size()});
  auto bit = [&](const Number& n, std::size_t i) {
    return i < n.size() ? n[i] : zero_row;
  };
  carry.push_back(zero_row);  // carry has weight 2: shift left one bit
  for (std::size_t i = 0; i < w; ++i) {
    const auto s = alloc.alloc();
    sa.xor3_rows(bit(a, i), bit(b, i), bit(c, i), s);
    sum.push_back(s);
    const auto cy = alloc.alloc();
    sa.maj3_rows(bit(a, i), bit(b, i), bit(c, i), cy);
    carry.push_back(cy);
  }
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

}  // namespace

std::vector<std::uint32_t> pim_column_sums(
    dram::Subarray& sa, const std::vector<BitVector>& rows) {
  const std::size_t width = sa.geometry().columns;
  RowAllocator alloc(sa.geometry());

  // Dedicated all-zero row for padding narrower numbers.
  const auto zero_row = alloc.alloc();
  sa.write_row(zero_row, BitVector(width));

  if (rows.empty()) return std::vector<std::uint32_t>(width, 0);

  // Map the adjacency rows in (paper "mapping" stage).
  std::vector<Number> numbers, next;
  numbers.reserve(rows.size());
  next.reserve(rows.size());
  for (const auto& r : rows) {
    PIMA_CHECK(r.size() == width, "adjacency row width mismatch");
    const auto addr = alloc.alloc();
    sa.write_row(addr, r);
    numbers.emplace_back(addr);
  }

  // Carry-save reduction: 3 → 2 until two numbers remain. Consumed
  // operand rows are recycled immediately (the reserved-row budget of a
  // sub-array is finite). A round never yields more numbers than it
  // consumes, so `next` never outgrows its reservation and the references
  // into it stay valid.
  auto free_number = [&](const Number& n) {
    for (const auto r : n)
      if (r != zero_row) alloc.free(r);
  };
  while (numbers.size() > 2) {
    next.clear();
    std::size_t i = 0;
    for (; i + 3 <= numbers.size(); i += 3) {
      Number& sum = next.emplace_back();
      Number& carry = next.emplace_back();
      compress(sa, alloc, zero_row, numbers[i], numbers[i + 1],
               numbers[i + 2], sum, carry);
      free_number(numbers[i]);
      free_number(numbers[i + 1]);
      free_number(numbers[i + 2]);
    }
    for (; i < numbers.size(); ++i) next.push_back(numbers[i]);
    numbers.swap(next);
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

namespace {

// Shared body of the device- and pool-backed entry points: `resolve` maps
// a logical flat index to its sub-array, `dispatch` routes a block kernel
// to the owner (or runs it inline), `barrier` drains the runtime.
DegreeResult pim_degrees_impl(
    const dram::Geometry& geometry, const assembly::DeBruijnGraph& g,
    const GraphPartition& partition,
    const std::function<dram::Subarray&(std::size_t)>& resolve,
    const std::function<void(std::size_t, runtime::Task)>& dispatch,
    const std::function<void()>& barrier) {
  const auto width = geometry.columns;
  const auto total = geometry.total_subarrays();
  DegreeResult result;
  result.in_degree.assign(g.node_count(), 0);
  result.out_degree.assign(g.node_count(), 0);

  // Each block produces its partial column sums into its own slot; the
  // controller accumulates them in block order after the barrier so the
  // result is independent of channel interleaving.
  const auto m = partition.intervals;
  std::vector<std::vector<std::uint32_t>> in_sums(
      static_cast<std::size_t>(m) * m);
  std::vector<std::vector<std::uint32_t>> out_sums(
      static_cast<std::size_t>(m) * m);

  for (std::uint32_t i = 0; i < m; ++i) {
    for (std::uint32_t j = 0; j < m; ++j) {
      const EdgeBlock& block = partition.block(i, j);
      if (block.edges.empty()) continue;
      const auto& src_vertices = partition.interval_vertices[i];
      const auto& dst_vertices = partition.interval_vertices[j];
      PIMA_CHECK(dst_vertices.size() <= width,
                 "interval too wide for one sub-array row — increase M");
      PIMA_CHECK(src_vertices.size() <= width,
                 "interval too wide for one sub-array row — increase M");
      const std::size_t block_index = static_cast<std::size_t>(i) * m + j;

      // In-degrees: column sums of the block's adjacency rows.
      {
        const std::size_t flat = runtime::block_subarray(total, i, j, m);
        dispatch(flat, [&resolve, &block, &src_vertices, flat, width,
                        sums = &in_sums[block_index]] {
          const auto rows =
              block_adjacency_rows(block, src_vertices.size(), width);
          *sums = pim_column_sums(resolve(flat), rows);
        });
      }

      // Out-degrees: column sums of the transposed block.
      {
        const std::size_t flat = runtime::block_subarray(
            total, j, i, m, static_cast<std::size_t>(m) * m);
        dispatch(flat, [&resolve, &block, i, j, &dst_vertices, flat, width,
                        sums = &out_sums[block_index]] {
          EdgeBlock transposed;
          transposed.source_interval = j;
          transposed.dest_interval = i;
          transposed.edges.reserve(block.edges.size());
          for (const auto& e : block.edges)
            transposed.edges.push_back({e.to, e.from, e.multiplicity});
          const auto rows =
              block_adjacency_rows(transposed, dst_vertices.size(), width);
          *sums = pim_column_sums(resolve(flat), rows);
        });
      }
    }
  }
  barrier();

  for (std::uint32_t i = 0; i < m; ++i) {
    for (std::uint32_t j = 0; j < m; ++j) {
      const std::size_t block_index = static_cast<std::size_t>(i) * m + j;
      const auto& src_vertices = partition.interval_vertices[i];
      const auto& dst_vertices = partition.interval_vertices[j];
      if (!in_sums[block_index].empty()) {
        const auto& sums = in_sums[block_index];
        for (std::size_t c = 0; c < dst_vertices.size(); ++c)
          result.in_degree[dst_vertices[c]] += sums[c];
      }
      if (!out_sums[block_index].empty()) {
        const auto& sums = out_sums[block_index];
        for (std::size_t c = 0; c < src_vertices.size(); ++c)
          result.out_degree[src_vertices[c]] += sums[c];
      }
    }
  }
  return result;
}

}  // namespace

DegreeResult pim_degrees(dram::Device& device,
                         const assembly::DeBruijnGraph& g,
                         const GraphPartition& partition,
                         runtime::Engine* engine) {
  return pim_degrees_impl(
      device.geometry(), g, partition,
      [&device](std::size_t flat) -> dram::Subarray& {
        return device.subarray(flat);
      },
      [&](std::size_t flat, runtime::Task task) {
        if (engine)
          engine->submit_to_subarray(flat, std::move(task));
        else
          task();
      },
      [&] {
        if (engine) engine->drain();
      });
}

DegreeResult pim_degrees(runtime::DevicePool& pool,
                         const assembly::DeBruijnGraph& g,
                         const GraphPartition& partition,
                         runtime::PoolRunner* runner) {
  return pim_degrees_impl(
      pool.geometry(), g, partition,
      [&pool](std::size_t flat) -> dram::Subarray& {
        return pool.subarray(flat);
      },
      [&](std::size_t flat, runtime::Task task) {
        if (runner)
          runner->submit_to_subarray(flat, std::move(task));
        else
          task();
      },
      [&] {
        if (runner) runner->drain();
      });
}

}  // namespace pima::core
