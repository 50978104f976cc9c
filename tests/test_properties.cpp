// Algebraic property tests of the PIM primitives, checked on the production
// model and the golden oracle side by side: operand symmetry of the
// commutative ops, host-arithmetic equivalence of the vertical adder, and
// serial == parallel determinism of the runtime engine.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "dram/dpu.hpp"
#include "dram/isa.hpp"
#include "golden/golden.hpp"
#include "runtime/engine.hpp"
#include "test_support.hpp"
#include "verify/fuzz.hpp"

namespace pima {
namespace {

dram::Geometry tiny() {
  dram::Geometry g;
  g.rows = 64;
  g.compute_rows = 8;
  g.columns = 64;
  g.subarrays_per_mat = 4;
  g.mats_per_bank = 2;
  g.banks = 2;
  return g;
}

BitVector random_bits(Rng& rng, std::size_t n) {
  BitVector bits(n);
  for (std::size_t i = 0; i < n; ++i) bits.set(i, rng.uniform(2) == 1);
  return bits;
}

// XNOR and XOR are commutative: swapping the staged operands must give a
// bit-identical result row on both models.
TEST(Properties, TwoRowActivationIsCommutative) {
  const auto g = tiny();
  Rng rng(2020);
  for (int trial = 0; trial < 50; ++trial) {
    const BitVector a = random_bits(rng, g.columns);
    const BitVector b = random_bits(rng, g.columns);
    const bool use_xor = (trial % 2) == 0;

    auto run = [&](const BitVector& first, const BitVector& second) {
      dram::Subarray sa(g, circuit::default_technology());
      const auto x1 = sa.compute_row(0), x2 = sa.compute_row(1);
      sa.write_row(x1, first);
      sa.write_row(x2, second);
      if (use_xor)
        sa.aap_xor(x1, x2, 5);
      else
        sa.aap_xnor(x1, x2, 5);
      return sa.peek_row(5);
    };
    EXPECT_EQ(run(a, b), run(b, a)) << "trial " << trial;

    golden::GoldenSubArray gsa(g);
    const auto x1 = gsa.compute_row(0), x2 = gsa.compute_row(1);
    gsa.write_row(x1, a);
    gsa.write_row(x2, b);
    if (use_xor)
      gsa.aap_xor(x1, x2, 5);
    else
      gsa.aap_xnor(x1, x2, 5);
    EXPECT_EQ(gsa.row_bits(5), run(a, b)) << "trial " << trial;
  }
}

// MAJ3 is symmetric under every permutation of its three operands; both
// the result row and the captured carry latch must be identical.
TEST(Properties, TraMajorityIsSymmetricUnderOperandPermutation) {
  const auto g = tiny();
  Rng rng(14);
  const BitVector ops[3] = {random_bits(rng, g.columns),
                            random_bits(rng, g.columns),
                            random_bits(rng, g.columns)};
  const int perms[6][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                           {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  BitVector reference_row, reference_latch;
  for (int p = 0; p < 6; ++p) {
    dram::Subarray sa(g, circuit::default_technology());
    const auto x1 = sa.compute_row(0), x2 = sa.compute_row(1),
               x3 = sa.compute_row(2);
    sa.write_row(x1, ops[perms[p][0]]);
    sa.write_row(x2, ops[perms[p][1]]);
    sa.write_row(x3, ops[perms[p][2]]);
    sa.aap_tra_carry(x1, x2, x3, 7);
    if (p == 0) {
      reference_row = sa.peek_row(7);
      reference_latch = sa.peek_latch();
      // The golden model agrees with the reference permutation.
      golden::GoldenSubArray gsa(g);
      gsa.write_row(x1, ops[0]);
      gsa.write_row(x2, ops[1]);
      gsa.write_row(x3, ops[2]);
      gsa.aap_tra_carry(x1, x2, x3, 7);
      EXPECT_EQ(gsa.row_bits(7), reference_row);
      EXPECT_EQ(gsa.latch_bits(), reference_latch);
    } else {
      EXPECT_EQ(sa.peek_row(7), reference_row) << "permutation " << p;
      EXPECT_EQ(sa.peek_latch(), reference_latch) << "permutation " << p;
    }
  }
}

// The in-array vertical adder equals plain host addition for random 128-bit
// operands (held as two 64-bit halves — one addition per column, 64 columns
// of independent 128-bit adds per trial).
TEST(Properties, VerticalAddMatchesHostAdd128Bit) {
  dram::Geometry g;
  g.rows = 400;
  g.compute_rows = 8;
  g.columns = 64;
  const std::size_t m = 128;
  std::vector<dram::RowAddr> a_rows, b_rows, sum_rows;
  for (std::size_t i = 0; i < m; ++i) {
    a_rows.push_back(i);
    b_rows.push_back(130 + i);
    sum_rows.push_back(260 + i);
  }
  const dram::RowAddr carry_row = 390;

  Rng rng(7);
  dram::Subarray sa(g, circuit::default_technology());
  golden::GoldenSubArray gsa(g);
  for (std::size_t i = 0; i < m; ++i) {
    const BitVector arow = random_bits(rng, g.columns);
    const BitVector brow = random_bits(rng, g.columns);
    sa.write_row(a_rows[i], arow);
    sa.write_row(b_rows[i], brow);
    gsa.write_row(a_rows[i], arow);
    gsa.write_row(b_rows[i], brow);
  }

  sa.add_vertical(a_rows, b_rows, sum_rows, carry_row);
  gsa.add_vertical(a_rows, b_rows, sum_rows, carry_row);

  const std::vector<dram::RowAddr> lo_rows(sum_rows.begin(),
                                           sum_rows.begin() + 64);
  const std::vector<dram::RowAddr> hi_rows(sum_rows.begin() + 64,
                                           sum_rows.end());
  auto column_half = [&](const dram::Subarray& s,
                         const std::vector<dram::RowAddr>& rows,
                         std::size_t col) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < rows.size(); ++i)
      if (s.peek_row(rows[i]).get(col)) v |= std::uint64_t{1} << i;
    return v;
  };

  for (std::size_t col = 0; col < g.columns; ++col) {
    // Host reference: 128-bit add via two 64-bit halves with manual carry.
    std::uint64_t a_lo = 0, a_hi = 0, b_lo = 0, b_hi = 0;
    for (std::size_t i = 0; i < 64; ++i) {
      if (sa.peek_row(a_rows[i]).get(col)) a_lo |= std::uint64_t{1} << i;
      if (sa.peek_row(a_rows[64 + i]).get(col)) a_hi |= std::uint64_t{1} << i;
      if (sa.peek_row(b_rows[i]).get(col)) b_lo |= std::uint64_t{1} << i;
      if (sa.peek_row(b_rows[64 + i]).get(col)) b_hi |= std::uint64_t{1} << i;
    }
    const std::uint64_t want_lo = a_lo + b_lo;
    const bool carry_lo = want_lo < a_lo;
    const std::uint64_t hi_pair = a_hi + b_hi;
    const std::uint64_t want_hi = hi_pair + (carry_lo ? 1u : 0u);
    const bool carry_out = (hi_pair < a_hi) || (want_hi < hi_pair);

    EXPECT_EQ(column_half(sa, lo_rows, col), want_lo) << "col " << col;
    EXPECT_EQ(column_half(sa, hi_rows, col), want_hi) << "col " << col;
    EXPECT_EQ(sa.peek_row(carry_row).get(col), carry_out) << "col " << col;
    // Golden adder lands on the same bits.
    EXPECT_EQ(golden::column_value(gsa, lo_rows, col), want_lo);
    EXPECT_EQ(golden::column_value(gsa, hi_rows, col), want_hi);
    EXPECT_EQ(gsa.get(carry_row, col), carry_out);
  }
}

// Golden XNOR-compare + DPU AND reduction equals the production pair.
TEST(Properties, RowsMatchEqualsCompareAndReduce) {
  const auto g = tiny();
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    BitVector a = random_bits(rng, g.columns);
    BitVector b = (trial % 3 == 0) ? a : random_bits(rng, g.columns);
    if (trial % 5 == 0 && trial % 3 != 0) {
      b = a;
      b.set(rng.uniform(g.columns), !a.get(0));  // near-miss
    }
    dram::Subarray sa(g, circuit::default_technology());
    golden::GoldenSubArray gsa(g);
    sa.write_row(1, a);
    sa.write_row(2, b);
    gsa.write_row(1, a);
    gsa.write_row(2, b);
    sa.compare_rows(1, 2, 10);
    gsa.compare_rows(1, 2, 10);
    EXPECT_EQ(gsa.row_bits(10), sa.peek_row(10));
    const bool device_match = dram::Dpu::and_reduce(sa, 10, g.columns);
    EXPECT_EQ(gsa.rows_match(1, 2, g.columns), device_match);
    EXPECT_EQ(device_match, a == b);
  }
}

// The engine's determinism contract: a program run through 1 channel and
// through 4 channels leaves every sub-array in a bit-identical state, and
// the captured per-sub-array command streams are identical too.
TEST(Properties, SerialAndParallelEngineProduceIdenticalState) {
  verify::FuzzOptions fopts;
  fopts.seed = 5;
  fopts.ops = 600;
  fopts.subarrays = 8;
  fopts.geometry = tiny();
  const auto program = verify::generate_program(fopts);

  auto run = [&](std::size_t channels) {
    auto device = std::make_unique<dram::Device>(fopts.geometry);
    runtime::EngineOptions eopts;
    eopts.channels = channels;
    eopts.capture_trace = true;
    runtime::Engine engine(*device, eopts);
    engine.submit_program(program);
    engine.drain();
    return device;
  };
  const auto serial = run(1);
  const auto parallel = run(4);

  for (std::size_t flat = 0; flat < fopts.subarrays; ++flat) {
    const auto* s = serial->subarray_if(flat);
    const auto* p = parallel->subarray_if(flat);
    ASSERT_EQ(s == nullptr, p == nullptr) << "sub-array " << flat;
    if (s == nullptr) continue;
    for (dram::RowAddr r = 0; r < fopts.geometry.rows; ++r)
      ASSERT_EQ(s->peek_row(r), p->peek_row(r))
          << "sub-array " << flat << " row " << r;
    EXPECT_EQ(s->peek_latch(), p->peek_latch()) << "sub-array " << flat;
    EXPECT_EQ(s->stats().total_commands(), p->stats().total_commands());
  }
  // Same capture, command for command — replay order is canonical.
  EXPECT_EQ(test_support::captured_program(*serial),
            test_support::captured_program(*parallel));
  // And the parallel capture replays clean against the golden model.
  const auto d =
      verify::run_differential(fopts.geometry,
                               test_support::captured_program(*parallel));
  EXPECT_FALSE(d.has_value()) << d->report();
}

// Golden column_sums is a correct degree oracle.
TEST(Properties, ColumnSumsCountsSetBitsPerColumn) {
  Rng rng(3);
  std::vector<BitVector> rows;
  for (int i = 0; i < 9; ++i) rows.push_back(random_bits(rng, 32));
  const auto sums = golden::column_sums(rows);
  ASSERT_EQ(sums.size(), 32u);
  for (std::size_t c = 0; c < 32; ++c) {
    std::uint32_t want = 0;
    for (const auto& r : rows)
      if (r.get(c)) ++want;
    EXPECT_EQ(sums[c], want) << "col " << c;
  }
  EXPECT_TRUE(golden::column_sums({}).empty());
}

}  // namespace
}  // namespace pima
