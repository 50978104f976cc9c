#include "dram/subarray.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "circuit/sense_amp.hpp"
#include "common/rng.hpp"
#include "dram/fault.hpp"
#include "dram/isa.hpp"

namespace pima::dram {
namespace {

Geometry small_geometry() {
  Geometry g;
  g.rows = 64;
  g.compute_rows = 8;
  g.columns = 64;
  g.subarrays_per_mat = 1;
  g.mats_per_bank = 1;
  g.banks = 1;
  return g;
}

BitVector random_row(Rng& rng, std::size_t n) {
  BitVector v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.bernoulli(0.5));
  return v;
}

class SubarrayTest : public ::testing::Test {
 protected:
  SubarrayTest() : sa_(small_geometry(), circuit::default_technology()) {}
  Subarray sa_;
};

TEST_F(SubarrayTest, GeometryRegions) {
  EXPECT_EQ(sa_.geometry().data_rows(), 56u);
  EXPECT_EQ(sa_.compute_row(0), 56u);
  EXPECT_EQ(sa_.compute_row(7), 63u);
  EXPECT_THROW(sa_.compute_row(8), pima::PreconditionError);
  EXPECT_FALSE(sa_.is_compute_row(55));
  EXPECT_TRUE(sa_.is_compute_row(56));
}

TEST_F(SubarrayTest, WriteReadRoundTrip) {
  Rng rng(1);
  const auto bits = random_row(rng, 64);
  sa_.write_row(5, bits);
  EXPECT_EQ(sa_.read_row(5), bits);
  EXPECT_EQ(sa_.peek_row(5), bits);
}

TEST_F(SubarrayTest, WriteValidatesWidthAndAddress) {
  EXPECT_THROW(sa_.write_row(5, BitVector(63)), pima::PreconditionError);
  EXPECT_THROW(sa_.write_row(64, BitVector(64)), pima::PreconditionError);
  EXPECT_THROW(sa_.read_row(100), pima::PreconditionError);
}

TEST_F(SubarrayTest, AapCopyClones) {
  Rng rng(2);
  const auto bits = random_row(rng, 64);
  sa_.write_row(3, bits);
  sa_.aap_copy(3, 40);
  EXPECT_EQ(sa_.peek_row(40), bits);
  EXPECT_EQ(sa_.peek_row(3), bits);  // source preserved (RowClone)
}

TEST_F(SubarrayTest, XnorComputesAndDestroysOperands) {
  Rng rng(3);
  const auto a = random_row(rng, 64);
  const auto b = random_row(rng, 64);
  const auto x1 = sa_.compute_row(0), x2 = sa_.compute_row(1);
  sa_.write_row(x1, a);
  sa_.write_row(x2, b);
  sa_.aap_xnor(x1, x2, 10);
  const auto expect = BitVector::bit_xnor(a, b);
  EXPECT_EQ(sa_.peek_row(10), expect);
  // Charge sharing destroyed the operands; SA restored the result.
  EXPECT_EQ(sa_.peek_row(x1), expect);
  EXPECT_EQ(sa_.peek_row(x2), expect);
}

TEST_F(SubarrayTest, XorVariant) {
  Rng rng(4);
  const auto a = random_row(rng, 64);
  const auto b = random_row(rng, 64);
  sa_.write_row(sa_.compute_row(0), a);
  sa_.write_row(sa_.compute_row(1), b);
  sa_.aap_xor(sa_.compute_row(0), sa_.compute_row(1), 11);
  EXPECT_EQ(sa_.peek_row(11), BitVector::bit_xor(a, b));
}

TEST_F(SubarrayTest, MultiRowActivationRestrictedToComputeRows) {
  // The modified row decoder only spans x1..x8 (paper Fig. 1b).
  EXPECT_THROW(sa_.aap_xnor(1, 2, 10), pima::PreconditionError);
  EXPECT_THROW(sa_.aap_xnor(sa_.compute_row(0), 2, 10),
               pima::PreconditionError);
  EXPECT_THROW(sa_.aap_tra_carry(1, 2, 3, 10), pima::PreconditionError);
  EXPECT_THROW(sa_.sum_cycle(1, 2, 10), pima::PreconditionError);
  // Distinct-row requirements.
  const auto x1 = sa_.compute_row(0);
  EXPECT_THROW(sa_.aap_xnor(x1, x1, 10), pima::PreconditionError);
  EXPECT_THROW(sa_.aap_tra_carry(x1, x1, sa_.compute_row(2), 10),
               pima::PreconditionError);
}

TEST_F(SubarrayTest, TraMajorityAndLatch) {
  Rng rng(5);
  const auto a = random_row(rng, 64);
  const auto b = random_row(rng, 64);
  const auto c = random_row(rng, 64);
  const auto x1 = sa_.compute_row(0), x2 = sa_.compute_row(1),
             x3 = sa_.compute_row(2);
  sa_.write_row(x1, a);
  sa_.write_row(x2, b);
  sa_.write_row(x3, c);
  sa_.aap_tra_carry(x1, x2, x3, 12);
  const auto maj = BitVector::bit_maj3(a, b, c);
  EXPECT_EQ(sa_.peek_row(12), maj);
  EXPECT_EQ(sa_.peek_latch(), maj);
  // Ambit semantics: all three activated rows hold the majority.
  EXPECT_EQ(sa_.peek_row(x1), maj);
  EXPECT_EQ(sa_.peek_row(x2), maj);
  EXPECT_EQ(sa_.peek_row(x3), maj);
}

// dst may alias one of the activated rows (add_vertical issues TRA with
// dst == xc); the result must land regardless of which store is elided.
TEST_F(SubarrayTest, TwoRowOpsAllowDstAliasingAnOperand) {
  Rng rng(21);
  const auto a = random_row(rng, 64);
  const auto b = random_row(rng, 64);
  const auto x1 = sa_.compute_row(0), x2 = sa_.compute_row(1);

  sa_.write_row(x1, a);
  sa_.write_row(x2, b);
  sa_.aap_xnor(x1, x2, x1);  // dst == first operand
  const auto xnor = BitVector::bit_xnor(a, b);
  EXPECT_EQ(sa_.peek_row(x1), xnor);
  EXPECT_EQ(sa_.peek_row(x2), xnor);

  sa_.write_row(x1, a);
  sa_.write_row(x2, b);
  sa_.aap_xor(x1, x2, x2);  // dst == second operand
  const auto xorr = BitVector::bit_xor(a, b);
  EXPECT_EQ(sa_.peek_row(x1), xorr);
  EXPECT_EQ(sa_.peek_row(x2), xorr);

  sa_.reset_latch();  // zero carry → sum cycle degenerates to XOR
  sa_.write_row(x1, a);
  sa_.write_row(x2, b);
  sa_.sum_cycle(x1, x2, x2);  // dst == second operand
  EXPECT_EQ(sa_.peek_row(x1), xorr);
  EXPECT_EQ(sa_.peek_row(x2), xorr);
}

TEST_F(SubarrayTest, TraCarryAllowsDstAliasingThirdOperand) {
  // The add_vertical production pattern: aap_tra_carry(x1, x2, x3, x3).
  Rng rng(22);
  const auto a = random_row(rng, 64);
  const auto b = random_row(rng, 64);
  const auto c = random_row(rng, 64);
  const auto x1 = sa_.compute_row(0), x2 = sa_.compute_row(1),
             x3 = sa_.compute_row(2);
  sa_.write_row(x1, a);
  sa_.write_row(x2, b);
  sa_.write_row(x3, c);
  sa_.aap_tra_carry(x1, x2, x3, x3);
  const auto maj = BitVector::bit_maj3(a, b, c);
  EXPECT_EQ(sa_.peek_row(x1), maj);
  EXPECT_EQ(sa_.peek_row(x2), maj);
  EXPECT_EQ(sa_.peek_row(x3), maj);
  EXPECT_EQ(sa_.peek_latch(), maj);
}

TEST_F(SubarrayTest, SumCycleCombinesLatch) {
  Rng rng(6);
  const auto a = random_row(rng, 64);
  const auto b = random_row(rng, 64);
  const auto carry = random_row(rng, 64);
  const auto x1 = sa_.compute_row(0), x2 = sa_.compute_row(1),
             x3 = sa_.compute_row(2);
  // Load the latch with `carry` via TRA(x,x,x)... use three copies.
  sa_.write_row(x1, carry);
  sa_.write_row(x2, carry);
  sa_.write_row(x3, carry);
  sa_.aap_tra_carry(x1, x2, x3, 13);
  ASSERT_EQ(sa_.peek_latch(), carry);
  sa_.write_row(x1, a);
  sa_.write_row(x2, b);
  sa_.sum_cycle(x1, x2, 14);
  const auto expect =
      BitVector::bit_xor(BitVector::bit_xor(a, b), carry);
  EXPECT_EQ(sa_.peek_row(14), expect);
}

TEST_F(SubarrayTest, ResetLatchClears) {
  const auto x1 = sa_.compute_row(0), x2 = sa_.compute_row(1),
             x3 = sa_.compute_row(2);
  BitVector ones(64);
  ones.fill(true);
  sa_.write_row(x1, ones);
  sa_.write_row(x2, ones);
  sa_.write_row(x3, ones);
  sa_.aap_tra_carry(x1, x2, x3, 12);
  EXPECT_TRUE(sa_.peek_latch().all());
  sa_.reset_latch();
  EXPECT_TRUE(sa_.peek_latch().none());
}

TEST_F(SubarrayTest, CompareRowsLeavesMatchBits) {
  Rng rng(7);
  const auto a = random_row(rng, 64);
  auto b = a;
  b.set(17, !b.get(17));
  sa_.write_row(1, a);
  sa_.write_row(2, b);
  sa_.compare_rows(1, 2, 20);
  const auto& result = sa_.peek_row(20);
  EXPECT_FALSE(result.get(17));
  EXPECT_EQ(result.popcount(), 63u);
  // Data rows a, b must be intact (compare staged copies, not originals).
  EXPECT_EQ(sa_.peek_row(1), a);
  EXPECT_EQ(sa_.peek_row(2), b);
}

TEST_F(SubarrayTest, StatsAccumulateAndClear) {
  sa_.write_row(1, BitVector(64));
  sa_.aap_copy(1, 2);
  sa_.compare_rows(1, 2, 20);
  const auto& st = sa_.stats();
  EXPECT_EQ(st.counts[static_cast<std::size_t>(CommandKind::kRowWrite)], 1u);
  EXPECT_EQ(st.counts[static_cast<std::size_t>(CommandKind::kAapCopy)], 3u);
  EXPECT_EQ(st.counts[static_cast<std::size_t>(CommandKind::kAapTwoRow)], 1u);
  EXPECT_GT(st.busy_ns, 0.0);
  EXPECT_GT(st.energy_pj, 0.0);
  sa_.clear_stats();
  EXPECT_EQ(sa_.stats().total_commands(), 0u);
}

TEST_F(SubarrayTest, CommandCostsMatchTimingModel) {
  const auto& t = circuit::default_technology().timing;
  sa_.aap_copy(1, 2);
  EXPECT_DOUBLE_EQ(sa_.stats().busy_ns, t.aap_ns());
  sa_.clear_stats();
  sa_.write_row(sa_.compute_row(0), BitVector(64));
  sa_.write_row(sa_.compute_row(1), BitVector(64));
  sa_.clear_stats();
  sa_.aap_xnor(sa_.compute_row(0), sa_.compute_row(1), 3);
  EXPECT_DOUBLE_EQ(sa_.stats().busy_ns, t.aap_ns());
}

// Vertical multi-bit addition: property test against software addition on
// random operands, sweeping operand widths.
class AddVertical : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AddVertical, MatchesSoftwareAddition) {
  const std::size_t m = GetParam();
  Subarray sa(small_geometry(), circuit::default_technology());
  const std::size_t cols = sa.geometry().columns;
  Rng rng(100 + m);

  // Build two m-bit vertical operands: element j lives in column j.
  std::vector<std::uint64_t> a_vals(cols), b_vals(cols);
  const std::uint64_t mask = (std::uint64_t{1} << m) - 1;
  for (std::size_t j = 0; j < cols; ++j) {
    a_vals[j] = rng() & mask;
    b_vals[j] = rng() & mask;
  }
  std::vector<RowAddr> a_rows, b_rows, s_rows;
  for (std::size_t bit = 0; bit < m; ++bit) {
    BitVector ar(cols), br(cols);
    for (std::size_t j = 0; j < cols; ++j) {
      ar.set(j, (a_vals[j] >> bit) & 1u);
      br.set(j, (b_vals[j] >> bit) & 1u);
    }
    sa.write_row(bit, ar);
    sa.write_row(16 + bit, br);
    a_rows.push_back(bit);
    b_rows.push_back(16 + bit);
    s_rows.push_back(32 + bit);
  }
  const RowAddr carry_row = 50;
  sa.add_vertical(a_rows, b_rows, s_rows, carry_row);

  for (std::size_t j = 0; j < cols; ++j) {
    std::uint64_t got = 0;
    for (std::size_t bit = 0; bit < m; ++bit)
      if (sa.peek_row(s_rows[bit]).get(j)) got |= std::uint64_t{1} << bit;
    if (sa.peek_row(carry_row).get(j)) got |= std::uint64_t{1} << m;
    EXPECT_EQ(got, a_vals[j] + b_vals[j]) << "column " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, AddVertical,
                         ::testing::Values(1, 2, 3, 4, 8, 12));

TEST_F(SubarrayTest, AapCopyRejectsAliasedRows) {
  // src == des would activate the same row twice — electrically a refresh,
  // not a RowClone — so the model rejects it instead of silently absorbing
  // a controller bug.
  EXPECT_THROW(sa_.aap_copy(3, 3), pima::PreconditionError);
  const auto x1 = sa_.compute_row(0);
  EXPECT_THROW(sa_.aap_copy(x1, x1), pima::PreconditionError);
  EXPECT_NO_THROW(sa_.aap_copy(3, 4));
}

TEST_F(SubarrayTest, SumCycleAllOnesOperandsWithCarry) {
  // Edge of the carry chain: 1 ⊕ 1 ⊕ 1 = 1 in every column.
  const auto x1 = sa_.compute_row(0), x2 = sa_.compute_row(1),
             x3 = sa_.compute_row(2);
  BitVector ones(64);
  ones.fill(true);
  sa_.write_row(x1, ones);
  sa_.write_row(x2, ones);
  sa_.write_row(x3, ones);
  sa_.aap_tra_carry(x1, x2, x3, 12);  // latch ← all ones
  sa_.write_row(x1, ones);
  sa_.write_row(x2, ones);
  sa_.sum_cycle(x1, x2, 14);
  EXPECT_TRUE(sa_.peek_row(14).all());
  // The latch is consumed, not cleared: a second sum sees it again.
  EXPECT_TRUE(sa_.peek_latch().all());
  BitVector zeros(64);
  sa_.write_row(x1, zeros);
  sa_.write_row(x2, zeros);
  sa_.sum_cycle(x1, x2, 15);
  EXPECT_TRUE(sa_.peek_row(15).all());  // 0 ⊕ 0 ⊕ 1 = 1
}

// Full carry ripple: all-ones + 1 = 0 with carry-out in every column — the
// longest possible carry chain through the vertical adder.
TEST(AddVerticalEdges, AllOnesPlusOneRipplesThroughEveryBit) {
  Subarray sa(small_geometry(), circuit::default_technology());
  const std::size_t cols = sa.geometry().columns;
  const std::size_t m = 12;
  std::vector<RowAddr> a_rows, b_rows, s_rows;
  BitVector ones(cols), zeros(cols);
  ones.fill(true);
  for (std::size_t bit = 0; bit < m; ++bit) {
    sa.write_row(bit, ones);                      // a = 2^m - 1
    sa.write_row(16 + bit, bit == 0 ? ones : zeros);  // b = 1
    a_rows.push_back(bit);
    b_rows.push_back(16 + bit);
    s_rows.push_back(32 + bit);
  }
  sa.add_vertical(a_rows, b_rows, s_rows, 50);
  for (std::size_t bit = 0; bit < m; ++bit)
    EXPECT_TRUE(sa.peek_row(s_rows[bit]).none()) << "sum bit " << bit;
  EXPECT_TRUE(sa.peek_row(50).all());  // carry-out in every column
}

// All-ones + all-ones: sum = 2^m+1 - 2, i.e. bit 0 clear, bits 1..m-1 set,
// carry-out set — exercises simultaneous generate+propagate in every stage.
TEST(AddVerticalEdges, AllOnesPlusAllOnes) {
  Subarray sa(small_geometry(), circuit::default_technology());
  const std::size_t cols = sa.geometry().columns;
  const std::size_t m = 12;
  std::vector<RowAddr> a_rows, b_rows, s_rows;
  BitVector ones(cols);
  ones.fill(true);
  for (std::size_t bit = 0; bit < m; ++bit) {
    sa.write_row(bit, ones);
    sa.write_row(16 + bit, ones);
    a_rows.push_back(bit);
    b_rows.push_back(16 + bit);
    s_rows.push_back(32 + bit);
  }
  sa.add_vertical(a_rows, b_rows, s_rows, 50);
  EXPECT_TRUE(sa.peek_row(s_rows[0]).none());
  for (std::size_t bit = 1; bit < m; ++bit)
    EXPECT_TRUE(sa.peek_row(s_rows[bit]).all()) << "sum bit " << bit;
  EXPECT_TRUE(sa.peek_row(50).all());
}

TEST(AddVerticalErrors, MismatchedSpansThrow) {
  Subarray sa(small_geometry(), circuit::default_technology());
  EXPECT_THROW(sa.add_vertical({1, 2}, {3}, {4, 5}, 6),
               pima::PreconditionError);
  EXPECT_THROW(sa.add_vertical({}, {}, {}, 6), pima::PreconditionError);
}

// The per-kind cost tables cached at construction equal the cost model
// exactly, for the default technology and for perturbed ones with
// non-round timings and energies, at widths on and off the 64-bit grid.
TEST(SubarrayCostTables, EqualCommandCostModelExactly) {
  std::vector<circuit::Technology> techs{circuit::default_technology()};
  circuit::Technology slow = circuit::default_technology();
  slow.timing.t_ras_ns = 41.3;
  slow.timing.t_rp_ns = 14.999;
  slow.timing.t_bl_ns = 2.5;
  slow.energy.e_activate_pj = 101.7;
  slow.energy.e_multirow_extra_pj = 31.1;
  slow.energy.e_read_col_pj = 1.9;
  techs.push_back(slow);
  circuit::Technology lean = slow;
  lean.timing.t_rcd_ns = 11.1;
  lean.energy.e_dpu_pj = 0.3;
  lean.energy.e_write_col_pj = 3.33;
  techs.push_back(lean);
  for (const auto& tech : techs) {
    for (const std::size_t cols : {37u, 64u, 256u, 1000u}) {
      Geometry g = small_geometry();
      g.columns = cols;
      const Subarray sa(g, tech);
      for (std::size_t k = 0; k < kCommandKindCount; ++k) {
        const auto kind = static_cast<CommandKind>(k);
        EXPECT_EQ(sa.latency_ns(kind), command_latency_ns(kind, tech.timing))
            << to_string(kind) << " cols " << cols;
        EXPECT_EQ(sa.energy_pj(kind),
                  command_energy_pj(kind, cols, tech.energy))
            << to_string(kind) << " cols " << cols;
      }
    }
  }
}

// A zero-rate fault injector injects nothing but forces the fused kernels
// onto their per-command path, so the pair below is an exact differential
// between the fused and the primitive-by-primitive execution.
std::shared_ptr<FaultInjector> zero_rate_injector(const Geometry& g) {
  return std::make_shared<FaultInjector>(
      std::make_shared<const FaultModel>(circuit::TechParams{},
                                         FaultConfig{}),
      0, g);
}

void expect_same_state(const Subarray& a, const Subarray& b) {
  for (RowAddr r = 0; r < a.geometry().rows; ++r)
    ASSERT_EQ(a.peek_row(r), b.peek_row(r)) << "row " << r;
  EXPECT_EQ(a.peek_latch(), b.peek_latch());
  for (std::size_t k = 0; k < kCommandKindCount; ++k)
    EXPECT_EQ(a.stats().counts[k], b.stats().counts[k]) << k;
  EXPECT_EQ(a.stats().busy_ns, b.stats().busy_ns);
  EXPECT_EQ(a.stats().energy_pj, b.stats().energy_pj);
}

TEST(SubarrayFusedKernels, MatchPerCommandSequenceIncludingAliases) {
  for (const std::size_t cols : {64u, 100u, 256u}) {
    Geometry g = small_geometry();
    g.columns = cols;
    Subarray fused(g, circuit::default_technology());
    Subarray stepped(g, circuit::default_technology());
    stepped.attach_fault_injector(zero_rate_injector(g));
    TraceSink fused_trace, stepped_trace;
    fused.attach_trace(&fused_trace);
    stepped.attach_trace(&stepped_trace);

    Rng rng(500 + cols);
    const std::size_t data = g.data_rows();
    for (RowAddr r = 0; r < 8; ++r) {
      const auto bits = random_row(rng, cols);
      fused.write_row(r, bits);
      stepped.write_row(r, bits);
    }
    for (int step = 0; step < 200; ++step) {
      // Operands from a small pool so duplicates (a == b, a == b == c) are
      // frequent; dst may alias an operand or a computation row.
      const RowAddr a = rng.uniform(10), b = rng.uniform(10),
                    c = step % 7 == 0 ? a : rng.uniform(10);
      const RowAddr dst = step % 5 == 0   ? a
                          : step % 11 == 0 ? fused.compute_row(rng.uniform(3))
                                           : rng.uniform(data);
      if (step % 2 == 0) {
        fused.xor3_rows(a, b, c, dst);
        stepped.xor3_rows(a, b, c, dst);
      } else {
        fused.maj3_rows(a, b, c, dst);
        stepped.maj3_rows(a, b, c, dst);
      }
    }
    expect_same_state(fused, stepped);
    EXPECT_EQ(fused_trace.to_csv(), stepped_trace.to_csv());
    EXPECT_EQ(to_text(program_from_trace(fused_trace.entries(), 0, cols)),
              to_text(program_from_trace(stepped_trace.entries(), 0, cols)));
  }
}

TEST(SubarrayFusedKernels, RejectComputationRowOperands) {
  Subarray sa(small_geometry(), circuit::default_technology());
  const auto x1 = sa.compute_row(0), x4 = sa.compute_row(3);
  EXPECT_THROW(sa.xor3_rows(x1, 1, 2, 3), pima::PreconditionError);
  EXPECT_THROW(sa.xor3_rows(1, 2, x4, 3), pima::PreconditionError);
  EXPECT_THROW(sa.maj3_rows(1, x1, 2, 3), pima::PreconditionError);
  EXPECT_THROW(sa.maj3_rows(1, 2, 3, 64), pima::PreconditionError);
  EXPECT_EQ(sa.stats().total_commands(), 0u);  // checked before any command
}

// Cross-validation: the word-parallel functional kernels must agree with
// the analog SenseAmp model bit-for-bit on random rows.
TEST(SubarrayCrossValidation, FunctionalMatchesAnalogModel) {
  Subarray sa(small_geometry(), circuit::default_technology());
  circuit::SenseAmp analog(circuit::default_technology().tech);
  Rng rng(2024);
  const std::size_t cols = sa.geometry().columns;
  const auto a = random_row(rng, cols);
  const auto b = random_row(rng, cols);
  const auto c = random_row(rng, cols);

  const auto x1 = sa.compute_row(0), x2 = sa.compute_row(1),
             x3 = sa.compute_row(2);
  sa.write_row(x1, a);
  sa.write_row(x2, b);
  sa.aap_xnor(x1, x2, 10);
  for (std::size_t i = 0; i < cols; ++i)
    EXPECT_EQ(sa.peek_row(10).get(i), analog.xnor2(a.get(i), b.get(i)));

  sa.write_row(x1, a);
  sa.write_row(x2, b);
  sa.write_row(x3, c);
  sa.aap_tra_carry(x1, x2, x3, 11);
  for (std::size_t i = 0; i < cols; ++i)
    EXPECT_EQ(sa.peek_row(11).get(i),
              analog.carry(a.get(i), b.get(i), c.get(i)));
}

}  // namespace
}  // namespace pima::dram
