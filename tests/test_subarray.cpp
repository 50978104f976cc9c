#include "dram/subarray.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "circuit/sense_amp.hpp"
#include "common/rng.hpp"
#include "dram/fault.hpp"
#include "dram/isa.hpp"

namespace pima::dram {
namespace {

bool all_set(const BitVector& v) { return v.all_ones_prefix(v.size()); }
bool none_set(const BitVector& v) { return v.popcount_range(0, v.size()) == 0; }

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
  EXPECT_TRUE(all_set(sa_.peek_latch()));
  sa_.reset_latch();
  EXPECT_TRUE(none_set(sa_.peek_latch()));
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
  EXPECT_EQ(result.popcount_range(0, result.size()), 63u);
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
  EXPECT_TRUE(all_set(sa_.peek_row(14)));
  // The latch is consumed, not cleared: a second sum sees it again.
  EXPECT_TRUE(all_set(sa_.peek_latch()));
  BitVector zeros(64);
  sa_.write_row(x1, zeros);
  sa_.write_row(x2, zeros);
  sa_.sum_cycle(x1, x2, 15);
  EXPECT_TRUE(all_set(sa_.peek_row(15)));  // 0 ⊕ 0 ⊕ 1 = 1
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
    EXPECT_TRUE(none_set(sa.peek_row(s_rows[bit]))) << "sum bit " << bit;
  EXPECT_TRUE(all_set(sa.peek_row(50)));  // carry-out in every column
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
  EXPECT_TRUE(none_set(sa.peek_row(s_rows[0])));
  for (std::size_t bit = 1; bit < m; ++bit)
    EXPECT_TRUE(all_set(sa.peek_row(s_rows[bit]))) << "sum bit " << bit;
  EXPECT_TRUE(all_set(sa.peek_row(50)));
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

// A fused and a stepped sub-array with the same random contents in data
// rows 0..7, both traced.
struct FusedPair {
  explicit FusedPair(const Geometry& g)
      : fused(g, circuit::default_technology()),
        stepped(g, circuit::default_technology()) {
    stepped.attach_fault_injector(zero_rate_injector(g));
    fused.attach_trace(&fused_trace);
    stepped.attach_trace(&stepped_trace);
  }
  void fill(Rng& rng) {
    for (RowAddr r = 0; r < 8; ++r) {
      const auto bits = random_row(rng, fused.geometry().columns);
      fused.write_row(r, bits);
      stepped.write_row(r, bits);
    }
  }
  void compress(const std::vector<RowAddr>& a, const std::vector<RowAddr>& b,
                const std::vector<RowAddr>& c, RowAddr pad,
                const std::vector<RowAddr>& sum,
                const std::vector<RowAddr>& carry) {
    fused.compress(a, b, c, pad, sum, carry);
    stepped.compress(a, b, c, pad, sum, carry);
  }
  void expect_same() const {
    expect_same_state(fused, stepped);
    EXPECT_EQ(to_text(fused_trace), to_text(stepped_trace));
  }

  Subarray fused, stepped;
  Program fused_trace, stepped_trace;
};

TEST(SubarrayFusedKernels, MatchPerCommandSequenceIncludingAliases) {
  for (const std::size_t cols : {64u, 100u, 256u}) {
    Geometry g = small_geometry();
    g.columns = cols;
    FusedPair pair(g);
    Rng rng(500 + cols);
    pair.fill(rng);
    const std::size_t data = g.data_rows();
    // Operands from a small pool so duplicates (a == b, a == b == c) are
    // frequent; a result row may alias an operand, the pad row, another
    // result row or a computation row.
    const auto result_row = [&]() -> RowAddr {
      const auto roll = rng.uniform(10);
      if (roll < 4) return rng.uniform(10);
      if (roll == 4) return pair.fused.compute_row(rng.uniform(3));
      return rng.uniform(data);
    };
    for (int step = 0; step < 200; ++step) {
      if (step % 2 == 0) {
        const std::size_t w = 1 + rng.uniform(3);
        std::vector<RowAddr> ops[3], sum(w), carry(w);
        for (auto& op : ops) {
          op.resize(rng.uniform(w + 1));
          for (auto& r : op) r = rng.uniform(10);
        }
        for (auto& r : sum) r = result_row();
        for (auto& r : carry) r = result_row();
        pair.compress(ops[0], ops[1], ops[2], rng.uniform(10), sum, carry);
      } else {
        // The probe's match bit must agree at any reduce width.
        const RowAddr a = rng.uniform(10), b = rng.uniform(10);
        const std::size_t width = rng.uniform(cols + 1);
        const RowAddr dst = result_row();
        EXPECT_EQ(pair.fused.xnor_match(a, b, dst, width),
                  pair.stepped.xnor_match(a, b, dst, width))
            << "step " << step << " width " << width;
      }
    }
    pair.expect_same();
  }
}

// The degree kernel's use: three numbers of widths up to w in disjoint
// rows, narrower ones padded with an all-zero row, into fresh result rows.
// Per column, sum + 2·carry must equal a + b + c.
TEST(SubarrayFusedKernels, CompressWidthsOneToNineWithZeroPadding) {
  Geometry g = small_geometry();
  g.rows = 128;
  g.columns = 100;
  for (std::size_t w = 1; w <= 9; ++w) {
    SCOPED_TRACE(w);
    FusedPair pair(g);
    Rng rng(700 + w);
    RowAddr next = 1;  // row 0 is the zero pad
    std::vector<RowAddr> ops[3], sum(w), carry(w);
    for (std::size_t k = 0; k < 3; ++k) {
      // Widths w, w - 1 and w / 2: zero-width operands read only the pad.
      ops[k].resize(k == 0 ? w : k == 1 ? w - 1 : w / 2);
      for (auto& r : ops[k]) {
        r = next++;
        const auto bits = random_row(rng, g.columns);
        pair.fused.write_row(r, bits);
        pair.stepped.write_row(r, bits);
      }
    }
    for (auto& r : sum) r = next++;
    for (auto& r : carry) r = next++;
    const std::size_t before = pair.fused.stats().total_commands();
    pair.compress(ops[0], ops[1], ops[2], 0, sum, carry);
    pair.expect_same();
    EXPECT_EQ(pair.fused.stats().total_commands() - before, 9 * w);

    const auto value = [&](const std::vector<RowAddr>& rows, std::size_t col) {
      std::uint64_t v = 0;
      for (std::size_t i = 0; i < rows.size(); ++i)
        v |= std::uint64_t{pair.fused.peek_row(rows[i]).get(col)} << i;
      return v;
    };
    for (std::size_t col = 0; col < g.columns; ++col)
      ASSERT_EQ(value(sum, col) + 2 * value(carry, col),
                value(ops[0], col) + value(ops[1], col) + value(ops[2], col))
          << "column " << col;
    EXPECT_EQ(pair.fused.peek_latch(), pair.fused.peek_row(carry.back()));
  }
}

TEST(SubarrayFusedKernels, RejectComputationRowOperands) {
  Subarray sa(small_geometry(), circuit::default_technology());
  const RowAddr x1 = sa.compute_row(0), x4 = sa.compute_row(3);
  using Rows = std::vector<RowAddr>;
  const Rows one{1}, two{2}, out{3}, out2{4};
  EXPECT_THROW(sa.compress(Rows{x1}, one, two, 5, out, out2),
               pima::PreconditionError);
  EXPECT_THROW(sa.compress(one, two, Rows{x4}, 5, out, out2),
               pima::PreconditionError);
  EXPECT_THROW(sa.compress(one, two, Rows{6}, x1, out, out2),
               pima::PreconditionError);
  // A bad row in the last bit is caught before the first bit runs.
  EXPECT_THROW(sa.compress(one, two, Rows{6}, 5, Rows{3, 7}, Rows{4, 64}),
               pima::PreconditionError);
  EXPECT_THROW(sa.compress(one, two, Rows{6}, 5, Rows{3, 64}, Rows{4, 8}),
               pima::PreconditionError);
  EXPECT_THROW(sa.compress(one, two, Rows{6}, 5, Rows{3, 7}, out2),
               pima::PreconditionError);  // sum and carry widths differ
  EXPECT_THROW(sa.compress(Rows{1, 2}, two, Rows{6}, 5, out, out2),
               pima::PreconditionError);  // operand wider than the result
  EXPECT_THROW((void)sa.xnor_match(x1, 1, x4, 8), pima::PreconditionError);
  EXPECT_THROW((void)sa.xnor_match(1, 2, 64, 8), pima::PreconditionError);
  EXPECT_THROW((void)sa.xnor_match(1, 2, x4, sa.geometry().columns + 1),
               pima::PreconditionError);
  EXPECT_EQ(sa.stats().total_commands(), 0u);  // checked before any command
}

// Cross-validation: the word-parallel functional kernels must agree with
// the analog SenseAmp model bit-for-bit on random rows.
TEST(SubarrayCrossValidation, FunctionalMatchesAnalogModel) {
  Subarray sa(small_geometry(), circuit::default_technology());
  const circuit::TechParams& tech = circuit::default_technology().tech;
  circuit::SenseAmp analog(tech);
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
  for (std::size_t i = 0; i < cols; ++i) {
    const int ones = static_cast<int>(a.get(i)) + static_cast<int>(b.get(i)) +
                     static_cast<int>(c.get(i));
    EXPECT_EQ(sa.peek_row(11).get(i),
              analog.sense_carry(circuit::share_nominal(tech, 3, ones).v_bl));
  }
}

}  // namespace
}  // namespace pima::dram
