#include "circuit/sense_amp.hpp"

#include <gtest/gtest.h>

namespace pima::circuit {
namespace {

const TechParams kTech{};

// Carry cycle: a triple-row activation of three stored bits, sensed and
// latched as the carry.
bool carry(SenseAmp& sa, bool a, bool b, bool c) {
  const int n = static_cast<int>(a) + static_cast<int>(b) + static_cast<int>(c);
  return sa.sense_carry(share_nominal(kTech, 3, n).v_bl);
}

// Sum cycle: the two-row XOR of the operand bits at the add-on gates,
// XORed with the latched carry (sum = a ⊕ b ⊕ c_in). Leaves the latch.
bool sum(const SenseAmp& sa, bool a, bool b) {
  const int n = static_cast<int>(a) + static_cast<int>(b);
  return sa.sense_two_row(share_nominal(kTech, 2, n).v_bl).xor2 !=
         sa.latched_carry();
}

TEST(SenseAmp, DesignedThresholdsOrdered) {
  const TechParams tech{};
  const auto th = design_thresholds(tech);
  EXPECT_LT(th.low_vs, th.normal_vs);
  EXPECT_LT(th.normal_vs, th.high_vs);
  EXPECT_NEAR(th.normal_vs, tech.vdd / 2.0, 1e-9);
}

TEST(SenseAmp, ThresholdsReduceToPaperIdealWithoutBitline) {
  TechParams tech{};
  tech.bitline_cap_ff = 1e-9;
  const auto th = design_thresholds(tech);
  EXPECT_NEAR(th.low_vs / tech.vdd, 0.25, 1e-6);   // paper: Vdd/4
  EXPECT_NEAR(th.high_vs / tech.vdd, 0.75, 1e-6);  // paper: 3Vdd/4
}

TEST(SenseAmp, Xnor2TruthTable) {
  SenseAmp sa(TechParams{});
  EXPECT_TRUE(sa.xnor2(false, false));
  EXPECT_FALSE(sa.xnor2(false, true));
  EXPECT_FALSE(sa.xnor2(true, false));
  EXPECT_TRUE(sa.xnor2(true, true));
}

TEST(SenseAmp, TwoRowGateOutputs) {
  const TechParams tech{};
  SenseAmp sa(tech);
  // n = 0 (both zero): NOR fires, NAND fires, XOR low.
  auto out = sa.sense_two_row(share_nominal(tech, 2, 0).v_bl);
  EXPECT_TRUE(out.nor2);
  EXPECT_TRUE(out.nand2);
  EXPECT_FALSE(out.xor2);
  EXPECT_TRUE(out.xnor2);
  // n = 1: NOR low, NAND high → XOR fires.
  out = sa.sense_two_row(share_nominal(tech, 2, 1).v_bl);
  EXPECT_FALSE(out.nor2);
  EXPECT_TRUE(out.nand2);
  EXPECT_TRUE(out.xor2);
  // n = 2: both detectors low.
  out = sa.sense_two_row(share_nominal(tech, 2, 2).v_bl);
  EXPECT_FALSE(out.nor2);
  EXPECT_FALSE(out.nand2);
  EXPECT_FALSE(out.xor2);
  EXPECT_TRUE(out.xnor2);
}

TEST(SenseAmp, CarryIsMajority) {
  SenseAmp sa(kTech);
  for (int mask = 0; mask < 8; ++mask) {
    const bool a = mask & 1, b = mask & 2, c = mask & 4;
    const bool expect = (static_cast<int>(a) + b + c) >= 2;
    EXPECT_EQ(carry(sa, a, b, c), expect) << "mask=" << mask;
    EXPECT_EQ(sa.latched_carry(), expect);
  }
}

TEST(SenseAmp, SumUsesLatchedCarry) {
  SenseAmp sa(kTech);
  sa.reset_latch();
  // carry=0: sum = a ⊕ b.
  EXPECT_FALSE(sum(sa, false, false));
  EXPECT_TRUE(sum(sa, true, false));
  // Latch a carry of 1 and re-check: sum = a ⊕ b ⊕ 1.
  carry(sa, true, true, false);
  ASSERT_TRUE(sa.latched_carry());
  EXPECT_TRUE(sum(sa, false, false));
  EXPECT_FALSE(sum(sa, true, false));
  sa.reset_latch();
  EXPECT_FALSE(sa.latched_carry());
}

// Full-adder property over all 8 input combinations: the paper's 2-cycle
// protocol (sum cycle consuming the previously latched carry, then TRA
// latching the next carry) must implement exact binary addition.
class FullAdder : public ::testing::TestWithParam<int> {};

TEST_P(FullAdder, TwoCycleProtocolMatchesAddition) {
  const int mask = GetParam();
  const bool a = mask & 1, b = mask & 2, cin = mask & 4;
  SenseAmp sa(kTech);
  // Cycle 0 of the previous bit latched cin.
  carry(sa, cin, cin, cin);  // MAJ(x,x,x) = x: loads the latch with cin
  ASSERT_EQ(sa.latched_carry(), cin);
  const bool s = sum(sa, a, b);
  const bool cout = carry(sa, a, b, cin);
  const int total = static_cast<int>(a) + static_cast<int>(b) +
                    static_cast<int>(cin);
  EXPECT_EQ(static_cast<int>(s), total & 1);
  EXPECT_EQ(static_cast<int>(cout), total >> 1);
}

INSTANTIATE_TEST_SUITE_P(AllInputs, FullAdder, ::testing::Range(0, 8));

// Multi-bit ripple addition through one SA: verifies the bit-serial
// protocol end-to-end for every pair of 4-bit operands.
class RippleAdd : public ::testing::TestWithParam<int> {};

TEST_P(RippleAdd, FourBitExhaustive) {
  const int x = GetParam() & 0xF, y = (GetParam() >> 4) & 0xF;
  SenseAmp sa(kTech);
  sa.reset_latch();
  bool carry_row = false;  // the paper keeps c_i in a compute row too
  int result = 0;
  for (int bit = 0; bit < 5; ++bit) {
    const bool ai = (x >> bit) & 1, bi = (y >> bit) & 1;
    const bool s = sum(sa, ai, bi);              // uses latched c_i
    const bool c = carry(sa, ai, bi, carry_row);  // latches c_{i+1}
    carry_row = c;
    result |= static_cast<int>(s) << bit;
  }
  EXPECT_EQ(result, x + y) << x << "+" << y;
}

INSTANTIATE_TEST_SUITE_P(AllPairs, RippleAdd, ::testing::Range(0, 256));

}  // namespace
}  // namespace pima::circuit
