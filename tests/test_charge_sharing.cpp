#include "circuit/charge_sharing.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace pima::circuit {
namespace {

TEST(ChargeSharing, MonotoneInOnesCount) {
  const TechParams tech{};
  double prev = -1.0;
  for (int n = 0; n <= 3; ++n) {
    const auto r = share_nominal(tech, 3, n);
    EXPECT_GT(r.v_bl, prev);
    prev = r.v_bl;
  }
}

TEST(ChargeSharing, MidpointIsHalfVdd) {
  const TechParams tech{};
  // One '1' of two cells: symmetric around the precharge level.
  EXPECT_NEAR(share_nominal(tech, 2, 1).v_bl_frac, 0.5, 1e-12);
}

TEST(ChargeSharing, TwoRowLevelsSymmetric) {
  const TechParams tech{};
  const double v0 = share_nominal(tech, 2, 0).v_bl_frac;
  const double v2 = share_nominal(tech, 2, 2).v_bl_frac;
  EXPECT_NEAR(v0 + v2, 1.0, 1e-12);
}

TEST(ChargeSharing, TraMajorityPointIsHalfVdd) {
  const TechParams tech{};
  const double v1 = share_nominal(tech, 3, 1).v_bl_frac;
  const double v2 = share_nominal(tech, 3, 2).v_bl_frac;
  EXPECT_NEAR((v1 + v2) / 2.0, 0.5, 1e-12);
}

TEST(ChargeSharing, PaperLimitWithoutBitline) {
  // With C_bl → 0 the paper's Vi = n·Vdd/C expression must emerge.
  TechParams tech{};
  tech.bitline_cap_ff = 1e-9;
  for (int n = 0; n <= 2; ++n)
    EXPECT_NEAR(share_nominal(tech, 2, n).v_bl_frac, n / 2.0, 1e-6);
  for (int n = 0; n <= 3; ++n)
    EXPECT_NEAR(share_nominal(tech, 3, n).v_bl_frac, n / 3.0, 1e-6);
}

TEST(ChargeSharing, TraMarginSmallerThanTwoRow) {
  // The structural reason two-row activation tolerates more variation
  // (paper Table I): adjacent-level separation shrinks with more cells.
  const TechParams tech{};
  const double sep2 = share_nominal(tech, 2, 1).v_bl -
                      share_nominal(tech, 2, 0).v_bl;
  const double sep3 = share_nominal(tech, 3, 1).v_bl -
                      share_nominal(tech, 3, 0).v_bl;
  EXPECT_GT(sep2, sep3);
}

TEST(ChargeSharing, InvalidArgumentsThrow) {
  const TechParams tech{};
  EXPECT_THROW(share_nominal(tech, 0, 0), PreconditionError);
  EXPECT_THROW(share_nominal(tech, 2, 3), PreconditionError);
  EXPECT_THROW(share_nominal(tech, 2, -1), PreconditionError);
}

TEST(InverterOut, ThresholdDecision) {
  EXPECT_TRUE(inverter_out(0.2, 0.5));
  EXPECT_FALSE(inverter_out(0.8, 0.5));
  EXPECT_TRUE(inverter_out(0.5, 0.5));  // boundary: at/below → high
}

}  // namespace
}  // namespace pima::circuit
