#include "circuit/charge_sharing.hpp"

#include "common/error.hpp"

namespace pima::circuit {

ChargeShareResult share_nominal(const TechParams& tech, int k, int n) {
  PIMA_CHECK(k >= 1, "must activate at least one row");
  PIMA_CHECK(n >= 0 && n <= k, "ones count must be within activated rows");
  const double c_cells = static_cast<double>(k) * tech.cell_cap_ff;
  const double q = tech.bitline_cap_ff * tech.vdd * 0.5 +
                   static_cast<double>(n) * tech.cell_cap_ff * tech.vdd;
  const double v = q / (tech.bitline_cap_ff + c_cells);
  return {v, v / tech.vdd};
}

bool inverter_out(double vin, double vs) { return vin <= vs; }

}  // namespace pima::circuit
