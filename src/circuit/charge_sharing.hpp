// Charge-sharing solver for multi-row activation.
//
// When k computation rows are activated simultaneously onto a precharged
// bit-line, the cell capacitors and the bit-line parasitic equalize:
//
//   V_bl = (C_bl·Vdd/2 + n·C_cell·Vdd) / (C_bl + k·C_cell)
//
// where n ≤ k is the number of activated cells storing '1'. The paper's
// simplified expression Vi = n·Vdd/C (C = number of unit capacitors) is the
// C_bl→0 limit; we keep the full form, whose bit-line term sets the sense
// margins (the Monte-Carlo engine solves the same equation per trial with
// perturbed capacitances and cell voltages).
#pragma once

#include "circuit/tech.hpp"

namespace pima::circuit {

/// Result of one multi-row charge-sharing event.
struct ChargeShareResult {
  double v_bl;        ///< settled bit-line voltage (V)
  double v_bl_frac;   ///< as a fraction of Vdd
};

/// Nominal charge sharing: k activated cells, n of them storing '1'.
ChargeShareResult share_nominal(const TechParams& tech, int k, int n);

/// Ideal inverter threshold decision: output bit of an inverter with
/// switching voltage `vs` (V) driven by `vin` (V). Output is logic NOT of
/// (vin > vs).
bool inverter_out(double vin, double vs);

}  // namespace pima::circuit
