// Technology and timing constants for the 45 nm-class DRAM process.
//
// The paper characterizes its sub-array in Cadence Spectre with the NCSU
// FreePDK45 kit and scales DRAM cell parameters from the Rambus power model.
// We carry the corresponding behavioural constants here: nominal voltages,
// capacitances for the charge-sharing solver, DDR-class command timings, and
// per-command energies used by the architecture-level accounting. Values are
// representative of published 45 nm DDR3/DDR4 characterizations (Ambit,
// DRISA and the Rambus model report figures in these ranges); EXPERIMENTS.md
// notes where a constant was calibrated.
#pragma once

namespace pima::circuit {

/// Static process/voltage parameters of the modelled DRAM.
struct TechParams {
  double vdd = 1.2;              ///< V, array supply
  double cell_cap_ff = 22.0;     ///< fF, storage cell capacitor (Cs)
  double bitline_cap_ff = 85.0;  ///< fF, bit-line parasitic (Cwbl+Ccross+Cs)
  /// Small-signal gain of the inverter around its switching point; only the
  /// sign of (Vin - Vs) matters for logic, the gain shapes transients.
  ///
  /// Note on detector thresholds: the paper's idealized model (Vi = n·Vdd/C)
  /// places the low-Vs/high-Vs inverter switching points at Vdd/4 and
  /// 3Vdd/4. With a finite bit-line capacitance the charge-shared levels
  /// compress toward Vdd/2, so SenseAmp designs its actual thresholds as
  /// midpoints between adjacent nominal levels (which reduces to Vdd/4 and
  /// 3Vdd/4 in the C_bl → 0 limit the paper assumes).
  double inverter_gain = 25.0;
};

/// DRAM command timing (ns) — DDR4-2133-class, matching the paper's CPU
/// memory configuration.
struct TimingParams {
  double t_rcd_ns = 13.75;  ///< ACTIVATE to column access
  double t_ras_ns = 35.0;   ///< ACTIVATE to PRECHARGE (row cycle floor)
  double t_rp_ns = 13.75;   ///< PRECHARGE duration
  double t_cl_ns = 13.75;   ///< CAS latency (column read)
  double t_bl_ns = 3.75;    ///< burst transfer of one column chunk
  /// One AAP (ACTIVATE-ACTIVATE-PRECHARGE) primitive. Ambit reports AAP ≈
  /// 2×tRAS + tRP using back-to-back activates within the row cycle.
  double aap_ns() const { return 2.0 * t_ras_ns + t_rp_ns; }
};

/// Per-command energies (pJ) for a 256-column sub-array row operation,
/// derived from the Rambus DRAM power model scaled to 45 nm (same source as
/// the paper). Energy scales linearly with activated width.
struct EnergyParams {
  double e_activate_pj = 90.0;    ///< one row ACTIVATE (row buffer fill)
  double e_precharge_pj = 50.0;   ///< one PRECHARGE
  double e_multirow_extra_pj = 25.0;  ///< extra per additional simultaneous row
  double e_sa_logic_pj = 6.0;     ///< add-on SA gates toggling, per row op
  double e_dpu_pj = 10.0;         ///< MAT-level DPU reduction, per row
  double e_read_col_pj = 2.5;     ///< column read through GRB, per 64 bits
  double e_write_col_pj = 2.8;    ///< column write, per 64 bits
  /// Background/static power of one active chip (W) for power roll-ups.
  double static_power_w = 0.35;
};

/// Bundled technology description.
struct Technology {
  TechParams tech;
  TimingParams timing;
  EnergyParams energy;
};

/// The default modelled technology (45 nm-class, DDR4-2133 timing).
inline const Technology& default_technology() {
  static const Technology t{};
  return t;
}

}  // namespace pima::circuit
