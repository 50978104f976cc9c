// Behavioural model of the PIM-Assembler reconfigurable sense amplifier
// (paper Fig. 2a).
//
// The SA is a regular DRAM sense amplifier augmented with: two shifted-VTC
// inverters (low-Vs ⇒ NOR2 threshold detector, high-Vs ⇒ NAND2), a CMOS AND
// gate with one inverted input (⇒ XOR2), an XOR gate plus D-latch for the
// addition datapath, and a 4:1 MUX that selects what drives the bit-line
// during sense amplification. Five enable signals (Enm, Enx, Enmux, Enc1,
// Enc2) configure the mode per the control table in Fig. 2a.
//
// This model is the single source of truth for the analog behaviour: the
// functional DRAM model's word-parallel kernels are validated against it
// bit-by-bit in tests, and the Monte-Carlo engine perturbs its parameters.
#pragma once

#include "circuit/charge_sharing.hpp"
#include "circuit/tech.hpp"

namespace pima::circuit {

/// Detector thresholds designed for this technology (see tech.hpp note):
/// midpoints between adjacent nominal charge-sharing levels.
struct DetectorThresholds {
  double low_vs;     ///< V, low-Vs inverter (NOR detector, 2-row levels)
  double high_vs;    ///< V, high-Vs inverter (NAND detector, 2-row levels)
  double normal_vs;  ///< V, regular SA reference (TRA majority point)
};

DetectorThresholds design_thresholds(const TechParams& tech);

/// One sense amplifier instance with a carry latch.
class SenseAmp {
 public:
  explicit SenseAmp(const TechParams& tech)
      : tech_(tech), th_(design_thresholds(tech)) {}

  /// Construct with explicit (e.g. Monte-Carlo perturbed) thresholds.
  SenseAmp(const TechParams& tech, const DetectorThresholds& th)
      : tech_(tech), th_(th) {}

  /// Evaluates the two-row activation datapath from a settled bit-line
  /// voltage: returns {nor2, nand2, xor2, xnor2} as seen at the gates.
  struct TwoRowOutputs {
    bool nor2, nand2, xor2, xnor2;
  };
  TwoRowOutputs sense_two_row(double v_bl) const;

  /// Convenience: logic-level two-row XNOR of two stored bits through the
  /// full analog path (charge share → detectors → gates).
  bool xnor2(bool di, bool dj) const;

  /// Evaluates the TRA (triple-row activation) majority from the settled
  /// bit-line voltage and latches it as the carry.
  bool sense_carry(double v_bl);

  bool latched_carry() const { return latch_; }
  void reset_latch() { latch_ = false; }

  const DetectorThresholds& thresholds() const { return th_; }

 private:
  TechParams tech_;
  DetectorThresholds th_;
  bool latch_ = false;
};

}  // namespace pima::circuit
