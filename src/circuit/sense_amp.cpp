#include "circuit/sense_amp.hpp"

namespace pima::circuit {

DetectorThresholds design_thresholds(const TechParams& tech) {
  // Two-row activation produces three nominal levels (n ∈ {0,1,2} cells
  // storing '1'); place the NOR/NAND detector thresholds midway between
  // adjacent levels for maximum noise margin. The regular SA reference sits
  // at the TRA majority point, midway between the n=1 and n=2 levels of a
  // three-cell share (= Vdd/2 by symmetry).
  const double v0 = share_nominal(tech, 2, 0).v_bl;
  const double v1 = share_nominal(tech, 2, 1).v_bl;
  const double v2 = share_nominal(tech, 2, 2).v_bl;
  const double t1 = share_nominal(tech, 3, 1).v_bl;
  const double t2 = share_nominal(tech, 3, 2).v_bl;
  return {(v0 + v1) / 2.0, (v1 + v2) / 2.0, (t1 + t2) / 2.0};
}

SenseAmp::TwoRowOutputs SenseAmp::sense_two_row(double v_bl) const {
  // Low-Vs inverter: output high only when the shared level is below the
  // lower threshold, i.e. both cells stored '0' ⇒ NOR2. High-Vs inverter:
  // output high unless both cells stored '1' ⇒ NAND2. The add-on AND gate
  // with one inverted input combines them into XOR2 = NAND2 ∧ ¬NOR2.
  const bool nor2 = inverter_out(v_bl, th_.low_vs);
  const bool nand2 = inverter_out(v_bl, th_.high_vs);
  const bool xor2 = nand2 && !nor2;
  return {nor2, nand2, xor2, !xor2};
}

bool SenseAmp::xnor2(bool di, bool dj) const {
  const int n = static_cast<int>(di) + static_cast<int>(dj);
  const double v = share_nominal(tech_, 2, n).v_bl;
  return sense_two_row(v).xnor2;
}

bool SenseAmp::sense_carry(double v_bl) {
  // Regular differential SA amplifies the deviation from its reference:
  // a three-cell share above the majority point means at least two '1's.
  latch_ = !inverter_out(v_bl, th_.normal_vs);
  return latch_;
}

}  // namespace pima::circuit
