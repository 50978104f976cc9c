// Unit conventions used across the simulator.
//
// All quantities are carried as doubles in fixed base units with suffixed
// variable/field names rather than wrapper types (the models do a lot of
// arithmetic that wrapper types would only obscure):
//   time    — nanoseconds   (ns)
//   energy  — picojoules    (pJ)
//   power   — watts         (W)
//   area    — square micrometers (um2)
//   voltage — volts         (V)
//   capacitance — femtofarads (fF)
// The helpers below convert between those base units and human-facing ones.
#pragma once

namespace pima {

constexpr double ns_to_s(double ns) { return ns * 1e-9; }
constexpr double pj_to_j(double pj) { return pj * 1e-12; }
constexpr double j_to_pj(double j) { return j * 1e12; }

/// Average power in watts from energy (pJ) over time (ns).
constexpr double power_watts(double energy_pj, double time_ns) {
  return time_ns > 0.0 ? (energy_pj * 1e-12) / (time_ns * 1e-9) : 0.0;
}

/// Throughput in operations/second from an op count over time (ns).
constexpr double ops_per_second(double ops, double time_ns) {
  return time_ns > 0.0 ? ops / (time_ns * 1e-9) : 0.0;
}

constexpr double GIGA = 1e9;
constexpr double MEGA = 1e6;
constexpr double KILO = 1e3;

}  // namespace pima
