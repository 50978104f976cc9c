// Stochastic fault model for in-array computation (paper Table I, made
// executable).
//
// The paper quantifies sensing-failure rates of the Ambit-style triple-row
// activation vs PIM-Assembler's two-row activation under ±5%…±30% process
// variation with 10,000 Spectre Monte-Carlo trials per point. This module
// turns those rates into a behavioural fault process the functional
// simulator can inject:
//
//   * FaultModel calibrates per-operation, per-column sensing-error
//     probabilities by running the same Monte-Carlo used for Table I
//     (circuit::run_variation_trials) at the configured variation level.
//     TRA errors dominate two-row errors structurally — the 3-cell charge
//     share has strictly smaller margins — and the calibrated rates carry
//     that asymmetry into the architecture layer.
//   * A small fraction of computation rows are "weak" (persistently
//     degraded cells): multi-row activations touching them fail at an
//     elevated rate. This is what the runtime's row-remapping recovery is
//     for.
//   * An optional retention process flips stored data-row cells between
//     accesses (variable-retention-time / particle-strike model).
//
// Each sub-array owns a FaultInjector with an RNG stream forked
// deterministically from (seed, flat sub-array index). Because every
// sub-array's command sequence is identical for any channel count (the
// runtime's determinism contract), the injected fault sequence — and hence
// every faulty run — is reproducible from the seed alone, serial or
// parallel.
//
// A default-constructed FaultConfig (variation = 0, retention = 0) is
// fault-free: no injector is attached and the simulator is bit-identical
// to the un-instrumented build.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "circuit/tech.hpp"
#include "common/bitvector.hpp"
#include "common/rng.hpp"
#include "dram/command.hpp"
#include "dram/geometry.hpp"

namespace pima::dram {

struct FaultConfig {
  /// Process-variation level as a fraction (0.10 = ±10%). 0 disables
  /// sensing faults.
  double variation = 0.0;
  /// Master seed of every fault stream; echoed by the CLI so any faulty
  /// run can be reproduced exactly.
  std::uint64_t seed = 2020;
  /// Monte-Carlo trials used to calibrate the per-op error rates from the
  /// Table I model (more trials = tighter rate estimate).
  std::size_t calibration_trials = 4000;
  /// Probability per executed command of one retention flip in a stored
  /// data-row cell. 0 disables the retention process.
  double retention_flip_per_op = 0.0;
  /// Fraction of computation rows that are persistently weak; an
  /// activation touching one fails 50 times as often.
  double weak_row_fraction = 0.0;
  /// Global rate scale (accelerated-test knob for experiments; 1 = as
  /// calibrated).
  double rate_multiplier = 1.0;

  bool enabled() const {
    return variation > 0.0 || retention_flip_per_op > 0.0;
  }
};

/// Immutable per-device fault-rate table, calibrated once from the
/// Monte-Carlo variation model and shared by every sub-array's injector.
class FaultModel {
 public:
  FaultModel(const circuit::TechParams& tech, const FaultConfig& config);

  const FaultConfig& config() const { return config_; }

  /// Per-column probability that one execution of `k` senses the wrong
  /// value (0 for commands with no multi-row activation).
  double column_error(CommandKind k) const;

  double tra_column_error() const { return tra_rate_; }
  double two_row_column_error() const { return two_row_rate_; }

 private:
  FaultConfig config_;
  double tra_rate_ = 0.0;      ///< per column, per TRA
  double two_row_rate_ = 0.0;  ///< per column, per 2-row activation
};

/// Counters of what an injector actually did (ground truth for the
/// recovery layer's detection accounting).
struct InjectionCounters {
  std::size_t compute_flips = 0;    ///< corrupted result columns
  std::size_t retention_flips = 0;  ///< decayed stored cells
  std::size_t faulty_ops = 0;       ///< ops with >= 1 corrupted column

  std::size_t total_flips() const { return compute_flips + retention_flips; }
};

/// Per-sub-array fault process. Owned by the sub-array; the RNG stream is
/// forked from (config.seed, subarray_flat) so the sequence of injected
/// faults depends only on the sub-array's own command sequence.
class FaultInjector {
 public:
  FaultInjector(std::shared_ptr<const FaultModel> model,
                std::size_t subarray_flat, const Geometry& geometry);

  /// Corrupts the sensed result of a multi-row activation in place.
  /// `activated` are the activated row addresses (weak rows raise the
  /// rate). Returns the number of flipped columns.
  std::size_t corrupt_activation(CommandKind kind,
                                 std::initializer_list<RowAddr> activated,
                                 BitVector& result);

  /// One retention tick (called per executed command): with probability
  /// config.retention_flip_per_op picks a stored data-row cell to flip.
  /// Returns the target, or nothing this tick.
  struct CellAddr {
    RowAddr row;
    std::size_t col;
  };
  std::optional<CellAddr> retention_target();

  bool is_weak_row(RowAddr r) const;
  const InjectionCounters& counters() const { return counters_; }
  const FaultModel& model() const { return *model_; }

 private:
  std::shared_ptr<const FaultModel> model_;
  Geometry geom_;
  Rng rng_;
  std::vector<bool> weak_compute_rows_;  ///< indexed by compute-row offset
  InjectionCounters counters_;
};

}  // namespace pima::dram
