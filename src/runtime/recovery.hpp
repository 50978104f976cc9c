// Fault-aware execution: verify-retry recovery over the stochastic fault
// process of dram::FaultInjector.
//
// Real in-array compute (Ambit-style TRA in particular) fails
// stochastically under process variation — the paper's Table I quantifies
// it. This layer keeps the platform producing correct results when the
// array misbehaves, at a measured latency/energy cost:
//
//   * Verify-after-op. The critical operation (the hash-probe row compare)
//     is executed through a RecoveryExecutor that
//     re-reads the driven result through the DPU path and checks it
//     against the controller's residual for the operation (the controller
//     staged both operands itself, so it holds enough redundancy to check
//     the result; the simulator implements the check as a golden
//     comparison, costed as one DPU_REDUCE readback).
//   * Bounded retry with exponential backoff. A detected mismatch
//     re-stages and re-executes, up to max_retries, waiting
//     kBackoffBaseNs · 2^attempt on the sub-array's command stream between
//     attempts (sensing faults are transient; backoff models the
//     controller's recovery window).
//   * Weak-row remapping. Failures are blamed on the computation rows the
//     op staged through; a row whose failure counter reaches
//     kWeakRowThreshold is remapped to a spare computation row for all
//     subsequent ops (persistently-weak cells stop hurting).
//   * Triple-execute-and-vote. RecoveryMode::kVote runs the op three times
//     and takes the per-column majority — the classic TMR-in-time
//     alternative to verify-retry.
//   * Graceful degradation. When a sub-array's detected-failure count
//     exceeds subarray_failure_budget, the executor stops trusting its
//     compute rows entirely: critical ops fall back to host-side recompute
//     through the global row buffer (costed as row reads + a row write)
//     and the pipeline keeps running instead of throwing.
//
// Every decision draws only on per-sub-array state, so fault-aware runs
// remain deterministic in (seed, command sequence) for any channel count;
// FaultStats counters are integral, so every fold of them is exact.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "dram/device.hpp"
#include "telemetry/metrics.hpp"

namespace pima::runtime {

enum class RecoveryMode {
  kOff,    ///< execute unverified (faults land in the results)
  kRetry,  ///< verify-after-op + bounded re-execution
  kVote,   ///< triple-execute-and-vote (TMR in time)
};

constexpr const char* to_string(RecoveryMode m) {
  switch (m) {
    case RecoveryMode::kOff: return "off";
    case RecoveryMode::kRetry: return "retry";
    case RecoveryMode::kVote: return "vote";
  }
  return "?";
}

/// Parses "off" / "retry" / "vote" (CLI flag values).
std::optional<RecoveryMode> parse_recovery_mode(std::string_view s);

/// Idle wait before retry k is kBackoffBaseNs · 2^k (exponential),
/// clamped to kBackoffCapNs.
inline constexpr double kBackoffBaseNs = 100.0;
/// Upper bound of one backoff wait. Without the clamp, large max_retries
/// values would shift the base past 2^63 (overflow) or park a sub-array
/// for absurd simulated aeons.
inline constexpr double kBackoffCapNs = 1e6;  // 1 ms of simulated time
/// Failures blamed on one computation row before it is remapped.
inline constexpr std::size_t kWeakRowThreshold = 4;

struct RecoveryOptions {
  RecoveryMode mode = RecoveryMode::kOff;
  /// Re-executions after the first detected failure of one op.
  std::size_t max_retries = 3;
  /// Detected failures on one sub-array before it degrades to host-side
  /// recompute for all further critical ops.
  std::size_t subarray_failure_budget = 256;
};

/// The backoff wait before retry `attempt`: kBackoffBaseNs · 2^attempt,
/// clamped to kBackoffCapNs (overflow-safe for any attempt count).
double recovery_backoff_ns(std::size_t attempt);

/// Recovery statistics of one executor, or rolled up.
struct FaultStats {
  std::size_t injected = 0;        ///< corrupted columns (ground truth)
  std::size_t detected = 0;        ///< verification mismatches
  std::size_t retried = 0;         ///< re-executions performed
  std::size_t remapped = 0;        ///< computation rows retired to spares
  std::size_t escaped = 0;         ///< accepted results that were wrong
  std::size_t vote_corrections = 0;///< vote-mode results fixed by majority
  std::size_t host_fallbacks = 0;  ///< ops recomputed host-side (degraded)
  std::size_t degraded_subarrays = 0;

  FaultStats& operator+=(const FaultStats& o);
  bool operator==(const FaultStats&) const = default;
};

inline FaultStats operator+(FaultStats a, const FaultStats& b) {
  a += b;
  return a;
}

/// Verified execution of critical in-array ops on one sub-array.
///
/// Thread compatibility mirrors the sub-array itself: an executor is
/// touched only by the channel owning its sub-array.
class RecoveryExecutor {
 public:
  RecoveryExecutor(dram::Subarray& subarray, const RecoveryOptions& options);

  /// Row-parallel compare of data rows a, b with per-column match bits
  /// into dst — the recovery-aware counterpart of Subarray::compare_rows,
  /// verified/voted per mode. dst must not be a staging row.
  void compare_rows(dram::RowAddr a, dram::RowAddr b, dram::RowAddr dst);

  /// True once the failure budget is blown: critical ops now recompute
  /// host-side.
  bool degraded() const { return degraded_; }
  const FaultStats& stats() const { return stats_; }
  const RecoveryOptions& options() const { return options_; }
  /// Staging row currently mapped for logical slot i (tests).
  std::size_t staging_row(std::size_t i) const { return staging_.at(i); }

 private:
  // Stages a and b into the mapped computation rows and runs the two-row
  // activation once into dst.
  void execute_once(dram::RowAddr a, dram::RowAddr b, dram::RowAddr dst);
  void host_fallback(const BitVector& golden, dram::RowAddr a,
                     dram::RowAddr b, dram::RowAddr dst);
  void blame_staging();
  void note_detected();

  dram::Subarray& sa_;
  RecoveryOptions options_;
  FaultStats stats_;
  bool degraded_ = false;
  /// Logical staging slot -> compute-row offset (0-based). Slots 0 and 1
  /// are the active operand rows; remapping swaps in spares.
  std::vector<std::size_t> staging_;
  std::vector<std::size_t> spares_;        ///< unused compute-row offsets
  std::vector<std::size_t> row_failures_;  ///< per compute-row offset
};

/// Lazily materializes one RecoveryExecutor per sub-array. Slot creation
/// and use follow the runtime's ownership discipline (a sub-array — hence
/// its executor — is touched by exactly one channel), so no locking is
/// needed, exactly like dram::Device's lazy sub-array creation.
class RecoveryManager {
 public:
  RecoveryManager(dram::Device& device, const RecoveryOptions& options);

  const RecoveryOptions& options() const { return options_; }

  RecoveryExecutor& executor_for(std::size_t subarray_flat);

  /// Device-wide roll-up, with `injected` filled from the device's
  /// injection counters.
  FaultStats roll_up() const;

  /// Exports per-sub-array recovery counters (retries, vote corrections,
  /// remapped rows, host fallbacks, …) labeled {subarray=<flat>}, folded in
  /// flat-index order, plus the device-wide injected total. Model-class:
  /// recovery decisions are deterministic in (seed, command sequence) for
  /// any channel count. Call only when the engine is drained.
  void export_metrics(telemetry::MetricsRegistry& registry) const;

 private:
  dram::Device& device_;
  RecoveryOptions options_;
  std::vector<std::unique_ptr<RecoveryExecutor>> executors_;
};

}  // namespace pima::runtime
