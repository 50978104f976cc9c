// Device-level controller: a collection of computational sub-arrays with
// parallelism-aware time/energy roll-up (paper Fig. 1a Ctrl).
//
// Sub-arrays compute independently — that is the whole point of the
// platform — so device time is the maximum of the per-sub-array busy times
// of the sub-arrays that participated, while device energy is the sum.
// StatsFold::add is that roll-up step, written once: a device and the
// stage boundary of a run (in process or in its worker process) both fold
// through it in logical flat-index order, so their doubles agree bit for
// bit.
// Sub-arrays are instantiated lazily: a full device has 2048 sub-arrays but
// a given workload usually touches a few.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "circuit/tech.hpp"
#include "dram/geometry.hpp"
#include "dram/subarray.hpp"

namespace pima::dram {

/// Rolled-up execution statistics of a device (or a kernel run on it).
struct DeviceStats {
  double time_ns = 0.0;      ///< critical path: max busy time over sub-arrays
  double serial_ns = 0.0;    ///< sum of busy times (1-sub-array equivalent)
  double energy_pj = 0.0;
  std::size_t commands = 0;
  std::size_t subarrays_used = 0;

  /// Average dynamic power in watts over the rolled-up interval.
  double dynamic_power_w() const;

  /// Serial composition: phases executed back to back. Times and energy
  /// add; the sub-array footprint is the widest phase.
  DeviceStats& operator+=(const DeviceStats& o);

  bool operator==(const DeviceStats&) const = default;
};

inline DeviceStats operator+(DeviceStats a, const DeviceStats& b) {
  a += b;
  return a;
}

/// The controller's roll-up of per-sub-array CommandStats: the DeviceStats
/// plus the per-kind serial merge (feed `commands` through
/// breakdown_from_stats() for the per-kind energy/latency split).
struct StatsFold {
  DeviceStats device;
  CommandStats commands;

  /// Folds in one sub-array: one with zero commands is skipped, the
  /// critical path takes the max of its busy time, everything else adds.
  /// Call in flat-index order — the order fixes the doubles.
  void add(const CommandStats& subarray);
};

/// Per-command-kind totals of a CommandStats.
struct EnergyBreakdown {
  struct Row {
    CommandKind kind;
    std::size_t count = 0;
    double energy_pj = 0.0;
    double time_ns = 0.0;
  };
  std::vector<Row> rows;   ///< one per command kind that occurred
  double total_energy_pj = 0.0;
  double total_time_ns = 0.0;
};

/// The energy/time split of accumulated CommandStats under the
/// technology's per-command cost model.
EnergyBreakdown breakdown_from_stats(const CommandStats& stats,
                                     std::size_t columns,
                                     const circuit::Technology& tech);

/// One device's touched sub-arrays, (flat index, CommandStats) in flat
/// order.
using SubarrayStats = std::vector<std::pair<std::size_t, CommandStats>>;

/// Folds a device's sub-array stats in logical flat order: the order, and
/// therefore the doubles, of Device::fold on the device that ran every
/// command, whatever order the list arrived in.
StatsFold fold_in_flat_order(const SubarrayStats& stats);

class Device {
 public:
  explicit Device(const Geometry& geometry,
                  const circuit::Technology& tech =
                      circuit::default_technology());

  const Geometry& geometry() const { return geom_; }
  const circuit::Technology& technology() const { return tech_; }

  /// Sub-array handle (created on first touch).
  Subarray& subarray(std::size_t flat);

  /// Read-only handle if the sub-array has been instantiated, else null.
  const Subarray* subarray_if(std::size_t flat) const;

  /// Every instantiated sub-array folded in flat-index order.
  StatsFold fold() const;
  /// fold().device.
  DeviceStats roll_up() const;

  /// Clears every sub-array's command statistics (contents preserved).
  void clear_stats();

  /// Enables Table-I-driven fault injection: calibrates a FaultModel at
  /// `config.variation` and attaches a deterministic per-sub-array
  /// injector to every instantiated and future sub-array. A disabled
  /// config (all rates zero) detaches the process again.
  void enable_faults(const FaultConfig& config);

  /// The active fault model, or null when fault-free.
  const FaultModel* fault_model() const { return fault_model_.get(); }

  /// Sum of every sub-array's injection counters, folded in flat-index
  /// order (deterministic ground truth for recovery accounting).
  InjectionCounters injection_roll_up() const;

  /// Per-sub-array command capture for oracle replay: attaches a private
  /// capture Program to every instantiated and future sub-array. Each
  /// program is touched only by the channel owning its sub-array, so
  /// capture is safe under the parallel runtime.
  void enable_tracing();
  bool tracing() const { return tracing_; }
  /// The capture of one sub-array, or null if never instantiated (or
  /// tracing is off).
  const Program* trace_if(std::size_t flat) const;

 private:
  Geometry geom_;
  circuit::Technology tech_;
  std::vector<std::unique_ptr<Subarray>> subarrays_;
  std::shared_ptr<const FaultModel> fault_model_;
  std::vector<std::unique_ptr<Program>> traces_;
  bool tracing_ = false;
};

}  // namespace pima::dram
