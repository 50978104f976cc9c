// Multi-device sharding: a pool of dram::Device instances that behaves,
// bit for bit, like one device (DESIGN.md §14).
//
// Partition function: every logical flat sub-array index is owned by
// device `flat % N` (ShardPlan::owner_of). The owner instantiates the
// sub-array at the *same* flat index inside its own full-geometry address
// space, so kernels keep addressing the logical flat space unchanged —
// sharding moves sub-arrays between devices without renumbering them.
// Because the k-mer hash table places shard s at flat first + s and
// shard_for(kmer) = hash(canonical kmer) % shards, the composition is the
// paper-style owner = hash(canonical_kmer) % N distribution of k-mers
// over devices.
//
// Determinism argument (what the shard test battery pins down):
//   * Per-sub-array command order is the controller's issue order for any
//     device count — routing is a pure function of the flat index
//     (dram::split_by_owner keeps program order within each owner), and
//     each per-device Engine preserves per-sub-array FIFO order
//     (engine.hpp).
//   * The counted k-mers come back keyed by shard index, so the merged
//     table order is a function of the data, never of device count or
//     thread timing.
//   * Every stat/metric fold iterates *logical* flat order 0..total-1
//     across the pool through the same dram::StatsFold step Device::fold
//     uses, so roll-ups, Prometheus model snapshots and checkpoints are
//     bitwise equal to the single-device run.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "dram/device.hpp"
#include "dram/isa.hpp"
#include "runtime/engine.hpp"
#include "telemetry/metrics.hpp"

namespace pima::runtime {

/// How a run is spread over simulated devices. devices == 1 is the
/// classic single-device path (owner_of is identically 0).
struct ShardPlan {
  std::size_t devices = 1;

  /// Owning device of a logical flat sub-array index.
  std::size_t owner_of(std::size_t flat) const {
    return devices <= 1 ? 0 : flat % devices;
  }

  bool operator==(const ShardPlan&) const = default;
};

/// N devices presenting the single-device interface over the logical flat
/// index space. Device 0 is the caller's device (so single-device callers,
/// checkpoints and stats keep their identity); devices 1..N-1 are owned by
/// the pool and share the primary's geometry and technology.
///
/// Thread compatibility matches dram::Device: sub-array access is safe
/// from the owning device's channels; the fold/fan-out members
/// (fold, clear_stats, enable_faults) are controller-side calls for a
/// drained pool. Tracing is enabled per device by its engine
/// (EngineOptions::capture_trace).
class DevicePool {
 public:
  /// `devices` includes the primary; must be >= 1.
  DevicePool(dram::Device& primary, std::size_t devices);

  std::size_t size() const { return 1 + extras_.size(); }
  const dram::Geometry& geometry() const { return primary_.geometry(); }
  std::size_t total_subarrays() const {
    return geometry().total_subarrays();
  }

  std::size_t owner_of(std::size_t flat) const {
    return plan_.owner_of(flat);
  }

  dram::Device& device(std::size_t d);
  const dram::Device& device(std::size_t d) const;

  /// Sub-array with logical flat index `flat`, created on first touch
  /// inside its owning device (at the same flat index).
  dram::Subarray& subarray(std::size_t flat) {
    return device(owner_of(flat)).subarray(flat);
  }
  const dram::Subarray* subarray_if(std::size_t flat) const {
    return device(owner_of(flat)).subarray_if(flat);
  }

  std::size_t instantiated_count() const;

  /// Pool-wide fold in *logical* flat order — the identical fold (and
  /// therefore identical doubles) as Device::fold on a single device that
  /// ran the same commands.
  dram::StatsFold fold() const;

  /// Injection counters folded over every device (integral adds).
  dram::InjectionCounters injection_roll_up() const;

  void clear_stats();
  void enable_faults(const dram::FaultConfig& config);

  /// Replayable capture of every traced command, merged across the pool in
  /// logical flat order — byte-identical to dram::captured_program() of a
  /// single-device run of the same commands. Requires tracing enabled
  /// (every pool device) before the commands ran.
  dram::Program captured_program() const;

 private:
  dram::Device& primary_;
  ShardPlan plan_;
  std::vector<std::unique_ptr<dram::Device>> extras_;  // devices 1..N-1
};

/// One Engine per pool device, presenting the single-engine submission
/// interface over logical flat indices. With devices > 1 every per-device
/// engine runs real workers (EngineOptions::force_worker) even at one
/// channel, so devices execute concurrently; with one device it reduces to
/// a plain Engine with the caller's options.
class PoolRunner {
 public:
  /// `per_device` is applied to every device's engine (channels is the
  /// per-device channel count).
  PoolRunner(DevicePool& pool, EngineOptions per_device);

  std::size_t devices() const { return engines_.size(); }
  Engine& engine(std::size_t d) { return *engines_.at(d); }
  const Engine& engine(std::size_t d) const { return *engines_.at(d); }

  std::size_t owner_of(std::size_t flat) const {
    return pool_.owner_of(flat);
  }

  /// Routes a task to the engine channel owning the logical flat index.
  void submit_to_subarray(std::size_t subarray_flat, Task task);

  /// Splits an ISA program across owning devices (dram::split_by_owner),
  /// so each device executes its sub-stream in program order (per
  /// sub-array order is therefore the single-device order).
  void submit_program(dram::Program program);

  /// Barrier over every device's engine, drained in device index order.
  /// Rethrows the first failure (lowest device, then lowest channel —
  /// deterministic like Engine::drain) after all engines drained.
  void drain();

  /// Emergency barrier for exception unwind (see Engine::quiesce).
  void quiesce() noexcept;

  /// Device-indexed metrics reduction: each engine exports into a private
  /// registry tagged {device="<d>"} which is merged into `registry` in
  /// device index order (MetricsRegistry::merge_from discipline).
  void export_metrics(telemetry::MetricsRegistry& registry) const;

 private:
  DevicePool& pool_;
  std::vector<std::unique_ptr<Engine>> engines_;
};

}  // namespace pima::runtime
