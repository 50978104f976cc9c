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
//     device count — routing is a pure function of the flat index, and each
//     per-device Engine preserves per-sub-array FIFO order (engine.hpp).
//   * Every cross-device hand-off is merged by an explicit global key (the
//     instruction sequence through an Exchange for program slices, the
//     shard index for the counted k-mers), so the merged order is a
//     function of the data, never of device count or thread timing.
//   * Every stat/metric fold iterates *logical* flat order 0..total-1
//     across the pool — the identical double-precision fold Device::roll_up
//     performs — so roll-ups, Prometheus model snapshots and checkpoints
//     are bitwise equal to the single-device run.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
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

  bool sharded() const { return devices > 1; }

  /// Owning device of a logical flat sub-array index.
  std::size_t owner_of(std::size_t flat) const {
    return devices <= 1 ? 0 : flat % devices;
  }

  bool operator==(const ShardPlan&) const = default;
};

/// Deterministic all-to-all hand-off; PoolRunner::submit_program uses it
/// for the edge-block redistribution. Producers append to per-(src, dst)
/// buffers — each buffer is ordered by push order — and gather(dst)
/// merges a destination's buffers by (key, src, push order). The key is a
/// global sequence number chosen by the caller (e.g. the instruction
/// sequence), so the merged stream is identical for every device count:
/// with N == 1 it degenerates to plain key order, which is exactly what a
/// single-device run produces.
template <typename T>
class Exchange {
 public:
  explicit Exchange(std::size_t devices)
      : devices_(devices == 0 ? 1 : devices),
        buffers_(devices_ * devices_) {}

  std::size_t devices() const { return devices_; }

  void push(std::size_t src, std::size_t dst, std::uint64_t key, T item) {
    buffers_[src * devices_ + dst].push_back(
        Entry{key, std::move(item)});
  }

  /// Everything destined for `dst`, merged by (key, src, push order).
  /// Consumes the destination's buffers.
  std::vector<T> gather(std::size_t dst) {
    struct Tagged {
      std::uint64_t key;
      std::size_t src;
      std::size_t seq;  ///< push order within (src, dst)
      T* item;
    };
    std::vector<Tagged> order;
    for (std::size_t src = 0; src < devices_; ++src) {
      auto& buf = buffers_[src * devices_ + dst];
      for (std::size_t i = 0; i < buf.size(); ++i)
        order.push_back(Tagged{buf[i].key, src, i, &buf[i].item});
    }
    std::sort(order.begin(), order.end(),
              [](const Tagged& a, const Tagged& b) {
                if (a.key != b.key) return a.key < b.key;
                if (a.src != b.src) return a.src < b.src;
                return a.seq < b.seq;
              });
    std::vector<T> out;
    out.reserve(order.size());
    for (auto& t : order) out.push_back(std::move(*t.item));
    for (std::size_t src = 0; src < devices_; ++src)
      buffers_[src * devices_ + dst].clear();
    return out;
  }

 private:
  struct Entry {
    std::uint64_t key;
    T item;
  };

  std::size_t devices_;
  std::vector<std::vector<Entry>> buffers_;  // [src * devices_ + dst]
};

/// N devices presenting the single-device interface over the logical flat
/// index space. Device 0 is the caller's device (so single-device callers,
/// checkpoints and stats keep their identity); devices 1..N-1 are owned by
/// the pool and share the primary's geometry and technology.
///
/// Thread compatibility matches dram::Device: sub-array access is safe
/// from the owning device's channels; the fold/fan-out members
/// (roll_up, clear_stats, enable_*) are controller-side calls for a
/// drained pool.
class DevicePool {
 public:
  /// `devices` includes the primary; must be >= 1.
  DevicePool(dram::Device& primary, std::size_t devices);

  std::size_t size() const { return 1 + extras_.size(); }
  const ShardPlan& plan() const { return plan_; }
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

  /// Pool-wide roll-up folded in *logical* flat order — the identical
  /// fold (and therefore identical doubles) as Device::roll_up on a
  /// single device that ran the same commands.
  dram::DeviceStats roll_up() const;

  /// Per-device roll-ups (reporting axis; combine with reduce_devices).
  std::vector<dram::DeviceStats> per_device_roll_up() const;

  /// Per-kind command stats folded in logical flat order (see
  /// Device::command_roll_up).
  dram::CommandStats command_roll_up() const;

  /// Injection counters folded over every device (integral adds).
  dram::InjectionCounters injection_roll_up() const;

  void clear_stats();
  void enable_faults(const dram::FaultConfig& config);
  void enable_tracing();
  void disable_tracing();

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

/// Per-device stats of a pool combined along the device axis. Devices run
/// concurrently and own disjoint sub-array shards, so this is the
/// reduce_parallel discipline: time is the maximum, everything else adds,
/// folded in device index order. For the bit-identity oracle use
/// DevicePool::roll_up (logical flat order) instead — the per-device
/// partial sums round differently in the last ulp.
dram::DeviceStats reduce_devices(const std::vector<dram::DeviceStats>& parts);

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

  DevicePool& pool() { return pool_; }
  std::size_t devices() const { return engines_.size(); }
  Engine& engine(std::size_t d) { return *engines_.at(d); }
  const Engine& engine(std::size_t d) const { return *engines_.at(d); }

  std::size_t owner_of(std::size_t flat) const {
    return pool_.owner_of(flat);
  }

  /// Routes a task to the engine channel owning the logical flat index.
  void submit_to_subarray(std::size_t subarray_flat, Task task);

  /// Edge-block redistribution: splits an ISA program across owning
  /// devices through an Exchange keyed by the global instruction sequence,
  /// so each device executes its sub-stream in program order (per
  /// sub-array order is therefore the single-device order).
  void submit_program(dram::Program program);

  /// Barrier over every device's engine, drained in device index order.
  /// Rethrows the first failure (lowest device, then lowest channel —
  /// deterministic like Engine::drain) after all engines drained.
  void drain();

  /// Emergency barrier for exception unwind (see Engine::quiesce).
  void quiesce() noexcept;

  bool stalled() const;

  /// Device-indexed metrics reduction: each engine exports into a private
  /// registry tagged {device="<d>"} which is merged into `registry` in
  /// device index order (MetricsRegistry::merge_from discipline).
  void export_metrics(telemetry::MetricsRegistry& registry) const;

 private:
  DevicePool& pool_;
  std::vector<std::unique_ptr<Engine>> engines_;
};

}  // namespace pima::runtime
