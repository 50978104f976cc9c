// Multi-channel PIM execution engine.
//
// The functional DRAM model executes commands on host threads; this engine
// gives it the concurrency the hardware actually has. Each channel models
// one chip's command stream: a worker thread with a bounded FIFO of tasks
// (closures or ISA programs) that it retires in submission order against
// the sub-arrays it owns. Channels own disjoint sub-array sets (sub-array
// `flat` belongs to channel `flat % channels`, the interleaved chip
// assignment), so no lock is needed on the DRAM state itself — the queue
// is the only synchronization point.
//
// Determinism contract: for a fixed submission sequence, the commands
// applied to any single sub-array are identical for every channel count
// (including 1), because routing is a pure function of the target
// sub-array and each channel retires its queue FIFO. All CommandStats are
// therefore bit-identical between serial and parallel execution.
//
// channels == 1 is the single-threaded fallback: tasks run inline on the
// submitting thread, no worker is spawned, and behaviour reduces to the
// pre-runtime serial code path exactly — unless the engine is supervised
// (stall_timeout_ms > 0) or force_worker is set, which need the task off
// the caller's thread and so run the one channel on a worker.
//
// Supervision: with stall_timeout_ms > 0 a watchdog thread monitors a
// per-channel heartbeat (updated when a worker picks up and when it
// retires a task). A channel that holds a task longer than the timeout is
// declared stalled: the watchdog plants an EngineStalledError (carrying
// the channel, the stuck task's target sub-array and the last-retired
// task index) as the channel's failure, cancels the remaining queues
// cooperatively, and wakes drain() — which throws instead of blocking
// forever on the wedged worker. A stalled engine is poisoned: every later
// submit()/drain() refuses, and the destructor abandons (detaches) the
// wedged worker thread rather than deadlocking on join.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "dram/device.hpp"
#include "dram/isa.hpp"
#include "telemetry/metrics.hpp"

namespace pima::runtime {

/// A unit of channel work, executed on the owning channel's thread.
using Task = std::function<void()>;

struct EngineOptions {
  /// Worker channels. 1 = inline single-threaded fallback (unless
  /// stall_timeout_ms or force_worker asks for a worker); 0 = one per
  /// hardware thread.
  std::size_t channels = 1;
  /// Enables per-sub-array command capture on the device before any worker
  /// starts (Device::enable_tracing). Each sub-array's capture program is
  /// touched only by the channel owning it, so capture is race-free; the
  /// captures, appended in flat order, replay on the differential oracle.
  bool capture_trace = false;
  /// Per-task deadline enforced by the watchdog thread: a worker that
  /// holds one task longer than this without retiring it is declared
  /// stalled and drain() throws EngineStalledError instead of hanging.
  /// 0 disables supervision. A supervised single-channel engine runs its
  /// channel on a worker thread: the watchdog cannot interrupt a task
  /// running on the caller's own thread.
  double stall_timeout_ms = 0.0;
  /// Spawns a real worker thread even for channels == 1 instead of the
  /// inline fallback. A `pima_devd` device worker sets this
  /// (core::ShardWorkerCore), so its request loop answers while its
  /// kernels run. Model results are unaffected either way (the determinism
  /// contract above covers channels == 1 with a worker too).
  bool force_worker = false;
};

class Engine {
 public:
  explicit Engine(dram::Device& device, EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Instructions per task when submit_program chunks a sub-stream.
  static constexpr std::size_t kProgramChunk = 512;
  /// Per-channel queue capacity in tasks: submit() blocks on a full
  /// queue (the backpressure bound).
  static constexpr std::size_t kQueueCapacity = 64;

  dram::Device& device() { return device_; }
  std::size_t channels() const { return channel_count_; }
  /// Owning channel of a sub-array (interleaved chip assignment).
  std::size_t channel_of(std::size_t subarray_flat) const {
    return dram::owner_of(subarray_flat, channel_count_);
  }

  /// Enqueues a task on a channel, blocking while its queue is full. The
  /// task must only touch sub-arrays owned by that channel.
  ///
  /// Fail-fast: once a task on the channel has failed, submit() throws
  /// SimulationError immediately instead of silently queueing behind a
  /// dead task stream, and tasks already queued behind the failure are
  /// dropped unexecuted. drain() collects the original failure and resets
  /// the channel.
  void submit(std::size_t channel, Task task);

  /// True once the watchdog has declared any channel stalled. The engine
  /// is poisoned from that point on: drain() throws the stall error once,
  /// then every submit()/drain() refuses with SimulationError.
  bool stalled() const { return stalled_.load(std::memory_order_acquire); }

  /// Routes a task to the channel owning `subarray_flat`.
  void submit_to_subarray(std::size_t subarray_flat, Task task);

  /// Splits an ISA program by owning channel (dram::split_by_owner) and
  /// enqueues it in chunks of kProgramChunk instructions. Throws
  /// PreconditionError, before anything is queued, if an instruction
  /// targets a sub-array outside the device. Read/reduce results are
  /// discarded — data-dependent control flow belongs in closures on the
  /// owning channel.
  void submit_program(dram::Program program);

  /// Barrier: blocks until every submitted task has retired, or until the
  /// watchdog declares a stall. Rethrows the first exception raised by a
  /// task (lowest channel wins, so failure reporting is deterministic) and
  /// clears every channel's failure state, so one drain() fully resets the
  /// engine for the next submit cycle — except after a stall, which
  /// poisons the engine permanently.
  void drain();

  /// Emergency barrier for exception unwind: stops execution of queued
  /// tasks (they retire as skipped) and blocks until no task is running,
  /// without collecting or clearing failures. Call before destroying any
  /// object that in-flight tasks reference — e.g. a stage-local hash
  /// table — when an exception is about to unwind past it; otherwise a
  /// worker still executing a queued task races the destruction
  /// (use-after-free). Stalled channels are not waited on (their wedged
  /// worker is the watchdog's problem). noexcept, and the engine accepts
  /// new submits afterwards, so a success path running it is a no-op.
  void quiesce() noexcept;

  /// Exports engine counters into `registry` in channel index order
  /// (host-class: task routing depends on the channel count). Call when
  /// drained; idempotent only in the sense that calling twice adds twice.
  void export_metrics(telemetry::MetricsRegistry& registry) const;

  /// Telemetry track ids (Chrome trace tid): 0 is the controller ("main"),
  /// 1..channels are the channel workers, channels+1 is the watchdog (named
  /// only when one runs).
  static constexpr std::uint32_t kMainTrack = 0;
  std::uint32_t channel_track(std::size_t channel) const {
    return static_cast<std::uint32_t>(channel + 1);
  }
  std::uint32_t watchdog_track() const {
    return static_cast<std::uint32_t>(channels() + 1);
  }

 private:
  struct Channel;

  static void worker_loop(Channel& ch);
  void watchdog_loop();
  void submit_tagged(std::size_t channel, Task task, std::size_t subarray);

  dram::Device& device_;
  EngineOptions options_;
  std::size_t channel_count_;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::atomic<std::uint64_t> inline_retired_{0};  // channels == 1 fallback

  // Watchdog state. stalled_ flips once and never resets (the wedged
  // worker still owns its sub-arrays, so the engine cannot be reused).
  std::atomic<bool> stalled_{false};
  std::thread watchdog_;
  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_wake_;
  bool watchdog_stop_ = false;

  // Flight-recorder registration: per-channel queue/worker state for
  // crash_report.json. -1 = inline engine, nothing registered.
  int flight_snapshot_id_ = -1;
};

/// Runs `submit` — work that enqueues tasks on `engine` — under the stage
/// failure discipline. A SimulationError (typically the fail-fast refusal
/// of a channel whose earlier task failed) quiesces the engine and drains
/// it, so the root task failure (e.g. "hash shard full") surfaces instead
/// of the refusal; any other exception only quiesces, so no queued task
/// outlives what it references.
template <typename Submit>
void submit_guarded(Engine& engine, Submit&& submit) {
  try {
    submit();
  } catch (const SimulationError&) {
    engine.quiesce();
    engine.drain();
    throw;
  } catch (...) {
    engine.quiesce();
    throw;
  }
}

}  // namespace pima::runtime
