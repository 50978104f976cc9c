// Low-overhead hierarchical span tracing with Chrome trace-event export.
//
// The runtime's execution structure — pipeline stage → shard → engine
// channel → command batch — is recorded as spans into per-thread ring
// buffers and exported as Chrome trace-event JSON, loadable in Perfetto or
// chrome://tracing. Each engine channel gets its own track (tid), stage
// spans land on the controller's "main" track, and counter events render
// queue depth / retired commands as counter tracks.
//
// Hot-path cost model:
//   * disabled (the default): one relaxed atomic load per span/instant —
//     no allocation, no clock read;
//   * enabled: one steady_clock read per span endpoint plus one write into
//     a preallocated single-writer ring buffer. No locks anywhere on the
//     record path; buffer registration (once per thread) takes a mutex.
//
// Buffers are drop-newest: when a thread's ring fills, further events are
// counted (dropped()) but not stored, so published slots are write-once
// and the exporter can read them race-free (release/release on the size
// counter). The final "stall" event always lands because it is recorded by
// the watchdog/drain thread into its own, near-empty buffer.
//
// Timebase: steady_clock nanoseconds since Tracer::enable() (one shared
// epoch, so tracks align). Event names must be string literals (or strings
// outliving the tracer) — the buffer stores pointers, never copies.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pima::telemetry {

/// One recorded event. 64 bytes; stored by value in the ring.
struct TraceEvent {
  const char* name = nullptr;   ///< static string (never copied)
  char phase = 'X';             ///< 'X' complete, 'i' instant, 'C' counter,
                                ///< 's'/'f' flow start/finish
  std::uint32_t track = 0;      ///< Chrome tid: 0 = main, 1.. = channels
  std::int64_t ts_ns = 0;       ///< start, ns since the tracer epoch
  std::int64_t dur_ns = 0;      ///< span duration ('X' only)
  double value = 0.0;           ///< counter value / span argument
  const char* arg_name = nullptr;  ///< static key for `value`, or null
  std::uint64_t flow_id = 0;    ///< flow binding id ('s'/'f' only)
};

/// A trace event with owned strings — the wire/export form. Worker
/// processes serialize these over the NDJSON channel; the controller
/// re-imports them as a foreign ProcessTrace.
struct ExportedTraceEvent {
  std::string name;
  std::string arg_name;  ///< empty = none
  char phase = 'X';
  std::uint32_t track = 0;
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = 0;
  double value = 0.0;
  std::uint64_t flow_id = 0;
};

/// One foreign process's worth of trace data (a `pima_devd` incarnation).
/// Timestamps must already be shifted into the importing tracer's epoch.
struct ProcessTrace {
  std::int64_t pid = 0;  ///< OS pid; keys the process — restarts get new pids
  std::string name;      ///< Perfetto process_name label
  int sort_index = 0;    ///< Perfetto process_sort_index
  std::map<std::uint32_t, std::string> track_names;
  std::vector<ExportedTraceEvent> events;
};

/// Single-writer, many-reader ring. The owning thread appends; readers see
/// a consistent prefix via the release-published size. Drop-newest on
/// overflow keeps published slots immutable.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity) : slots_(capacity) {}

  /// Owner thread only.
  void record(const TraceEvent& e) {
    const std::size_t n = size_.load(std::memory_order_relaxed);
    if (n >= slots_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    slots_[n] = e;
    size_.store(n + 1, std::memory_order_release);
  }

  /// Any thread: number of published (immutable) events.
  std::size_t published() const {
    return size_.load(std::memory_order_acquire);
  }
  const TraceEvent& at(std::size_t i) const { return slots_[i]; }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<TraceEvent> slots_;
  std::atomic<std::size_t> size_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// Process-wide trace collector: owns every thread's ring buffer, assigns
/// tracks, and renders the merged Chrome trace-event JSON.
class Tracer {
 public:
  Tracer();

  /// Starts recording. Resets the epoch; existing buffers are cleared.
  void enable(std::size_t events_per_thread = 1 << 16);
  /// Stops recording; buffers are kept for export.
  void disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Current thread's track id for subsequently recorded events.
  void set_thread_track(std::uint32_t track);
  /// Perfetto track (thread) naming; also sets the track's sort order.
  void set_track_name(std::uint32_t track, const std::string& name);

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Record a completed span [start_ns, start_ns + dur_ns) on the current
  /// thread's track. No-op when disabled.
  void record_complete(const char* name, std::int64_t start_ns,
                       std::int64_t dur_ns, const char* arg_name = nullptr,
                       double value = 0.0);
  /// Instant event; `track` overrides the thread's track (e.g. the
  /// watchdog marking a stalled channel's track). kThreadTrack = current.
  static constexpr std::uint32_t kThreadTrack = 0xffffffffu;
  void record_instant(const char* name, std::uint32_t track = kThreadTrack);
  /// Counter sample on a counter track named `name [<track name>]`.
  void record_counter(const char* name, double value, std::uint32_t track);
  /// Perfetto flow binding point: phase 's' opens a flow, 'f' terminates
  /// it. Both sides must use the same `flow_id` and lie inside an 'X' span
  /// on their respective tracks. `ts_ns` is explicit so the binding point
  /// can be placed at the enclosing span's start.
  void record_flow(const char* name, char phase, std::uint64_t flow_id,
                   std::int64_t ts_ns, std::uint32_t track = kThreadTrack);

  /// Merged, time-sorted Chrome trace-event JSON ("traceEvents" array plus
  /// thread-name metadata). Safe to call while writers are active: only
  /// published slots are read. Foreign processes added via put_process()
  /// render as their own pid groups with process_name metadata.
  std::string chrome_json() const;

  /// Snapshot of every published event in this process's buffers, with
  /// owned strings (cumulative — a later call returns a superset). Used by
  /// worker processes to ship their spans over the NDJSON channel.
  std::vector<ExportedTraceEvent> export_events() const;
  /// Snapshot of the track-name table.
  std::map<std::uint32_t, std::string> track_names() const;

  /// Installs (or replaces, keyed by pid) a foreign process's trace for
  /// chrome_json() merging. Worker flushes are cumulative, so replacing is
  /// idempotent across stage-boundary harvests of the same incarnation.
  void put_process(ProcessTrace p);

  /// Total events currently published over all buffers (tests/reports).
  std::size_t event_count() const;
  std::uint64_t dropped_count() const;

  /// Drops every buffer, track name, and foreign process. Threads
  /// re-register on next use.
  void clear();

 private:
  TraceBuffer* thread_buffer();
  /// export_events() without the lock; the caller holds mutex_.
  std::vector<ExportedTraceEvent> own_events_locked() const;

  std::atomic<bool> enabled_{false};
  std::size_t capacity_ = 1 << 16;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  // Generation guards the thread-local buffer pointers across clear().
  // Values are process-unique (drawn from a global counter), so a Tracer
  // allocated at a dead Tracer's address can never match its stale stamps.
  std::atomic<std::uint64_t> generation_;
  mutable std::mutex mutex_;  // buffers_ + track_names_ + processes_
  std::vector<std::unique_ptr<TraceBuffer>> buffers_;
  std::map<std::uint32_t, std::string> track_names_;
  std::map<std::int64_t, ProcessTrace> processes_;  // keyed by pid
};

}  // namespace pima::telemetry
