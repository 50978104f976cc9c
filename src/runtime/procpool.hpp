// Process-isolated device shards with a fault-tolerant supervisor
// (DESIGN.md §15).
//
// A run sharded over N simulated devices keeps one core::DeviceShard per
// device; this layer moves each DeviceShard into its own child process
// (`pima_devd`) so a crashed, wedged, or chaos-injected device worker
// cannot take the assembly down with it. The parent keeps the sharding
// contract — owner = dram::owner_of(flat, devices), folds in logical flat
// order — and owns the robustness machinery:
//
//   * transport: one socketpair per worker, newline-delimited JSON framed
//     by net::LineChannel, every byte through the fsio fault shim (site
//     "wire" in the workers, "procpool" for spawn/reap/kill), so
//     PIMA_IOFAULT chaos reaches the process boundary like every other
//     I/O path. Requests are batched per superstep and fanned out: every
//     device's line is written before any response is read (rpc_all);
//   * liveness: workers heartbeat (`{"hb":1}`) from a side thread that
//     keeps beating while the engine watchdog runs, so a long in-memory
//     stage does not trip the parent's deadline; the deadline bounds every
//     wait for worker bytes and a silent worker is declared wedged,
//     SIGKILLed and reaped;
//   * reaping: waitpid with typed exit classification — clean shutdown,
//     EngineStalledError (exit 6), injected torn-write crash (exit 86),
//     death by signal, or a torn protocol stream (EOF/garbage mid-request,
//     or a clean exit without a shutdown handshake);
//   * restart: bounded restart-with-backoff. Every state-mutating request
//     is journaled; a restarted worker is re-initialized from its init
//     request and replayed to exactly the pre-crash state. Journals are
//     truncated at stage boundaries, so replay cost is bounded by one
//     stage. The run's only resume record is the controller's
//     pipeline.ckpt; workers keep no state on disk;
//   * degrade: when the restart budget is exhausted the supervisor throws
//     ProcPoolDegradedError and the pipeline falls back to in-process
//     DeviceShards — a typed, logged transition, bit-identical output.
//
// Determinism: a worker's device state is a pure function of its request
// journal, and the parent merges all cross-shard data by shard index and
// folds it in logical flat order, so a run with K worker crashes is
// bit-identical to a crash-free run (and to the in-process run).
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "net/json.hpp"
#include "net/socket.hpp"

namespace pima::runtime {

/// Typed classification of a worker's demise, derived from waitpid status
/// plus protocol context.
enum class WorkerExitClass : std::uint8_t {
  kClean,      ///< exited 0 after a shutdown handshake
  kStalled,    ///< exited with the EngineStalledError code (6)
  kCrashExit,  ///< non-zero exit (incl. fsio's torn-write crash, 86)
  kSignal,     ///< killed by a signal (SIGKILL, SIGSEGV, ...)
  kTorn,       ///< protocol torn: EOF/garbage mid-request or exit 0 mid-run
  kWedged,     ///< liveness deadline expired; SIGKILLed by the supervisor
};

const char* to_string(WorkerExitClass c);

/// One verb of the worker protocol: the request `op` plus the span names
/// the controller (`rpc:`) and the worker (`devd:`) record for it. Span
/// names are string literals because the trace ring stores pointers.
struct WireVerb {
  const char* op;
  const char* rpc_span;
  const char* devd_span;
};

/// The verb table entry for `op`; unknown verbs map to a catch-all entry
/// (`other`, spans `rpc` / `devd:rpc`).
const WireVerb& wire_verb(std::string_view op);

/// Raised when the restart budget is exhausted: the signal to degrade to
/// in-process DeviceShards. Carries the final crash's identity so the
/// pipeline can convert it into WorkerCrashedError when degrading is
/// disabled.
class ProcPoolDegradedError : public SimulationError {
 public:
  ProcPoolDegradedError(std::size_t device, WorkerExitClass exit_class,
                        const std::string& detail)
      : SimulationError("device worker " + std::to_string(device) +
                        " failed (" + runtime::to_string(exit_class) +
                        ") with the restart budget exhausted: " + detail),
        device_(device),
        exit_class_(exit_class),
        detail_(detail) {}

  std::size_t device() const { return device_; }
  WorkerExitClass exit_class() const { return exit_class_; }
  const std::string& detail() const { return detail_; }

 private:
  std::size_t device_;
  WorkerExitClass exit_class_;
  std::string detail_;
};

struct ProcPoolOptions {
  std::size_t devices = 1;
  /// Path of the pima_devd binary. Empty = $PIMA_DEVD_PATH, then
  /// alongside /proc/self/exe, then ../tools relative to it.
  std::string devd_path;
  /// Bounds every wait for worker bytes (heartbeats re-arm it). 0 = wait
  /// forever — the unsupervised in-process semantics.
  double liveness_timeout_s = 0.0;
  /// Total restarts allowed across all workers before degrading.
  std::size_t restart_budget = 3;
  /// Base backoff before a restart; doubles per consecutive restart of the
  /// same worker, capped at 2 s.
  double restart_backoff_ms = 50.0;
  /// False keeps the full journal for the whole run (required when the
  /// run captures a trace: a restarted worker must replay every command).
  bool journal_truncation = true;
  /// PIMA_IOFAULT spec installed in the children's environment; empty
  /// inherits the parent's environment unchanged. Lets chaos tests aim a
  /// fault plan at the workers while the parent stays clean (the parent
  /// uses the process-local install_plan for its own faults).
  std::string child_iofault;
};

/// Owns the worker processes of one isolated run. Single-threaded use by
/// the pipeline (the parent is the only controller; concurrency lives in
/// the workers' engines).
class ProcSupervisor {
 public:
  /// `make_init` builds the init request for a device; it is re-sent
  /// verbatim on every restart of that worker.
  ProcSupervisor(ProcPoolOptions options,
                 std::function<net::Json(std::size_t)> make_init);
  ~ProcSupervisor();

  ProcSupervisor(const ProcSupervisor&) = delete;
  ProcSupervisor& operator=(const ProcSupervisor&) = delete;

  /// Spawns and initializes every worker.
  void start();

  std::size_t devices() const { return options_.devices; }

  /// State-mutating fan-out, journaled for crash replay: `requests[d]`
  /// goes to device d; a null entry skips the device (its response slot
  /// stays null). Every request is written before any response is read,
  /// then responses are read in device order, each with a span + flow id
  /// and a journal append on ok. Child-side typed errors are rethrown as
  /// their original exception types (no restart — they are
  /// deterministic); they are collected until every response is in and
  /// the lowest device's is rethrown. Transport failures and liveness
  /// expiries trigger classify → restart → replay → resend for that
  /// worker, without disturbing the others' responses, bounded by the
  /// restart budget (ProcPoolDegradedError thereafter, aborting at once).
  std::vector<net::Json> rpc_all(const std::vector<net::Json>& requests);

  /// Read-only fan-out: the failure handling of rpc_all, not journaled.
  std::vector<net::Json> query_all(const std::vector<net::Json>& requests);

  /// Stage boundary: harvests worker span buffers (when the controller
  /// tracer is live) and truncates journals (when enabled).
  void mark_stage_done(std::uint32_t stage);

  /// Fetches every live worker's cumulative span buffer over the
  /// `telemetry` verb and installs it in the controller tracer as that
  /// incarnation's ProcessTrace (timestamps shifted by the clock offset
  /// sampled at init). No-op when tracing is disabled. Uses the normal
  /// rpc failure handling, so a dead worker is restarted (and its spans
  /// since the last harvest are lost — restarts appear as new tracks).
  void collect_telemetry();

  /// Graceful shutdown handshake with every live worker, then reap.
  /// Idempotent; also run by the destructor.
  void shutdown() noexcept;

  std::size_t restarts_used() const { return restarts_used_; }

 private:
  struct Worker {
    pid_t pid = -1;
    net::ScopedFd fd;
    std::unique_ptr<net::LineChannel> channel;
    std::vector<std::string> journal;  ///< since the last truncation
    std::size_t consecutive_restarts = 0;
    bool alive = false;
    std::size_t spawn_count = 0;        ///< incarnation = spawn_count - 1
    std::int64_t clock_offset_ns = 0;   ///< controller now − worker now
    std::thread stderr_relay;           ///< prefixes child stderr lines
  };

  void spawn(std::size_t d);
  void respawn(std::size_t d);
  net::Json transact(Worker& w, const std::string& line);
  /// Reads the next non-heartbeat line; `bytes` gets its wire size.
  net::Json read_response(Worker& w, std::size_t& bytes);
  /// Classify + reap + log; throws ProcPoolDegradedError past the budget,
  /// otherwise sleeps the backoff and leaves the worker dead for respawn.
  void on_worker_failure(std::size_t d, bool wedged, const std::string& what);
  WorkerExitClass reap_worker(std::size_t d, bool wedged) noexcept;
  std::vector<net::Json> fan_out(const std::vector<net::Json>& requests,
                                 bool journaled);

  ProcPoolOptions options_;
  std::function<net::Json(std::size_t)> make_init_;
  std::string resolved_devd_;
  std::vector<Worker> workers_;
  std::uint32_t stages_done_ = 0;
  std::size_t restarts_used_ = 0;
  std::uint64_t flow_seq_ = 0;  ///< rpc flow-event ids (traced runs)
  int snapshot_id_ = -1;        ///< flight-recorder provider registration
  bool started_ = false;
};

/// Rethrows a worker's `{"ok":false,...}` response as the original typed
/// exception (EngineStalledError is reconstructed from its wire fields).
/// Shared with the client side of the daemon tests.
[[noreturn]] void throw_worker_error(const net::Json& response);

/// Resolves the pima_devd binary per ProcPoolOptions::devd_path rules.
/// Throws IoError when no candidate exists.
std::string resolve_devd_path(const std::string& requested);

}  // namespace pima::runtime
