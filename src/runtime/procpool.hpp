// The process-isolated device worker with a fault-tolerant supervisor
// (DESIGN.md §15).
//
// An isolated run keeps its one core::DeviceShard in a child process
// (`pima_devd`) so a crashed, stalled, or chaos-injected worker cannot take
// the assembly down with it. The parent keeps the controller — routing,
// folds in logical flat order — and owns the robustness machinery:
//
//   * transport: one socketpair to the worker, newline-delimited JSON
//     framed by net::LineChannel, every byte through the fsio fault shim
//     (site "wire" in the worker, "procpool" for spawn/reap/kill), so
//     PIMA_IOFAULT chaos reaches the process boundary like every other
//     I/O path. Requests are batched per superstep: one request line, then
//     its one response line (rpc);
//   * reaping: waitpid with typed exit classification —
//     EngineStalledError (exit 6; a wedged kernel is the worker engine's
//     watchdog's to catch), injected torn-write crash (exit 86), death by
//     signal, or a torn protocol stream (EOF/garbage mid-request, or a
//     clean exit without a shutdown handshake). A failed worker gets a
//     short grace period to exit on its own; one still running after it
//     (it sent garbage or an oversized line) is killed and classified
//     torn, never by the parent's own kill;
//   * restart: bounded restart-with-backoff. Every state-mutating request
//     is journaled; a restarted worker is re-initialized from its init
//     request and replayed to exactly the pre-crash state. Journals are
//     truncated at stage boundaries, so replay cost is bounded by one
//     stage. The run's only resume record is the controller's
//     pipeline.ckpt; the worker keeps no state on disk;
//   * degrade: when the restart budget is exhausted the supervisor throws
//     ProcPoolDegradedError and the pipeline falls back to the in-process
//     DeviceShard — a typed, logged transition, bit-identical output.
//
// Determinism: the worker's device state is a pure function of its request
// journal, and the parent folds statistics in logical flat order, so a run
// with K worker crashes is bit-identical to a crash-free run (and to the
// in-process run).
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
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
  kStalled,    ///< exited with the EngineStalledError code (6)
  kCrashExit,  ///< non-zero exit (incl. fsio's torn-write crash, 86)
  kSignal,     ///< killed by a signal (SIGKILL, SIGSEGV, ...)
  kTorn,       ///< protocol torn: EOF/garbage mid-request or exit 0 mid-run
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
/// the in-process DeviceShard. Carries the final crash's class for the
/// pipeline's fallback log event.
class ProcPoolDegradedError : public SimulationError {
 public:
  ProcPoolDegradedError(WorkerExitClass exit_class, const std::string& detail)
      : SimulationError(std::string("device worker failed (") +
                        runtime::to_string(exit_class) +
                        ") with the restart budget exhausted: " + detail),
        exit_class_(exit_class) {}

  WorkerExitClass exit_class() const { return exit_class_; }

 private:
  WorkerExitClass exit_class_;
};

struct ProcPoolOptions {
  /// Path of the pima_devd binary. Empty = $PIMA_DEVD_PATH, then
  /// alongside /proc/self/exe, then ../tools relative to it.
  std::string devd_path;
  /// Restarts allowed before degrading.
  std::size_t restart_budget = 3;
  /// False keeps the full journal for the whole run (required when the
  /// run captures a trace: a restarted worker must replay every command).
  bool journal_truncation = true;
  /// PIMA_IOFAULT spec installed in the child's environment; empty
  /// inherits the parent's environment unchanged. Lets chaos tests aim a
  /// fault plan at the worker while the parent stays clean (the parent
  /// uses the process-local install_plan for its own faults).
  std::string child_iofault;
};

/// Owns the worker process of one isolated run. Single-threaded use by
/// the pipeline (the parent is the only controller; concurrency lives in
/// the worker's engine).
class ProcSupervisor {
 public:
  /// `init` is the worker's init request; it is re-sent verbatim on every
  /// restart.
  ProcSupervisor(ProcPoolOptions options, net::Json init);
  ~ProcSupervisor();

  ProcSupervisor(const ProcSupervisor&) = delete;
  ProcSupervisor& operator=(const ProcSupervisor&) = delete;

  /// Spawns and initializes the worker.
  void start();

  /// State-mutating request, journaled for crash replay: one line out, one
  /// response in, with a span + flow id and a journal append on ok. A
  /// child-side typed error is rethrown as its original exception type (no
  /// restart — it is deterministic). A transport failure triggers
  /// classify → restart → replay → resend, bounded by the restart budget
  /// (ProcPoolDegradedError thereafter).
  net::Json rpc(const net::Json& request);

  /// Read-only request: the failure handling of rpc, not journaled.
  net::Json query(const net::Json& request);

  /// Stage boundary: harvests the worker's span buffer (when the
  /// controller tracer is live) and truncates the journal (when enabled).
  void mark_stage_done(std::uint32_t stage);

  /// Fetches the live worker's cumulative span buffer over the
  /// `telemetry` verb and installs it in the controller tracer as that
  /// incarnation's ProcessTrace (timestamps shifted by the clock offset
  /// sampled at init). No-op when tracing is disabled or the worker is
  /// dead. Uses the normal rpc failure handling, so a worker that dies
  /// mid-harvest is restarted (and its spans since the last harvest are
  /// lost — restarts appear as new tracks).
  void collect_telemetry();

  /// Graceful shutdown handshake with the live worker, then reap.
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

  void spawn();
  void respawn();
  net::Json transact(const std::string& line);
  /// Reads the next response line; `bytes` gets its wire size.
  net::Json read_response(std::size_t& bytes);
  /// Classify + reap + log; throws ProcPoolDegradedError past the budget,
  /// otherwise sleeps the backoff and leaves the worker dead for respawn.
  void on_worker_failure(const std::string& what);
  /// Closes the worker's stream and reaps it. With `grace` a worker that
  /// exits on its own within 500 ms is classified by its own status,
  /// and one the parent then has to kill is kTorn; without it the worker
  /// is killed at once (shutdown and discard paths, which ignore the
  /// class).
  WorkerExitClass reap_worker(bool grace = false) noexcept;
  net::Json call(const net::Json& request, bool journaled);

  ProcPoolOptions options_;
  net::Json init_;
  std::string resolved_devd_;
  Worker worker_;
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
