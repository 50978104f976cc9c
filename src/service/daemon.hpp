// Assembly-as-a-service daemon: a long-lived process serving assembly
// jobs over a newline-delimited-JSON protocol on a unix socket (plus an
// optional loopback TCP port).
//
// Composition of the existing machinery (DESIGN.md §12):
//   * every job runs the normal core::run_pipeline on its **own**
//     simulated Device, under a per-job channel quota — the runtime's
//     determinism contract makes its output bit-identical to a standalone
//     `pima_asm pim-run` on the same input, whatever else the daemon is
//     running concurrently;
//   * each job owns a checkpoint directory (`<state>/jobs/<id>/`), so the
//     PR-4 stage snapshots double as *per-job crash recovery*: a daemon
//     restart re-queues every non-terminal job with resume=true and the
//     pipeline continues from its last durable stage;
//   * each job gets its own watchdog stall budget
//     (JobSpec::stall_timeout_ms → EngineOptions) and its own
//     MetricsRegistry tagged {job="<id>"}; the daemon's `metrics` verb
//     folds all job registries plus the service counters with merge_from
//     into one Prometheus exposition — `GET /metrics` semantics over the
//     socket protocol;
//   * admission control (service/admission.hpp) bounds queued jobs,
//     concurrently running jobs, and the total channel quota; a submit
//     past a bound is rejected synchronously with a typed error.
//
// Shutdown: request_shutdown() is async-signal-safe (SIGTERM/SIGINT
// handlers call it). The daemon stops accepting, cancels running jobs at
// their next cancellation point (their completed-stage checkpoints stay
// valid), persists them back to `queued`, and exits; the next start
// resumes them.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dram/geometry.hpp"
#include "net/socket.hpp"
#include "runtime/cancel.hpp"
#include "service/admission.hpp"
#include "service/job.hpp"
#include "telemetry/metrics.hpp"

namespace pima::service {

struct DaemonOptions {
  std::string socket_path;        ///< unix socket (required)
  std::uint16_t tcp_port = 0;     ///< loopback TCP, 0 = disabled
  /// Loopback HTTP introspection plane (GET /metrics, /healthz, /jobs);
  /// 0 = disabled. /metrics serves the same deterministic fold as the
  /// `metrics` verb, byte for byte.
  std::uint16_t http_port = 0;
  std::string state_dir;          ///< job dirs + checkpoints (required)
  AdmissionPolicy admission;
  /// Cap on concurrently open client connections; a connection past the
  /// cap is refused with a typed error line. Admission control for the
  /// transport, like AdmissionPolicy is for jobs.
  std::size_t max_connections = 64;
  /// Simulated device geometry every job runs on. Part of each job's
  /// checkpoint fingerprint — restart the daemon with the same geometry
  /// or interrupted jobs will refuse to resume (typed, recorded failure).
  dram::Geometry geometry;
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Serves until shutdown: recovers persisted jobs, listens, dispatches.
  /// Returns after the full graceful-shutdown sequence (jobs cancelled &
  /// persisted, threads joined, socket unlinked). Throws IoError if the
  /// listeners cannot be opened.
  void run();

  /// Initiates graceful shutdown. Async-signal-safe: one atomic store and
  /// one pipe write. Callable from any thread, any number of times.
  void request_shutdown();

  /// True from the first request_shutdown()/drain until run() returns.
  bool stopping() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  const DaemonOptions& options() const { return options_; }

 private:
  struct JobEntry {
    JobRecord record;  ///< guarded by Daemon::mutex_
    telemetry::MetricsRegistry registry;
    runtime::CancelToken cancel;
    std::thread runner;
    bool requeue_on_cancel = false;  ///< shutdown vs user cancel
  };

  // ---- job lifecycle (mutex_ held unless noted) ----
  void recover_jobs();
  std::string job_dir(const std::string& id) const;
  void persist(const JobEntry& entry) const;
  void maybe_dispatch();
  void run_job(JobEntry& entry);  // runner thread body (takes mutex_ itself)
  void update_service_gauges();
  net::Json status_json(const JobEntry& entry) const;

  // ---- protocol (called from connection threads) ----
  struct ConnSlot;
  void handle_connection(ConnSlot* slot);
  /// HTTP introspection connection: one GET, one response, close.
  void handle_http(ConnSlot* slot);
  /// Returns false when the connection should close after this response.
  bool dispatch_verb(const net::Json& request, net::LineChannel& channel);
  net::Json verb_submit(const net::Json& request);
  net::Json verb_status(const net::Json& request, net::LineChannel& channel,
                        bool& close);
  net::Json verb_result(const net::Json& request);
  net::Json verb_cancel(const net::Json& request);
  net::Json verb_list() const;
  net::Json verb_metrics(const net::Json& request);
  net::Json verb_drain();

  /// Deterministic daemon-wide fold: service registry + every job
  /// registry in job-id order.
  std::string aggregate_metrics(bool as_json);

  DaemonOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;  ///< job state changes; drain/follow wake
  std::map<std::string, std::unique_ptr<JobEntry>> jobs_;  // never erased
  /// idempotency_key → job id. Rebuilt from job.json records on restart,
  /// so a client retrying a submit across a daemon crash still dedupes.
  std::map<std::string, std::string> idem_index_;
  AdmissionQueue queue_;
  std::size_t running_jobs_ = 0;
  std::size_t used_channels_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 1;
  bool draining_ = false;

  telemetry::MetricsRegistry service_registry_;

  // Shutdown machinery: flag + self-pipe to break the poll/accept loop.
  // The write end is atomic because request_shutdown() reads it from a
  // signal handler; both ends stay open until the destructor (after the
  // caller has detached its signal-handler pointer to this daemon), so a
  // late signal can never write(2) into a closed or recycled fd.
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<int> wake_write_{-1};
  int wake_read_ = -1;

  // Connection bookkeeping: fds are shutdown() on daemon stop so blocked
  // readers unblock and their threads join. A connection thread closes its
  // own fd under conn_mutex_ (storing -1 first), so the shutdown sweep can
  // never race the close and hit a recycled descriptor; the accept loop
  // reaps finished slots so a long-lived daemon does not accumulate dead
  // threads.
  std::mutex conn_mutex_;
  struct ConnSlot {
    std::thread thread;
    std::atomic<int> fd{-1};
  };
  std::vector<std::unique_ptr<ConnSlot>> connections_;
  void reap_connections();
};

}  // namespace pima::service
