// Job model for the assembly service: what a client submits (JobSpec),
// where it is in its lifecycle (JobState), and everything the daemon
// tracks/persists about it (JobRecord).
//
// Lifecycle (DESIGN.md §12):
//
//   queued ──admit──> admitted ──runner──> running ──┬──> done
//     │                  │                  │        ├──> failed
//     └──────cancel──────┴──────────────────┘        └──> cancelled
//
// `running` advances through the paper's Fig. 5 stages (hashmap →
// debruijn → traverse); `stages_done` counts durable stage checkpoints.
// A daemon restart re-queues every non-terminal job and the pipeline's
// checkpoint/resume machinery (PR 4) continues from the last snapshot —
// the resumed output is bit-identical to an uninterrupted run.
//
// JobRecord persists as `<job dir>/job.json`, rewritten atomically
// (tmp + rename) at every state transition, so a SIGKILLed daemon can
// reconstruct its whole job table on restart.
#pragma once

#include <cstdint>
#include <string>

#include "net/json.hpp"

namespace pima::service {

enum class JobState {
  kQueued,     ///< accepted into the bounded admission queue
  kAdmitted,   ///< picked by the scheduler, runner starting
  kRunning,    ///< pipeline executing (see JobRecord::stages_done)
  kDone,       ///< contigs written, result available
  kFailed,     ///< pipeline raised; error_type/error_message say why
  kCancelled,  ///< cancel verb; never restarted
};

const char* to_string(JobState state);
/// Parses a state name; throws InputFormatError on an unknown name.
JobState parse_job_state(const std::string& name);
inline bool is_terminal(JobState s) {
  return s == JobState::kDone || s == JobState::kFailed ||
         s == JobState::kCancelled;
}

/// What a client submits. Paths are daemon-side (the daemon and client
/// share a host — unix socket transport). Validation mirrors the CLI's
/// flag clamps: bad values throw InputFormatError naming the field.
struct JobSpec {
  std::string reads_path;          ///< FASTA/FASTQ the daemon reads
  std::size_t k = 17;              ///< k-mer length (4..Kmer::kMaxK)
  std::size_t hash_shards = 16;    ///< hash-table sub-arrays (1..4096)
  std::size_t channels = 1;        ///< per-device channel quota (1..1024)
  std::size_t devices = 1;         ///< simulated devices the job shards
                                   ///< over (1..64); admission charges
                                   ///< devices × channels against the
                                   ///< daemon's --channel-budget
  bool euler = false;              ///< Euler walks vs unitigs
  int priority = 0;                ///< higher runs first; FIFO within equal
  double stall_timeout_ms = 0.0;   ///< per-job watchdog budget (0 = off)
  /// "none" runs the job's device shards in the daemon's address space;
  /// "process" runs each shard in a pima_devd worker process under the
  /// crash-containing supervisor (runtime/procpool.hpp). Either way the
  /// job charges devices × channels against --channel-budget — isolation
  /// moves the work, it does not multiply it.
  std::string isolation = "none";

  /// Field-by-field validation; throws InputFormatError on the first bad
  /// field. Called on submit (server side) and by from_json.
  void validate() const;

  net::Json to_json() const;
  static JobSpec from_json(const net::Json& j);

  bool operator==(const JobSpec&) const = default;
};

/// Everything the daemon knows about one job. The daemon mutates records
/// under its own lock; this struct is plain data.
struct JobRecord {
  std::string id;        ///< "j0001", monotonically assigned, never reused
  JobSpec spec;
  JobState state = JobState::kQueued;
  std::uint64_t seq = 0;          ///< submission order (FIFO tie-break)
  std::uint32_t stages_done = 0;  ///< durable stage checkpoints (0..3)
  /// Client-chosen dedupe token (may be empty). A resubmit carrying the
  /// same key returns this job instead of creating a new one; persisted
  /// so the dedupe table survives daemon restarts.
  std::string idempotency_key;

  // Failure context (state == kFailed).
  std::string error_type;     ///< exception class name
  std::string error_message;

  // Result summary (state == kDone).
  std::uint64_t contigs = 0;
  std::uint64_t n50 = 0;
  std::uint64_t total_length = 0;
  std::uint64_t distinct_kmers = 0;

  /// Human name of the Fig. 5 stage the job is in (from stages_done).
  const char* current_stage() const;

  net::Json to_json() const;
  static JobRecord from_json(const net::Json& j);
};

/// Atomic (tmp + rename) persistence of `record` to `<dir>/job.json`.
/// Throws IoError on OS failures.
void save_job_record(const std::string& dir, const JobRecord& record);

/// Loads `<dir>/job.json`; throws IoError if unreadable and
/// InputFormatError if it does not parse as a job record.
JobRecord load_job_record(const std::string& dir);

}  // namespace pima::service
