// Error handling helpers for PIM-Assembler.
//
// The library reports precondition violations and unrecoverable state errors
// by throwing std::logic_error / std::runtime_error subclasses. Simulation
// code is exception-free on the hot path; checks compile to a branch + cold
// throw helper.
//
// The taxonomy below maps one-to-one onto the CLI's documented exit codes
// through one table (kErrorTable / DESIGN.md §10): front-end tools catch at
// main() and translate the dynamic type into a stable process exit status,
// so scripts and CI can distinguish "your input file is broken" from "the
// engine stalled" without parsing stderr. The same table names each class
// on the device-worker wire and in the daemon's job records.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace pima {

/// Thrown when an API precondition is violated (caller bug).
class PreconditionError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown when the simulated machine reaches an inconsistent state
/// (configuration error, resource exhaustion of the modelled hardware).
class SimulationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when an operating-system I/O operation fails (open/write/rename
/// of checkpoints, traces, FASTA files).
class IoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when a checkpoint snapshot fails validation — bad magic, version
/// mismatch, truncation, checksum mismatch, or an incompatible run
/// configuration (geometry/k/seed). The load is all-or-nothing: a snapshot
/// that throws this has had no partial effect on the caller's state.
class CorruptCheckpointError : public IoError {
 public:
  using IoError::IoError;
};

/// Thrown when user-supplied input data (FASTA/FASTQ) or a command-line
/// value is malformed. The message carries source:line (or --flag) context.
class InputFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by cooperative cancellation points (runtime/cancel.hpp) when a
/// CancelToken has been triggered — by a SIGINT/SIGTERM handler, a service
/// `cancel` verb, or daemon shutdown. Work interrupted this way is clean:
/// stage checkpoints already written stay valid, so a cancelled run resumes
/// exactly like a crashed one.
class CancelledError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by the service client when a connect or a wait for a response
/// line exceeds the caller's --timeout budget. Distinct from IoError: the
/// daemon may be healthy but slow (or wedged); the caller chose to stop
/// waiting. Maps to exit code 9 so scripts can tell "deadline expired"
/// from "transport broke".
class DeadlineExceededError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by the service admission controller when a job cannot be accepted
/// — the bounded queue is full, or the daemon is draining. The submitter
/// should back off and retry; nothing about the job was recorded.
class AdmissionRejectedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by runtime::Engine::drain() when the watchdog detects that a
/// channel worker has made no progress within the configured stall timeout.
/// Carries enough context to locate the wedged work: the channel, the
/// sub-array the stuck task was routed to (kNoSubarray for untargeted
/// closures), and the index of the last command the channel retired.
class EngineStalledError : public SimulationError {
 public:
  static constexpr std::size_t kNoSubarray = static_cast<std::size_t>(-1);

  EngineStalledError(std::size_t channel, std::size_t subarray,
                     std::uint64_t last_retired, double timeout_ms)
      : SimulationError(format(channel, subarray, last_retired, timeout_ms)),
        channel_(channel),
        subarray_(subarray),
        last_retired_(last_retired),
        timeout_ms_(timeout_ms) {}

  std::size_t channel() const { return channel_; }
  std::size_t subarray() const { return subarray_; }
  std::uint64_t last_retired() const { return last_retired_; }
  double timeout_ms() const { return timeout_ms_; }

 private:
  static std::string format(std::size_t channel, std::size_t subarray,
                            std::uint64_t last_retired, double timeout_ms) {
    std::string msg = "engine stalled: channel " + std::to_string(channel) +
                      " made no progress for " + std::to_string(timeout_ms) +
                      " ms (last retired task index " +
                      std::to_string(last_retired);
    if (subarray != kNoSubarray)
      msg += ", stuck task targets sub-array " + std::to_string(subarray);
    msg += ")";
    return msg;
  }

  std::size_t channel_;
  std::size_t subarray_;
  std::uint64_t last_retired_;
  double timeout_ms_;
};

/// Thrown by the process-pool supervisor (runtime/procpool.hpp) when a
/// device worker keeps crashing past the restart budget and degrading to
/// the in-process pool is disabled. Carries the device index and the
/// typed exit classification of the final crash, so operators can tell a
/// SIGKILLed worker from a torn protocol stream in the exit status alone.
class WorkerCrashedError : public SimulationError {
 public:
  WorkerCrashedError(std::size_t device, const std::string& classification,
                     const std::string& detail)
      : SimulationError("device worker " + std::to_string(device) +
                        " crashed (" + classification +
                        ") and the restart budget is exhausted" +
                        (detail.empty() ? "" : ": " + detail)),
        device_(device),
        classification_(classification) {}

  std::size_t device() const { return device_; }
  const std::string& classification() const { return classification_; }

 private:
  std::size_t device_;
  std::string classification_;
};

/// Documented process exit codes of the CLI tools (DESIGN.md §10).
enum ExitCode : int {
  kExitOk = 0,                ///< success
  kExitFailure = 1,           ///< unclassified runtime/logic error
  kExitUsage = 2,             ///< bad command line
  kExitInputFormat = 3,       ///< malformed FASTA/FASTQ input
  kExitIo = 4,                ///< OS-level I/O failure
  kExitCorruptCheckpoint = 5, ///< checkpoint rejected (checksum/version/compat)
  kExitEngineStalled = 6,     ///< watchdog converted a hang into a failure
  kExitInterrupted = 7,       ///< cancelled (signal / cancel verb); resumable
  kExitAdmissionRejected = 8, ///< service refused the job (queue full/draining)
  kExitDeadlineExceeded = 9,  ///< client --timeout expired before a response
  kExitWorkerCrashed = 10,    ///< isolated device worker crashed past budget
};

/// One row of the typed-error table: an error class, the name it travels
/// under (worker wire, daemon job records and responses) and its exit code.
struct ErrorClass {
  const char* name;
  int exit_code;
  /// True when the exception is this class or derives from it.
  bool (*matches)(const std::exception&);
  /// Throws the class with `message`; null for classes without a message
  /// constructor (EngineStalledError, WorkerCrashedError).
  void (*raise)(const std::string& message);
};

namespace detail {
[[noreturn]] inline void throw_precondition(const char* expr, const char* file,
                                            int line, const std::string& msg) {
  throw PreconditionError(std::string(file) + ":" + std::to_string(line) +
                          ": precondition failed: " + expr +
                          (msg.empty() ? "" : " — " + msg));
}

template <class E>
bool is_a(const std::exception& e) {
  return dynamic_cast<const E*>(&e) != nullptr;
}
template <class E>
void raise_as(const std::string& message) {
  throw E(message);
}
template <class E>
constexpr ErrorClass error_row(const char* name, int exit_code) {
  if constexpr (std::is_constructible_v<E, const std::string&>)
    return {name, exit_code, &is_a<E>, &raise_as<E>};
  else
    return {name, exit_code, &is_a<E>, nullptr};
}
}  // namespace detail

/// The one error table (DESIGN.md §10). Most-derived class first, so the
/// first matching row classifies an exception: CorruptCheckpointError wins
/// over its IoError base, EngineStalledError over SimulationError.
#define PIMA_ERROR_ROW(cls, code) detail::error_row<cls>(#cls, code)
inline constexpr ErrorClass kErrorTable[] = {
    PIMA_ERROR_ROW(CorruptCheckpointError, kExitCorruptCheckpoint),
    PIMA_ERROR_ROW(IoError, kExitIo),
    PIMA_ERROR_ROW(InputFormatError, kExitInputFormat),
    PIMA_ERROR_ROW(EngineStalledError, kExitEngineStalled),
    PIMA_ERROR_ROW(WorkerCrashedError, kExitWorkerCrashed),
    PIMA_ERROR_ROW(SimulationError, kExitFailure),
    PIMA_ERROR_ROW(CancelledError, kExitInterrupted),
    PIMA_ERROR_ROW(AdmissionRejectedError, kExitAdmissionRejected),
    PIMA_ERROR_ROW(DeadlineExceededError, kExitDeadlineExceeded),
    PIMA_ERROR_ROW(PreconditionError, kExitFailure),
};
#undef PIMA_ERROR_ROW

/// The row of any exception the table does not list.
inline constexpr ErrorClass kUnlistedError{"RuntimeError", kExitFailure,
                                           nullptr, nullptr};

/// The table row classifying `e`.
inline const ErrorClass& error_class_of(const std::exception& e) {
  for (const ErrorClass& row : kErrorTable)
    if (row.matches(e)) return row;
  return kUnlistedError;
}

/// The row named `name`, or kUnlistedError for a name the table does not
/// list.
inline const ErrorClass& error_class_named(std::string_view name) {
  for (const ErrorClass& row : kErrorTable)
    if (name == row.name) return row;
  return kUnlistedError;
}

/// The table name of an exception ("RuntimeError" when unlisted).
inline const char* error_name(const std::exception& e) {
  return error_class_of(e).name;
}

/// Maps an exception to its documented exit code.
inline int exit_code_for(const std::exception& e) {
  return error_class_of(e).exit_code;
}

}  // namespace pima

/// Precondition check: throws pima::PreconditionError with location info.
#define PIMA_CHECK(expr, msg)                                              \
  do {                                                                     \
    if (!(expr)) [[unlikely]]                                              \
      ::pima::detail::throw_precondition(#expr, __FILE__, __LINE__, (msg)); \
  } while (false)
