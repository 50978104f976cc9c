// Injectable syscall shim for the I/O and service plane (DESIGN.md §13).
//
// Every syscall the persistence and socket layers depend on — open, read,
// write, fsync, rename, send, connect — goes through the thin wrappers
// below, as do the process-pool supervisor's socketpair, waitpid and kill.
// With no fault plan installed they are a passthrough: one relaxed atomic
// load, then the raw syscall. With a plan installed (programmatically or
// via the PIMA_IOFAULT environment variable) each call first consults a
// deterministic, seeded FaultPlan that can fail it with a chosen errno,
// inject EINTR storms, shorten the transfer, or cut the process dead
// mid-write — the compute plane's inject-and-verify discipline, applied
// to the host I/O path so crash-anywhere claims are testable.
//
// FaultPlan spec grammar (PIMA_IOFAULT):
//
//   spec    := [ 'seed=' N ';' ] rule ( ';' rule )*
//   rule    := op [ '@' site ] ':' trigger ':' action
//   op      := open|read|write|fsync|rename|send|connect|socketpair|waitpid
//            | kill|*
//   site    := substring matched against the call-site tag
//              ("checkpoint", "job.json", "wire", "connect", "artifact")
//   trigger := 'nth=' K      the K-th matching call (1-based), fires once
//            | 'p=' F        each matching call with probability F (seeded)
//            | 'always'      every matching call
//   action  := 'errno=' NAME fail with that errno (ENOSPC, EIO, EPIPE, …)
//            | 'eintr=' K    this and the next K-1 matching calls EINTR
//            | 'short'       transfer only half the requested bytes
//            | 'crash'       torn-write crash point: write half, then
//                            _exit(kCrashExitCode) with no cleanup
//
// Examples:
//   PIMA_IOFAULT='write@checkpoint:nth=3:errno=ENOSPC'
//   PIMA_IOFAULT='seed=7;send@wire:p=0.01:errno=EPIPE;read@wire:nth=5:eintr=3'
//   PIMA_IOFAULT='rename@job.json:nth=1:crash'
//
// The wrappers return exactly like the raw syscalls (-1 + errno), so
// hardened callers keep one error path for real and injected failures.
// Fault decisions and injection counters are thread-safe; installing or
// clearing a plan is not safe concurrently with in-flight wrapped calls
// (install before spawning workers, as the tools and tests do).
#pragma once

#include <sys/socket.h>
#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pima::fsio {

/// Process exit status of an injected `crash` action. Distinctive so a
/// test harness can tell an injected torn-write crash from a real one.
inline constexpr int kCrashExitCode = 86;

enum class Op : std::uint8_t {
  kOpen,
  kRead,
  kWrite,
  kFsync,
  kRename,
  kSend,
  kConnect,
  kSocketpair,
  kWaitpid,
  kKill,
  kAny,  ///< `*` in a rule: matches every op
};

/// Deterministic, seeded injection schedule. Parse once, install
/// process-wide; decide() is called by every wrapped syscall.
class FaultPlan {
 public:
  struct Decision {
    enum class Kind : std::uint8_t { kNone, kErrno, kShort, kCrash };
    Kind kind = Kind::kNone;
    int err = 0;  ///< errno to inject for kErrno
  };

  /// Parses the spec grammar above. Throws InputFormatError naming the
  /// offending token on any malformed rule.
  static FaultPlan parse(const std::string& spec);

  /// The fate of one call at `site`. Thread-safe; mutates trigger state
  /// (nth counters, EINTR storms, RNG stream).
  Decision decide(Op op, const char* site);

  std::uint64_t seed() const { return seed_; }
  std::size_t rule_count() const { return rules_.size(); }
  const std::string& spec() const { return spec_; }

 private:
  struct Rule {
    Op op = Op::kAny;
    std::string site;           ///< empty = any site
    std::uint64_t nth = 0;      ///< 0 = not an nth trigger
    double probability = -1.0;  ///< <0 = not a probability trigger
    bool always = false;
    Decision::Kind action = Decision::Kind::kErrno;
    int err = 0;
    std::uint64_t eintr_burst = 0;  ///< >0: action arms an EINTR storm
    // Mutable trigger state (guarded by FaultPlan::mutex_).
    std::uint64_t calls_seen = 0;
    bool fired = false;
    std::uint64_t storm_left = 0;
  };

  std::uint64_t seed_ = 2020;
  std::uint64_t rng_state_ = 0;
  std::string spec_;
  std::vector<Rule> rules_;
  struct Impl;  // mutex lives in the .cpp to keep this header light
  std::shared_ptr<Impl> impl_;

  // install_plan backfills impl_ for default-constructed plans.
  friend void install_plan(FaultPlan plan);
};

/// Installs `plan` as the process-wide plan (replacing any previous one).
void install_plan(FaultPlan plan);
/// Removes the active plan; wrappers revert to zero-overhead passthrough.
void clear_plan();
/// True when a plan is active (installed or loaded from PIMA_IOFAULT).
bool plan_active();
/// Forces the lazy PIMA_IOFAULT load now so a malformed spec surfaces as a
/// typed InputFormatError at startup instead of mid-run.
void load_env_plan();

// ---- diagnostics hook ------------------------------------------------------
// common/ sits below telemetry/ in the layering, so fsio's few warnings
// (fault-plan activation, directory-fsync degradation) go through a
// pluggable sink instead of including the structured logger directly.
// telemetry::Logger installs itself here on first use; the default
// rendering is the historical fprintf(stderr, "fsio: ...") form.

enum class LogSeverity { kInfo, kWarn, kError };
/// `code` is a stable dot-separated event code (e.g. "iofault.active");
/// `message` is the human-readable text without the "fsio: " prefix.
using LogFn = void (*)(LogSeverity, const char* code, const char* message);
/// Installs the diagnostics sink; nullptr restores the default stderr
/// rendering. The hook may be called from any thread but never from
/// signal handlers.
void set_log_fn(LogFn fn);
/// Routes one diagnostic through the installed sink (or the default).
void emit_log(LogSeverity severity, const char* code, const char* message);

/// Injection counters, exported as `pima_io_fault_*` telemetry by the
/// daemon's metrics fold. Plain atomics here — common/ sits below
/// telemetry/ in the layering.
struct Counters {
  std::uint64_t injected_total = 0;  ///< every non-passthrough decision
  std::uint64_t errno_injected = 0;
  std::uint64_t eintr_injected = 0;
  std::uint64_t short_injected = 0;
  std::uint64_t crash_points = 0;    ///< crash actions taken (pre-_exit)
  std::uint64_t dirsync_failed = 0;  ///< directory fsyncs that failed
};
Counters counters();
void reset_counters();

// ---- wrapped syscalls ------------------------------------------------------
// Same contract as the raw calls: -1 + errno on failure (injected or
// real), byte counts on success. `site` tags the call site for FaultPlan
// rule matching and never reaches the kernel.

int open(const char* path, int flags, unsigned mode, const char* site);
ssize_t read(int fd, void* buf, std::size_t count, const char* site);
ssize_t write(int fd, const void* buf, std::size_t count, const char* site);
int fsync(int fd, const char* site);
int rename(const char* from, const char* to, const char* site);
ssize_t send(int fd, const void* buf, std::size_t count, int flags,
             const char* site);
int connect(int fd, const struct sockaddr* addr, socklen_t len,
            const char* site);

// Process-control wrappers for the process-pool supervisor: spawning
// (socketpair), reaping (waitpid) and terminating (kill) device workers go
// through the same fault shim, so chaos plans can starve the supervisor of
// fds or make reaps/kills fail with typed errnos.
int socketpair(int domain, int type, int protocol, int sv[2],
               const char* site);
pid_t waitpid(pid_t pid, int* status, int options, const char* site);
int kill(pid_t pid, int sig, const char* site);

// ---- hardened helpers ------------------------------------------------------

/// Crash-safe whole-file write: <path>.tmp + fsync + rename + directory
/// fsync, all through the wrappers above, retrying EINTR. A reader sees
/// the old content or the new content, never a truncated file. Throws
/// IoError (the tmp file is removed) on any failure, and before touching
/// anything when `path` exists but is not a regular file.
void atomic_write_file(const std::string& path, const std::string& content,
                       const char* site);

/// Best-effort durability of a rename: fsync the directory containing
/// `path`. A failure (some filesystems reject directory fsync) is not an
/// error for the caller, but it IS counted (Counters::dirsync_failed →
/// `pima_io_fault_dirsync_failed_total`) and logged once per process, so
/// operators can see when rename durability is not guaranteed.
void fsync_parent_dir(const std::string& path, const char* site);

}  // namespace pima::fsio
