// Structured event log: one process-wide logger, two sinks.
//
// Every diagnostic the platform emits — worker crashes, restarts, pool
// degradation, I/O fault activation, skipped jobs — goes through here
// instead of ad-hoc fprintf(stderr). Each event carries a severity, a
// typed event code (dot-separated), monotonic + wall-clock timestamps, and
// optional structured fields ({job=, device=, ...}).
//
// Sinks:
//   * human-readable stderr rendering (always on):
//     `pima[warn] worker.failed: <message> (device=2)`;
//   * NDJSON (--log-json PATH|-): one JSON object per line, machine-
//     parseable, append-mode so a serve process can be tailed.
// Every emitted event is also pushed into the FlightRecorder's bounded
// ring, so crash reports always contain the most recent diagnostics.
//
// Rate limiting: a per-code token bucket (10 events/s, burst 20)
// bounds log volume when a failure repeats in a tight loop; suppressed
// events are counted and the count is attached to the next event that
// passes (`"suppressed": N`).
//
// Signal safety: log() allocates and takes a mutex — it must NOT be
// called from signal handlers (those use FlightRecorder's raw-write
// path). The *fast path* is signal-clean by construction: would_log() is
// one relaxed atomic load, and a call below the active level returns
// before any allocation or lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace pima::telemetry {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };
const char* to_string(LogLevel level);

/// One structured key/value attached to an event. `numeric` values are
/// emitted unquoted in the NDJSON sink.
struct LogField {
  std::string key;
  std::string value;
  bool numeric = false;

  static LogField str(std::string key, std::string value);
  static LogField num(std::string key, double value);
  static LogField uint(std::string key, std::uint64_t value);
};

class Logger {
 public:
  /// Process-wide instance (leaked, like TelemetrySession — log sites run
  /// during static destruction of other objects). First use installs the
  /// fsio log hook so common-layer diagnostics flow through the same
  /// sinks.
  static Logger& instance();

  void set_level(LogLevel level) {
    level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  LogLevel level() const {
    return static_cast<LogLevel>(level_.load(std::memory_order_relaxed));
  }
  /// The allocation-free fast path: hot call sites guard with this.
  bool would_log(LogLevel level) const {
    return static_cast<int>(level) >= level_.load(std::memory_order_relaxed);
  }

  /// NDJSON sink path: "" disables, "-" writes to stdout, anything else
  /// opens the file in append mode. Throws IoError if the file cannot be
  /// opened.
  void set_json_path(const std::string& path);

  void log(LogLevel level, const char* code, const std::string& message,
           std::vector<LogField> fields = {});

  /// Events dropped by the rate limiter since construction/reset.
  std::uint64_t suppressed_total() const {
    return suppressed_total_.load(std::memory_order_relaxed);
  }

  /// Restores defaults: level info, no JSON sink, token buckets refilled,
  /// counters zeroed.
  void reset_for_tests();

 private:
  Logger();
  ~Logger() = delete;

  struct Impl;
  Impl* impl_;  // cold state behind a mutex (sinks, buckets)
  std::atomic<int> level_{static_cast<int>(LogLevel::kInfo)};
  std::atomic<std::uint64_t> suppressed_total_{0};
};

/// Convenience forwarder: `log_event(LogLevel::kWarn, "worker.failed",
/// msg, {LogField::uint("device", d)})`.
void log_event(LogLevel level, const char* code, const std::string& message,
               std::vector<LogField> fields = {});

}  // namespace pima::telemetry
