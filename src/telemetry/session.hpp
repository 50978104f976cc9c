// Process-wide telemetry session: one Tracer + one MetricsRegistry plus
// the output sinks they flush to.
//
// The session is an intentionally leaked singleton (never destroyed), so
// worker threads that outlive their Engine — e.g. a wedged channel worker
// abandoned by the watchdog — can still touch their ring buffers safely at
// process exit.
//
// flush() writes every configured sink: the Chrome trace JSON to the
// trace path, and the Prometheus text + JSON snapshot to the metrics path
// (JSON at `<path>.json`). It is idempotent and callable mid-run — the
// engine watchdog flushes on a stall so a wedged run still leaves a
// readable trace behind, and a normal run's final flush simply overwrites
// the partial files.
#pragma once

#include <cstdint>
#include <string>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace pima::telemetry {

class TelemetrySession {
 public:
  static TelemetrySession& instance();

  Tracer& tracer() { return tracer_; }
  MetricsRegistry& metrics() { return metrics_; }

  void enable_metrics() {
    metrics_enabled_.store(true, std::memory_order_release);
  }
  bool metrics_enabled() const {
    return metrics_enabled_.load(std::memory_order_relaxed);
  }

  /// Sink paths; empty disables the corresponding flush output.
  void set_trace_path(const std::string& path);
  void set_metrics_path(const std::string& path);

  /// Writes all configured sinks (trace JSON; Prometheus text + JSON
  /// snapshot). Serialized by an internal mutex — safe from the watchdog
  /// while the main thread is also flushing. Throws IoError if a sink
  /// cannot be written.
  void flush();

  /// Writes the Chrome trace JSON / metrics to an explicit path.
  void write_trace(const std::string& path) const;
  void write_metrics(const std::string& prometheus_path) const;

 private:
  TelemetrySession() = default;

  Tracer tracer_;
  MetricsRegistry metrics_;
  std::atomic<bool> metrics_enabled_{false};
  mutable std::mutex flush_mutex_;
  std::string trace_path_;
  std::string metrics_path_;
};

inline Tracer& tracer() { return TelemetrySession::instance().tracer(); }

namespace detail {
/// Per-thread registry override (see ScopedMetricsRegistry). Nullptr means
/// "use the process-wide session registry".
inline thread_local MetricsRegistry* tls_metrics_override = nullptr;
}  // namespace detail

/// The calling thread's effective registry: the thread-local override when
/// one is installed (a service job's private registry), otherwise the
/// process-wide session registry. Every instrumentation site resolves
/// through here, so a multi-tenant host can give each job its own metric
/// namespace without touching the instrumented code.
inline MetricsRegistry& metrics() {
  MetricsRegistry* o = detail::tls_metrics_override;
  return o != nullptr ? *o : TelemetrySession::instance().metrics();
}
inline bool metrics_enabled() {
  return TelemetrySession::instance().metrics_enabled();
}

/// RAII: routes this thread's telemetry::metrics() to `registry` for the
/// scope's lifetime (nullptr restores the process-wide registry). The
/// runtime engine captures the submitting thread's override when it spawns
/// channel workers and its watchdog, so a pipeline run started under a
/// scoped registry records *all* of its metrics — controller, workers,
/// recovery events — into that registry.
class ScopedMetricsRegistry {
 public:
  explicit ScopedMetricsRegistry(MetricsRegistry* registry)
      : previous_(detail::tls_metrics_override) {
    detail::tls_metrics_override = registry;
  }
  ~ScopedMetricsRegistry() { detail::tls_metrics_override = previous_; }
  ScopedMetricsRegistry(const ScopedMetricsRegistry&) = delete;
  ScopedMetricsRegistry& operator=(const ScopedMetricsRegistry&) = delete;

  /// The override active on the calling thread (nullptr = process-wide).
  static MetricsRegistry* current() { return detail::tls_metrics_override; }

 private:
  MetricsRegistry* previous_;
};

/// RAII span: captures the start time on construction and records a
/// complete event on destruction. Free when tracing is disabled (one
/// relaxed load). `name`/`arg_name` must be string literals.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* arg_name = nullptr,
                      double value = 0.0) {
    Tracer& t = tracer();
    if (!t.enabled()) return;
    name_ = name;
    arg_name_ = arg_name;
    value_ = value;
    start_ns_ = t.now_ns();
  }
  ~ScopedSpan() {
    if (name_ == nullptr) return;
    Tracer& t = tracer();
    t.record_complete(name_, start_ns_, t.now_ns() - start_ns_, arg_name_,
                      value_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;
  const char* arg_name_ = nullptr;
  double value_ = 0.0;
  std::int64_t start_ns_ = 0;
};

}  // namespace pima::telemetry
