#include "telemetry/session.hpp"

#include "common/error.hpp"
#include "common/fsio.hpp"

namespace pima::telemetry {

TelemetrySession& TelemetrySession::instance() {
  // Deliberately leaked (see header): the function-local static pointer
  // keeps the object reachable, so LeakSanitizer stays quiet and detached
  // worker threads can outlive every other static.
  static TelemetrySession* session = new TelemetrySession();
  return *session;
}

void TelemetrySession::set_trace_path(const std::string& path) {
  std::lock_guard lock(flush_mutex_);
  trace_path_ = path;
}

void TelemetrySession::set_metrics_path(const std::string& path) {
  std::lock_guard lock(flush_mutex_);
  metrics_path_ = path;
}

namespace {

// Torn-write-safe: a monitoring scraper reading the previous trace or
// metrics file never observes a truncated one (fsio site "telemetry").
void write_file(const std::string& path, const std::string& content) {
  fsio::atomic_write_file(path, content, "telemetry");
}

}  // namespace

void TelemetrySession::write_trace(const std::string& path) const {
  write_file(path, tracer_.chrome_json());
}

void TelemetrySession::write_metrics(const std::string& prometheus_path) const {
  write_file(prometheus_path, metrics_.prometheus_text());
  write_file(prometheus_path + ".json", metrics_.json_snapshot());
}

void TelemetrySession::flush() {
  std::lock_guard lock(flush_mutex_);
  if (!trace_path_.empty()) write_trace(trace_path_);
  if (!metrics_path_.empty()) write_metrics(metrics_path_);
}

}  // namespace pima::telemetry
