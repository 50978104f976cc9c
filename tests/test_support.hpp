// Helpers shared by the test binaries.
#pragma once

#include "dram/device.hpp"
#include "dram/isa.hpp"
#include "telemetry/session.hpp"

namespace pima::test_support {

/// A tracing device's whole capture: every sub-array's program appended in
/// flat order, the canonical replay order `pima_asm pim-run --dump-trace`
/// writes.
inline dram::Program captured_program(const dram::Device& device) {
  dram::Program program;
  for (std::size_t flat = 0; flat < device.geometry().total_subarrays(); ++flat)
    if (const dram::Program* part = device.trace_if(flat))
      program.insert(program.end(), part->begin(), part->end());
  return program;
}

/// Returns the process-wide telemetry session's tracer and sinks to idle:
/// tracing off, no buffered spans, no trace or metrics path. Metrics stay
/// in the session registry, so a test that reads metrics routes them into
/// a registry of its own (telemetry::ScopedMetricsRegistry).
inline void idle_telemetry_session() {
  auto& session = telemetry::TelemetrySession::instance();
  session.tracer().disable();
  session.tracer().clear();
  session.set_trace_path("");
  session.set_metrics_path("");
}

}  // namespace pima::test_support
