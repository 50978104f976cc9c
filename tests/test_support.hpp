// Helpers shared by the test binaries.
#pragma once

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
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

/// Everything a caller can observe of a pipeline run: two runs that must
/// be indistinguishable (other device, channel or transport counts, or a
/// resume) agree on every field.
inline void expect_bit_identical(const core::PipelineResult& a,
                                 const core::PipelineResult& b) {
  EXPECT_EQ(a.contigs, b.contigs);
  EXPECT_EQ(a.distinct_kmers, b.distinct_kmers);
  EXPECT_EQ(a.graph.node_count(), b.graph.node_count());
  EXPECT_EQ(a.graph.edge_count(), b.graph.edge_count());
  EXPECT_EQ(a.hashmap.device, b.hashmap.device);
  EXPECT_EQ(a.debruijn.device, b.debruijn.device);
  EXPECT_EQ(a.traverse.device, b.traverse.device);
  EXPECT_EQ(a.fault_stats, b.fault_stats);
  EXPECT_EQ(a.contig_stats.count, b.contig_stats.count);
  EXPECT_EQ(a.contig_stats.n50, b.contig_stats.n50);
  EXPECT_EQ(a.contig_stats.total_length, b.contig_stats.total_length);
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
