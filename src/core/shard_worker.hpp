// Device-worker core of the process-isolated runtime (DESIGN.md §15).
//
// `pima_devd` hosts exactly one device shard of an isolated pipeline run:
// a dram::Device, a runtime::Engine (with the watchdog, so a wedged kernel
// becomes a typed EngineStalledError instead of a silent hang) and the
// shard's slice of the PimHashTable. The parent supervisor drives it with
// newline-delimited JSON requests; this class is the transport-free verb
// dispatcher, so tests can exercise the protocol in-process and the
// `pima_devd` main() stays a thin I/O loop.
//
// Verbs (one request object per line, one response object per request):
//
//   init          geometry + technology + engine/table configuration
//   kmers         enqueue one superstep of the device's k-mers (stage-1
//                 insert path): kmers [kmer, ...] in stream order; the
//                 worker routes each to the channel owning its hash shard
//   drain         barrier: wait for queued work, surface typed failures
//   extract       the (k-mer, freq) entries of the listed hash shards, in
//                 slot order: shards [s, ...] → [[kmer, freq, ...], ...]
//   distinct      controller-side distinct-key count
//   program       parse + submit an AAP program slice (stages 2/3)
//   degree_block  rebuild each edge block's adjacency rows and run
//                 pim_column_sums on its sub-array (stage-3 kernel):
//                 blocks [[flat, n_local_sources, (from, to, mult)...], ...]
//   stats         per-sub-array CommandStats of every touched sub-array
//   clear_stats   stage-boundary statistics reset
//   trace         per-sub-array replay programs (oracle capture)
//   telemetry     cumulative span-buffer export for trace stitching
//   ping          liveness probe
//   shutdown      graceful exit handshake
//
// Determinism: the device state and statistics after any request sequence
// are a pure function of that sequence — the engine's per-sub-array
// ordering contract makes channel count irrelevant — which is what lets
// the supervisor replay a journal into a fresh worker after a crash and
// land on bit-identical state.
#pragma once

#include <cstddef>
#include <memory>

#include "circuit/tech.hpp"
#include "core/pim_hash_table.hpp"
#include "dram/device.hpp"
#include "dram/geometry.hpp"
#include "net/json.hpp"
#include "runtime/engine.hpp"

namespace pima::core {

/// Configuration carried by the init request. Doubles ride the wire as
/// plain JSON numbers — the writer's shortest round-trip-exact rendering
/// reproduces them bit-for-bit on the worker side.
struct WorkerInit {
  dram::Geometry geometry;
  circuit::Technology technology;
  std::size_t device = 0;   ///< this worker's shard id (diagnostics)
  std::size_t devices = 1;  ///< total shard count (diagnostics)
  std::size_t k = 0;
  std::size_t hash_shards = 1;
  std::size_t channels = 1;  ///< 0 = one per hardware thread (engine)
  std::size_t queue_capacity = 64;
  bool capture_trace = false;
  bool trace_spans = false;  ///< enable the worker's own telemetry tracer
  double stall_timeout_ms = 0.0;
};

/// Serializes a WorkerInit as the `init` request object.
net::Json worker_init_to_json(const WorkerInit& init);
/// Parses an `init` request; throws InputFormatError on malformed fields.
WorkerInit worker_init_from_json(const net::Json& j);

/// One entry of the `stats` response: a touched sub-array's flat index and
/// CommandStats, doubles exact on the wire.
net::Json stats_entry_to_json(std::size_t flat, const dram::CommandStats& st);
/// The CommandStats of a `stats` entry; throws InputFormatError unless
/// `counts` holds exactly one count per command kind.
dram::CommandStats stats_entry_from_json(const net::Json& entry);

class ShardWorkerCore {
 public:
  /// Constructs the device/engine/table from an `init` request.
  explicit ShardWorkerCore(const net::Json& init);
  ~ShardWorkerCore();

  /// Dispatches one non-init request and returns its ok-response. Typed
  /// pima exceptions escape to the caller (pima_devd converts them into
  /// `{"ok":false,"error":...}` lines; EngineStalledError additionally
  /// ends the process with the stall exit code — the engine is poisoned).
  net::Json handle(const net::Json& request);

  bool shutdown_requested() const { return shutdown_; }
  std::size_t device_index() const { return init_.device; }

 private:
  net::Json op_kmers(const net::Json& req);
  net::Json op_drain();
  net::Json op_extract(const net::Json& req);
  net::Json op_distinct();
  net::Json op_program(const net::Json& req);
  net::Json op_degree_block(const net::Json& req);
  net::Json op_stats();
  net::Json op_clear_stats();
  net::Json op_trace();
  net::Json op_telemetry();

  WorkerInit init_;
  dram::Device device_;
  std::unique_ptr<runtime::Engine> engine_;
  std::unique_ptr<PimHashTable> table_;
  bool shutdown_ = false;
};

/// Maps an exception to the wire error-type name the supervisor's
/// throw_worker_error() reconstructs (most-derived first, like
/// exit_code_for).
const char* worker_error_type(const std::exception& e);

/// Formats an exception as the `{"ok":false,...}` response object,
/// including EngineStalledError's reconstruction fields.
net::Json worker_error_response(const std::exception& e);

}  // namespace pima::core
