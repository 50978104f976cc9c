// One simulated chip of a run (PAPER.md §1: hash-table shards and edge
// blocks map to chips, then sub-arrays) — a dram::Device, its Engine, its
// slice of the k-mer PimHashTable and, with faults or recovery on, its
// RecoveryManager — and the wire that lets it live in a worker process
// (DESIGN.md §14–15).
//
// Both pipeline transports drive DeviceShard: in process by direct calls;
// isolated through ShardWorkerCore, the transport-free verb dispatcher
// each `pima_devd` worker wraps around one (so tests exercise the protocol
// in-process and the pima_devd main() stays a thin I/O loop; its engine
// runs the watchdog, so a wedged kernel becomes a typed
// EngineStalledError). The rpc side decodes the workers' lists with the
// *_from_json functions below, which reject what no worker sends, before
// the shared dram::fold_in_flat_order / merge_in_flat_order.
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
#include <string>
#include <vector>

#include "circuit/tech.hpp"
#include "core/degree.hpp"
#include "core/pim_hash_table.hpp"
#include "dram/device.hpp"
#include "dram/fault.hpp"
#include "dram/geometry.hpp"
#include "dram/isa.hpp"
#include "net/json.hpp"
#include "runtime/engine.hpp"
#include "runtime/recovery.hpp"
#include "telemetry/metrics.hpp"

namespace pima::core {

/// One device of a run and the work the pipeline stages queue on it. The
/// hash table holds the run's hash shards from flat 0 (shard s at flat s);
/// a sharded run feeds each device only the k-mers of the shards it owns
/// (dram::owner_of). Every submission runs under runtime::submit_guarded.
class DeviceShard {
 public:
  /// `device` must outlive the shard. The table counts k-mers of length
  /// `k` in `hash_shards` shards; a channel's pending k-mers are queued as
  /// one task once `kmer_batch` of them wait. `fault` is attached to the
  /// device, and with faults or recovery on, the table's probes run
  /// through a RecoveryManager.
  DeviceShard(dram::Device& device, const runtime::EngineOptions& engine,
              std::size_t hash_shards, std::size_t k, std::size_t kmer_batch,
              const dram::FaultConfig& fault = {},
              const runtime::RecoveryOptions& recovery = {});
  /// Stops the channels first: queued tasks reference the table.
  ~DeviceShard();

  DeviceShard(const DeviceShard&) = delete;
  DeviceShard& operator=(const DeviceShard&) = delete;

  std::size_t hash_shards() const { return table_.shard_count(); }

  /// Adds the k-mer to the pending batch of the channel owning its hash
  /// shard; a full batch is queued as one task.
  void add_kmer(const assembly::Kmer& kmer);
  /// Queues every channel's pending batch as one task, in channel order.
  void flush_kmers();
  /// Barrier: waits for every queued task and rethrows the first failure
  /// (Engine::drain). Pending k-mer batches stay pending.
  void drain();

  /// One hash shard's entries in slot order (costed row reads).
  KmerEntries extract_shard(std::size_t shard);
  std::size_t distinct_kmers() const;
  /// Queues an AAP program; every instruction must target this device.
  void submit_program(dram::Program program);
  /// Queues pim_column_sums over the block's adjacency rows on sub-array
  /// `flat`; the sums are discarded, the device work is what counts.
  void degree_block(std::size_t flat, std::size_t n, EdgeBlock block);

  /// Every sub-array that ran a command since the last clear_stats().
  dram::SubarrayStats subarray_stats() const;
  void clear_stats();
  /// Per-sub-array replay programs; empty unless the engine captures.
  dram::SubarrayPrograms traces() const;
  runtime::FaultStats fault_stats() const;
  /// Exports the engine counters — labelled {device=<label>} unless
  /// `device_label` is empty — and the recovery counters, whose
  /// {subarray=<flat>} labels are already unique across devices.
  void export_metrics(telemetry::MetricsRegistry& registry,
                      const std::string& device_label) const;

 private:
  /// Queues the channel's pending k-mers as one task.
  void queue_batch(std::size_t channel);

  dram::Device& device_;
  runtime::Engine engine_;
  std::unique_ptr<runtime::RecoveryManager> recovery_;
  PimHashTable table_;
  std::size_t kmer_batch_;
  std::vector<std::vector<assembly::Kmer>> pending_;  ///< one per channel
};

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
  /// The worker engine's channels, queue capacity, trace capture and
  /// stall timeout (`force_worker` does not ride the wire: a worker always
  /// owns a real channel thread).
  runtime::EngineOptions engine;
  bool trace_spans = false;  ///< enable the worker's own telemetry tracer
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

// The decoders below take the sender's place in the run: worker `device`
// of `devices`, over a geometry of `total` sub-arrays. Each throws
// InputFormatError on an entry the worker could not have sent: a flat out
// of range, owned by another device, or repeated.

/// The `subarrays` list of a `stats` response.
net::Json subarray_stats_to_json(const dram::SubarrayStats& stats);
dram::SubarrayStats subarray_stats_from_json(const net::Json& list,
                                             std::size_t device,
                                             std::size_t devices,
                                             std::size_t total);

/// The `programs` list of a `trace` response: {flat, text} per sub-array.
/// Unparseable text is an InputFormatError.
net::Json subarray_programs_to_json(const dram::SubarrayPrograms& programs);
dram::SubarrayPrograms subarray_programs_from_json(const net::Json& list,
                                                   std::size_t device,
                                                   std::size_t devices,
                                                   std::size_t total);

/// The `shards` list of an `extract` response: each shard's entries as
/// one flat [kmer, freq, kmer, freq, ...] array, in request order.
net::Json extract_shards_to_json(const std::vector<KmerEntries>& shards);
/// Decodes the answer to `count` requested shards of k-mers of length k.
/// Throws InputFormatError on a list of another length, an odd-length
/// shard list, a frequency above 2^32 - 1 or a k-mer wider than 2k bits.
std::vector<KmerEntries> extract_shards_from_json(const net::Json& shards,
                                                  std::size_t count,
                                                  std::size_t k);

/// The `pima_devd` verb dispatcher around one DeviceShard.
class ShardWorkerCore {
 public:
  /// Constructs the device and its shard from an `init` request.
  explicit ShardWorkerCore(const net::Json& init);

  /// Dispatches one non-init request and returns its ok-response. Typed
  /// pima exceptions escape to the caller (pima_devd converts them into
  /// `{"ok":false,"error":...}` lines; EngineStalledError additionally
  /// ends the process with the stall exit code — the engine is poisoned).
  net::Json handle(const net::Json& request);

  bool shutdown_requested() const { return shutdown_; }

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
  DeviceShard shard_;
  bool shutdown_ = false;
};

/// Formats an exception as the `{"ok":false,...}` response object: its
/// error_name() plus EngineStalledError's reconstruction fields.
net::Json worker_error_response(const std::exception& e);

}  // namespace pima::core
