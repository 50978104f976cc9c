// The device state a run's stages drive — a dram::Device, its Engine, the
// k-mer PimHashTable and, with faults or recovery on, a RecoveryManager —
// and the wire that lets it live in a worker process (DESIGN.md §14–15).
// PAPER.md §1 maps hash-table shards and edge blocks to chips, then
// sub-arrays; here a chip is a set of engine channels, and the map is
// dram::owner_of(flat, channels).
//
// A run has one DeviceShard over one device, whose engine has devices ×
// threads channels, so channel c serves chip c mod devices. In process the
// shard drives the caller's device; isolated, it lives in the run's one
// pima_devd worker behind ShardWorkerCore, the transport-free verb
// dispatcher (so tests exercise the protocol in-process and the pima_devd
// main() stays a thin I/O loop; its engine runs the watchdog, so a wedged
// kernel becomes a typed EngineStalledError). The rpc side decodes the
// worker's answers with the *_from_json functions below, which reject what
// no worker sends, before dram::fold_in_flat_order and the flat-order
// trace append.
//
// Verbs (one request object per line, one response object per request).
// The bulk payloads — kmers, program, degree_block and the extract answer —
// are one packed string each: decimal unsigned integers separated by
// single spaces (net::pack_uint / net::unpack_uints), written "a b ..."
// below, with "x m" for a group repeated m times:
//
//   init          geometry + technology + engine/table configuration
//   kmers         enqueue one superstep of the run's k-mers (stage-1
//                 insert path): kmers "kmer ..." in stream order; the
//                 worker routes each to the channel owning its hash shard
//   drain         barrier: wait for queued work, surface typed failures
//   extract       the (k-mer, freq) entries of the listed hash shards, in
//                 slot order: shards [s, ...] → shards "(m (kmer freq) x m)
//                 ..." with one group per requested shard, in request order
//   program       submit an AAP program slice (stages 2/3): insts holds one
//                 record per instruction, "op sa src1 src2 src3 dst size
//                 width", op a dram::Opcode value; a ROW_WRITE record goes
//                 on with "bits 0" for an all-zero row or "bits 1 w ..."
//                 with its ceil(bits / 64) words, LSB first
//   degree_block  render each edge block's adjacency rows and run the
//                 column-sum kernel on its sub-array (stage-3 kernel):
//                 blocks "(flat n_local_sources m (from to mult) x m) ..."
//   stats         the stage boundary: per-sub-array CommandStats of every
//                 touched sub-array, which the answer then clears
//                 (DeviceShard::take_stats); journaled, so a replay clears
//                 where the original run did
//   trace         one sub-array's replay program (oracle capture):
//                 flat f → insts, packed as in `program`; empty if the
//                 sub-array ran no command
//   telemetry     cumulative span-buffer export for trace stitching
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
#include <string_view>
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

/// One device and the work the pipeline stages queue on it. The hash table
/// holds the run's hash shards from flat 0 (shard s at flat s). Every
/// submission runs under runtime::submit_guarded.
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
  /// Queues an AAP program; every instruction must target this device.
  void submit_program(dram::Program program);
  /// Queues the degree job of `block` (run_degree_job) on sub-array
  /// `flat`. Fault-free, the job checks its sums against the block's host
  /// degrees, and a mismatch fails the task; the sums are then discarded.
  void degree_block(std::size_t flat, std::size_t n, EdgeBlock block);

  /// Stage boundary: every sub-array that ran a command since the last
  /// call, with its stats, which are then cleared.
  dram::SubarrayStats take_stats();
  /// Sub-array `flat`'s replay program; null unless the engine captures
  /// and the sub-array was touched.
  const dram::Program* trace(std::size_t flat) const;
  runtime::FaultStats fault_stats() const;
  /// Exports the engine counters and the recovery counters.
  void export_metrics(telemetry::MetricsRegistry& registry) const;

 private:
  /// Queues the channel's pending k-mers as one task.
  void queue_batch(std::size_t channel);

  dram::Device& device_;
  runtime::Engine engine_;
  std::unique_ptr<runtime::RecoveryManager> recovery_;
  PimHashTable table_;
  std::size_t kmer_batch_;
  std::vector<std::vector<assembly::Kmer>> pending_;  ///< one per channel
  std::vector<ColumnSumScratch> degree_scratch_;      ///< one per channel
};

/// Configuration carried by the init request. Doubles ride the wire as
/// plain JSON numbers — the writer's shortest round-trip-exact rendering
/// reproduces them bit-for-bit on the worker side.
struct WorkerInit {
  dram::Geometry geometry;
  circuit::Technology technology;
  std::size_t k = 0;
  std::size_t hash_shards = 1;
  /// The worker engine's channels, trace capture and stall timeout
  /// (`force_worker` does not ride the wire: a worker always owns a real
  /// channel thread).
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

/// The `subarrays` list of a `stats` response.
net::Json subarray_stats_to_json(const dram::SubarrayStats& stats);
/// Decodes it for a geometry of `total` sub-arrays. Throws InputFormatError
/// on an entry the worker could not have sent: a flat out of range or
/// repeated.
dram::SubarrayStats subarray_stats_from_json(const net::Json& list,
                                             std::size_t total);

/// The program of a `trace` response for sub-array `flat` of a device with
/// rows of `columns` bits. Throws InputFormatError on what unpack_program
/// rejects or an instruction aimed at another sub-array.
dram::Program subarray_trace_from_json(const net::Json& response,
                                       std::size_t flat, std::size_t columns);

/// The packed `shards` string of an `extract` response: each shard's entry
/// count, then its k-mers and frequencies, in request order.
net::Json extract_shards_to_json(const std::vector<KmerEntries>& shards);
/// Decodes the answer to `count` requested shards of k-mers of length k.
/// Throws InputFormatError on a string that is not a packed list, a list
/// that holds fewer or more than `count` shards, a frequency above 2^32 - 1
/// or a k-mer wider than 2k bits.
std::vector<KmerEntries> extract_shards_from_json(const net::Json& shards,
                                                  std::size_t count,
                                                  std::size_t k);

/// Appends one edge block to a packed `degree_block` batch; with
/// `transposed`, each edge's from and to swap (the out-degree block).
void append_degree_block(std::string& out, std::size_t flat, std::size_t n,
                         const EdgeBlock& block, bool transposed);

/// The packed `insts` string of a `program` request.
std::string pack_program(const dram::Program& program);
/// Decodes a packed `insts` string for rows of `columns` bits. Throws
/// InputFormatError on a malformed list, an unknown opcode, a truncated
/// record, a zero size, a ROW_WRITE payload of another width, a zero-row
/// flag above 1 or a payload bit set past the width.
dram::Program unpack_program(std::string_view packed, std::size_t columns);

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
  net::Json op_program(const net::Json& req);
  net::Json op_degree_block(const net::Json& req);
  net::Json op_stats();
  net::Json op_trace(const net::Json& req);
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
