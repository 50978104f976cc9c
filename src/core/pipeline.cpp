// One stage body, two transports (DESIGN.md §15). run_stages() below is
// the whole controller — k-mer routing, graph construction, partition
// choice, walks, checkpoints and every stat/metric fold — written once
// against ShardBackend, the device operations the stages need. Where the
// commands execute is the backend's business:
//
//   * InProcessShards: one core::DeviceShard per device, called directly;
//   * RpcShards (--isolate): every DeviceShard in its own pima_devd child
//     under the runtime::ProcSupervisor, driven by journaled NDJSON
//     requests batched per superstep (ProcSupervisor::rpc_all). A worker's
//     device state is a pure function of its request journal, so a crash
//     + replay lands on the exact pre-crash state.
//
// Sub-array `flat` lives on device dram::owner_of(flat, devices), and both
// fold statistics and traces through the same dram::fold_in_flat_order /
// dram::merge_in_flat_order, so contigs, per-stage DeviceStats,
// model-class metrics and trace bytes are identical across transports,
// device counts, channel counts and worker crashes.
#include "core/pipeline.hpp"

#include <algorithm>
#include <exception>
#include <fstream>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "core/degree.hpp"
#include "core/graph_map.hpp"
#include "core/shard_worker.hpp"
#include "dram/isa.hpp"
#include "dram/trace.hpp"
#include "net/json.hpp"
#include "runtime/engine.hpp"
#include "runtime/procpool.hpp"
#include "telemetry/log.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/session.hpp"
#include "telemetry/telemetry.hpp"

namespace pima::core {

dram::DeviceStats PipelineResult::total() const {
  return hashmap.device + debruijn.device + traverse.device;
}

namespace {

// Picks the number of vertex intervals so every interval fits the column
// width of a sub-array row (hash distribution is near-uniform; retry with
// more intervals if an outlier interval overflows).
GraphPartition partition_fitting(const assembly::DeBruijnGraph& g,
                                 const dram::Geometry& geom,
                                 std::uint32_t requested) {
  const std::size_t width = geom.columns;
  std::uint32_t m =
      requested > 0
          ? requested
          : static_cast<std::uint32_t>(
                std::max<std::size_t>(1, (g.node_count() + (width * 4) / 5 - 1) /
                                             ((width * 4) / 5)));
  for (;; ++m) {
    GraphPartition p = partition_graph(g, m);
    const bool fits = std::all_of(
        p.interval_vertices.begin(), p.interval_vertices.end(),
        [&](const auto& iv) { return iv.size() <= width; });
    if (fits) return p;
    PIMA_CHECK(requested == 0,
               "requested interval count leaves an oversized interval");
  }
}

// The run configuration the stages' command streams depend on — what a
// snapshot pins and a resume must match. Transport-independent: isolation
// changes where commands execute, never which commands run, so an
// isolated run resumes an in-process one and vice versa.
runtime::CheckpointFingerprint make_fingerprint(const dram::Geometry& geom,
                                                const PipelineOptions& o) {
  runtime::CheckpointFingerprint fp;
  fp.k = o.k;
  fp.hash_shards = o.hash_shards;
  fp.devices = o.devices;
  fp.graph_intervals = o.graph_intervals;
  fp.use_multiplicity = o.use_multiplicity;
  fp.euler_contigs = o.euler_contigs;
  fp.traversal = static_cast<std::uint8_t>(o.traversal);
  fp.rows = geom.rows;
  fp.compute_rows = geom.compute_rows;
  fp.columns = geom.columns;
  fp.subarrays_per_mat = geom.subarrays_per_mat;
  fp.mats_per_bank = geom.mats_per_bank;
  fp.banks = geom.banks;
  fp.fault_variation = o.fault.variation;
  fp.fault_seed = o.fault.seed;
  fp.fault_retention = o.fault.retention_flip_per_op;
  fp.fault_weak_rows = o.fault.weak_row_fraction;
  fp.recovery_mode = static_cast<std::uint8_t>(o.recovery.mode);
  return fp;
}

// The device operations of the three stages. Submissions may be batched;
// drain() ships whatever is pending and is the barrier that surfaces the
// first typed failure. Every fold is in logical flat order.
class ShardBackend {
 public:
  ShardBackend() = default;
  ShardBackend(const ShardBackend&) = delete;
  ShardBackend& operator=(const ShardBackend&) = delete;
  virtual ~ShardBackend() = default;

  /// Brings the shards up; `stages_done` stages come from a snapshot.
  virtual void start(std::uint32_t stages_done) = 0;
  /// Queues one hash-table insert on the shard owning the k-mer.
  virtual void submit_kmer(const assembly::Kmer& kmer) = 0;
  virtual void drain() = 0;
  /// The counted table, in (shard, slot) order.
  virtual KmerEntries extract() = 0;
  virtual std::size_t distinct_kmers() = 0;
  virtual void submit_program(dram::Program program) = 0;
  /// One degree-kernel job of for_each_degree_job.
  virtual void degree_block(std::size_t flat, std::size_t n,
                            const EdgeBlock& block, bool transposed) = 0;
  /// Stage boundary: the stage's stats, then cleared for the next stage.
  virtual dram::StatsFold end_stage(std::uint32_t stage) = 0;
  virtual dram::Program captured_trace() = 0;
  /// Fault/recovery counters this process accumulated.
  virtual runtime::FaultStats fault_stats() = 0;
  virtual void export_metrics(telemetry::MetricsRegistry& registry) = 0;
};

// ---- In-process transport --------------------------------------------------

runtime::EngineOptions engine_options(const PipelineOptions& o) {
  runtime::EngineOptions e;
  e.channels = o.threads;
  e.queue_capacity = o.queue_capacity;
  e.capture_trace = o.capture_trace;
  e.stall_timeout_ms = o.stall_timeout_ms;
  return e;
}

// The caller's device is shard 0; the backend owns devices 1..N-1 for the
// run. With devices == 1 every call goes to the one shard: the classic
// single-device path.
class InProcessShards final : public ShardBackend {
 public:
  InProcessShards(dram::Device& device, const PipelineOptions& options) {
    runtime::EngineOptions engine = engine_options(options);
    // With more than one device, even a one-channel engine must own a real
    // worker — otherwise every device would retire inline on the
    // controller thread and device-level parallelism would be fiction.
    engine.force_worker = options.devices > 1;
    for (std::size_t d = 0; d < options.devices; ++d) {
      if (d > 0)
        extras_.push_back(std::make_unique<dram::Device>(
            device.geometry(), device.technology()));
      shards_.push_back(std::make_unique<DeviceShard>(
          d == 0 ? device : *extras_.back(), engine, options.hash_shards,
          options.k, kKmerBatch, options.fault, options.recovery));
    }
  }

  void start(std::uint32_t) override {}

  // The owning device's shard batches the k-mer per channel and flushes
  // full batches through the bounded queues (backpressure throttles the
  // controller when the channels fall behind). One device skips the
  // routing hash: add_kmer hashes anyway.
  void submit_kmer(const assembly::Kmer& kmer) override {
    owner(shards_.size() == 1
              ? 0
              : hash_shard_of(kmer, shards_[0]->hash_shards()))
        .add_kmer(kmer);
  }

  // Drains every device in index order, then rethrows the lowest device's
  // failure (lowest channel within it — deterministic like Engine::drain).
  void drain() override {
    for (auto& shard : shards_) shard->flush_kmers();
    std::exception_ptr first;
    for (auto& shard : shards_) {
      try {
        shard->drain();
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    if (first) std::rethrow_exception(first);
  }

  // Shard by shard from its owner, so the list concatenates in
  // (shard, slot) order.
  KmerEntries extract() override {
    KmerEntries entries;
    entries.reserve(distinct_kmers());
    for (std::size_t s = 0; s < shards_[0]->hash_shards(); ++s) {
      KmerEntries part = owner(s).extract_shard(s);
      entries.insert(entries.end(), std::make_move_iterator(part.begin()),
                     std::make_move_iterator(part.end()));
    }
    return entries;
  }

  std::size_t distinct_kmers() override {
    std::size_t total = 0;
    for (const auto& shard : shards_) total += shard->distinct_kmers();
    return total;
  }

  void submit_program(dram::Program program) override {
    auto parts = dram::split_by_owner(std::move(program), shards_.size());
    for (std::size_t d = 0; d < parts.size(); ++d)
      if (!parts[d].empty()) shards_[d]->submit_program(std::move(parts[d]));
  }

  void degree_block(std::size_t flat, std::size_t n, const EdgeBlock& block,
                    bool transposed) override {
    owner(flat).degree_block(flat, n, transposed ? transpose(block) : block);
  }

  dram::StatsFold end_stage(std::uint32_t) override {
    std::vector<dram::SubarrayStats> per_device;
    for (auto& shard : shards_) {
      per_device.push_back(shard->subarray_stats());
      shard->clear_stats();
    }
    return dram::fold_in_flat_order(per_device);
  }

  dram::Program captured_trace() override {
    std::vector<dram::SubarrayPrograms> per_device;
    for (const auto& shard : shards_) per_device.push_back(shard->traces());
    return dram::merge_in_flat_order(std::move(per_device));
  }

  // FaultStats counters are integral, so the per-device sum is exact.
  runtime::FaultStats fault_stats() override {
    runtime::FaultStats total;
    for (const auto& shard : shards_) total += shard->fault_stats();
    return total;
  }

  // One device exports like a bare Engine (no device label); more merge
  // {device="d"} registries in device order.
  void export_metrics(telemetry::MetricsRegistry& registry) override {
    for (std::size_t d = 0; d < shards_.size(); ++d)
      shards_[d]->export_metrics(
          registry, shards_.size() == 1 ? std::string{} : std::to_string(d));
  }

 private:
  /// K-mers per channel task.
  static constexpr std::size_t kKmerBatch = 128;

  DeviceShard& owner(std::size_t flat) {
    return *shards_[dram::owner_of(flat, shards_.size())];
  }

  // Declared first, destroyed last: every shard stops its engine before
  // its device goes.
  std::vector<std::unique_ptr<dram::Device>> extras_;
  std::vector<std::unique_ptr<DeviceShard>> shards_;
};

// ---- Rpc transport ---------------------------------------------------------

net::Json make_op(const char* name) {
  net::Json j = net::Json::object();
  j.set("op", name);
  return j;
}

// Encoded size of one wire number: its decimal digits plus a separator.
std::size_t encoded_size(std::uint64_t v) {
  std::size_t n = 2;
  for (; v >= 10; v /= 10) ++n;
  return n;
}

// Collects each device's `degree_block` batch for one superstep. A batch
// ships when the superstep ends, or earlier, alone, when the next block
// would push its request line past kBudgetBytes. Blocks keep the order
// they were added in, per device, so per sub-array order is unchanged.
class DegreeBatcher {
 public:
  /// Far below LineChannel::kMaxLineBytes (64 MiB): one request per
  /// device on any genome the geometry fits, a bounded line beyond that.
  static constexpr std::size_t kBudgetBytes = 4u << 20;

  explicit DegreeBatcher(runtime::ProcSupervisor& sup)
      : sup_(sup),
        blocks_(sup.devices(), net::Json::array()),
        bytes_(sup.devices(), 0) {}

  /// Appends [flat, n, (from, to, mult)...] to the batch of the sub-array's
  /// owner; with `transposed`, each edge's from and to swap (the
  /// out-degree block).
  void add(std::size_t flat, std::size_t n, const EdgeBlock& block,
           bool transposed) {
    const std::size_t owner = dram::owner_of(flat, sup_.devices());
    net::Json enc = net::Json::array();
    std::size_t bytes = 2 + encoded_size(flat) + encoded_size(n);
    enc.push_back(net::Json(static_cast<std::uint64_t>(flat)));
    enc.push_back(net::Json(static_cast<std::uint64_t>(n)));
    for (const auto& e : block.edges) {
      const std::uint32_t from = transposed ? e.to : e.from;
      const std::uint32_t to = transposed ? e.from : e.to;
      for (const std::uint32_t v : {from, to, e.multiplicity}) {
        enc.push_back(net::Json(static_cast<std::uint64_t>(v)));
        bytes += encoded_size(v);
      }
    }
    if (!blocks_[owner].items().empty() && bytes_[owner] + bytes > kBudgetBytes)
      ship(owner);
    blocks_[owner].push_back(std::move(enc));
    bytes_[owner] += bytes;
  }

  /// Ships every pending batch as one fan-out.
  void finish() { ship(sup_.devices()); }

 private:
  // Ships device `only`'s batch, or every batch when `only` is out of range.
  void ship(std::size_t only) {
    std::vector<net::Json> requests(sup_.devices());
    for (std::size_t d = 0; d < requests.size(); ++d) {
      if ((only < requests.size() && d != only) || blocks_[d].items().empty())
        continue;
      requests[d] = make_op("degree_block");
      requests[d].set("blocks", std::move(blocks_[d]));
      blocks_[d] = net::Json::array();
      bytes_[d] = 0;
    }
    (void)sup_.rpc_all(requests);
  }

  runtime::ProcSupervisor& sup_;
  std::vector<net::Json> blocks_;
  std::vector<std::size_t> bytes_;
};

runtime::ProcPoolOptions pool_options(const PipelineOptions& options) {
  runtime::ProcPoolOptions p;
  p.devices = options.devices;
  p.devd_path = options.isolate_opts.devd_path;
  p.liveness_timeout_s = options.isolate_opts.liveness_timeout_s;
  p.restart_budget = options.isolate_opts.restart_budget;
  p.restart_backoff_ms = options.isolate_opts.restart_backoff_ms;
  // A traced run must keep the whole journal: a restarted worker rebuilds
  // its trace sinks only by replaying every command since init.
  p.journal_truncation = !options.capture_trace;
  p.child_iofault = options.isolate_opts.child_iofault;
  return p;
}

// Every DeviceShard in a pima_devd worker. Only command *execution*
// crosses the process boundary; each verb is one request per device per
// superstep, every device's request written before any response is read.
// Statistics and traces come back per sub-array, are decoded into the
// lists InProcessShards reads directly, and go through the same folds.
class RpcShards final : public ShardBackend {
 public:
  RpcShards(const dram::Device& device, const PipelineOptions& options)
      : options_(options),
        total_(device.geometry().total_subarrays()),
        sup_(pool_options(options),
             [&device, &options](std::size_t d) {
               WorkerInit init;
               init.geometry = device.geometry();
               init.technology = device.technology();
               init.device = d;
               init.devices = options.devices;
               init.k = options.k;
               init.hash_shards = options.hash_shards;
               // channels 0 stays 0: the worker's engine resolves it.
               init.engine = engine_options(options);
               // Stitched tracing: when the controller captures spans, the
               // workers do too; the supervisor harvests their buffers at
               // stage boundaries.
               init.trace_spans = telemetry::tracer().enabled();
               return worker_init_to_json(init);
             }),
        degrees_(sup_),
        kmers_(options.devices) {
    if (options.fault.enabled() ||
        options.recovery.mode != runtime::RecoveryMode::kOff)
      throw SimulationError(
          "process isolation with fault injection or recovery is "
          "unsupported: the fault model's per-sub-array RNG streams and the "
          "recovery layer's probe routing are in-process state the worker "
          "init request does not carry — run --isolate fault-free, or drop "
          "--isolate");
  }

  void start(std::uint32_t stages_done) override {
    sup_.start();
    if (stages_done > 0) sup_.mark_stage_done(stages_done);
  }

  // Same shard routing as InProcessShards (shard s at flat s); the worker
  // picks the channel.
  void submit_kmer(const assembly::Kmer& kmer) override {
    const std::size_t flat = hash_shard_of(kmer, options_.hash_shards);
    kmers_[dram::owner_of(flat, sup_.devices())].push_back(kmer.packed());
    if (++kmers_pending_ >= kSuperstep) ship_kmers();
  }

  // rpc_all reads every response before rethrowing the lowest device's
  // typed failure — InProcessShards::drain's rule; a degraded pool aborts
  // immediately.
  void drain() override {
    ship_kmers();
    degrees_.finish();
    (void)sup_.rpc_all(to_every(make_op("drain")));
  }

  KmerEntries extract() override {
    std::vector<std::vector<std::size_t>> owned(sup_.devices());
    for (std::size_t s = 0; s < options_.hash_shards; ++s)
      owned[dram::owner_of(s, sup_.devices())].push_back(s);
    std::vector<net::Json> requests(sup_.devices());
    for (std::size_t d = 0; d < sup_.devices(); ++d) {
      if (owned[d].empty()) continue;
      net::Json shards = net::Json::array();
      for (const std::size_t s : owned[d])
        shards.push_back(net::Json(static_cast<std::uint64_t>(s)));
      requests[d] = make_op("extract");
      requests[d].set("shards", std::move(shards));
    }
    // Journaled, not a query: reading the table issues ROW_READs that the
    // stage's stats fold counts, so a restarted worker must replay them.
    const auto responses = sup_.rpc_all(requests);
    // Owners answer in request order; re-keyed by shard index, the lists
    // concatenate in (shard, slot) order.
    std::vector<KmerEntries> by_shard(options_.hash_shards);
    for (std::size_t d = 0; d < sup_.devices(); ++d) {
      if (owned[d].empty()) continue;
      auto lists = extract_shards_from_json(responses[d].get("shards"),
                                            owned[d].size(), options_.k);
      for (std::size_t i = 0; i < lists.size(); ++i)
        by_shard[owned[d][i]] = std::move(lists[i]);
    }
    KmerEntries entries;
    for (auto& list : by_shard)
      entries.insert(entries.end(), std::make_move_iterator(list.begin()),
                     std::make_move_iterator(list.end()));
    return entries;
  }

  std::size_t distinct_kmers() override {
    std::size_t total = 0;
    for (const auto& resp : sup_.query_all(to_every(make_op("distinct"))))
      total += static_cast<std::size_t>(resp.get_uint64("value"));
    return total;
  }

  // Ships each device's dram::split_by_owner sub-stream as one `program`
  // request of a single fan-out — the sub-streams InProcessShards submits,
  // so per sub-array command order is the single-device order.
  void submit_program(dram::Program program) override {
    const auto per = dram::split_by_owner(std::move(program), sup_.devices());
    std::vector<net::Json> requests(sup_.devices());
    for (std::size_t d = 0; d < per.size(); ++d) {
      if (per[d].empty()) continue;
      requests[d] = make_op("program");
      requests[d].set("text", dram::to_text(per[d]));
    }
    (void)sup_.rpc_all(requests);
  }

  // The workers rebuild the adjacency rows and run the full carry-save
  // reduction, so the device traffic matches the in-process run command
  // for command.
  void degree_block(std::size_t flat, std::size_t n, const EdgeBlock& block,
                    bool transposed) override {
    degrees_.add(flat, n, block, transposed);
  }

  dram::StatsFold end_stage(std::uint32_t stage) override {
    const auto responses = sup_.query_all(to_every(make_op("stats")));
    std::vector<dram::SubarrayStats> per_device;
    for (std::size_t d = 0; d < responses.size(); ++d)
      per_device.push_back(subarray_stats_from_json(
          responses[d].get("subarrays"), d, responses.size(), total_));
    const dram::StatsFold fold = dram::fold_in_flat_order(per_device);
    (void)sup_.rpc_all(to_every(make_op("clear_stats")));
    sup_.mark_stage_done(stage);
    return fold;
  }

  dram::Program captured_trace() override {
    const auto responses = sup_.query_all(to_every(make_op("trace")));
    std::vector<dram::SubarrayPrograms> per_device;
    for (std::size_t d = 0; d < responses.size(); ++d)
      per_device.push_back(subarray_programs_from_json(
          responses[d].get("programs"), d, responses.size(), total_));
    return dram::merge_in_flat_order(std::move(per_device));
  }

  runtime::FaultStats fault_stats() override { return {}; }

  void export_metrics(telemetry::MetricsRegistry&) override {}

 private:
  /// K-mers routed per `kmers` superstep, over all devices.
  static constexpr std::size_t kSuperstep = std::size_t{1} << 14;

  std::vector<net::Json> to_every(const net::Json& request) const {
    return std::vector<net::Json>(sup_.devices(), request);
  }

  // One `kmers` request per device holding pending k-mers, in stream order.
  void ship_kmers() {
    std::vector<net::Json> requests(sup_.devices());
    for (std::size_t d = 0; d < sup_.devices(); ++d) {
      if (kmers_[d].empty()) continue;
      net::Json packed = net::Json::array();
      for (const std::uint64_t km : kmers_[d]) packed.push_back(net::Json(km));
      kmers_[d].clear();
      requests[d] = make_op("kmers");
      requests[d].set("kmers", std::move(packed));
    }
    kmers_pending_ = 0;
    (void)sup_.rpc_all(requests);
  }

  const PipelineOptions& options_;
  const std::size_t total_;  ///< sub-arrays per device
  runtime::ProcSupervisor sup_;
  DegreeBatcher degrees_;
  std::vector<std::vector<std::uint64_t>> kmers_;
  std::size_t kmers_pending_ = 0;
};

// ---- The stages ------------------------------------------------------------

// Streams every k-mer of the read stream to its shard; per-shard insert
// order equals read-stream order for any transport, device and channel
// count — the sharded pipeline's k-mer count shuffle, done at submission.
void stream_kmers(ShardBackend& shards,
                  const std::vector<dna::Sequence>& reads, std::size_t k,
                  const runtime::CancelToken* cancel) {
  // Live progress counters: bumped on the controller thread only, once per
  // read, so the totals are deterministic for any channel count (model
  // class) and cost nothing per k-mer.
  telemetry::Counter* reads_ctr = nullptr;
  telemetry::Counter* kmers_ctr = nullptr;
  if (telemetry::metrics_enabled()) {
    auto& registry = telemetry::metrics();
    reads_ctr = &registry.counter(telemetry::kReadsTotal,
                                  "reads streamed through k-mer analysis");
    kmers_ctr =
        &registry.counter(telemetry::kKmersTotal, "k-mer windows submitted");
  }

  for (const auto& read : reads) {
    if (cancel != nullptr) cancel->throw_if_requested();
    if (read.size() < k) {
      if (reads_ctr != nullptr) reads_ctr->increment();
      continue;
    }
    assembly::Kmer window = assembly::Kmer::from_sequence(read, 0, k);
    for (std::size_t i = 0;; ++i) {
      shards.submit_kmer(window);
      if (i + k >= read.size()) break;
      window = window.rolled(read.at(i + k));
    }
    if (reads_ctr != nullptr) {
      reads_ctr->increment();
      kmers_ctr->add(static_cast<double>(read.size() - k + 1));
    }
  }
  shards.drain();
}

PipelineResult run_stages(ShardBackend& shards, const dram::Device& device,
                          const std::vector<dna::Sequence>& reads,
                          const PipelineOptions& options) {
  PipelineResult result;
  const dram::Geometry& geometry = device.geometry();

  PIMA_TEL_NAME_TRACK(runtime::Engine::kMainTrack, "main");
  PIMA_TEL_SET_THREAD_TRACK(runtime::Engine::kMainTrack);
  PIMA_TEL_SPAN("pipeline");
  if (telemetry::metrics_enabled())
    telemetry::metrics()
        .counter(telemetry::kReadsExpected, "reads in the input stream")
        .add(static_cast<double>(reads.size()));
  // Per-stage model metrics: stage roll-up plus the per-CommandKind
  // energy/latency split, derived from the same breakdown_from_stats the
  // report tables use — the two can never disagree.
  const auto export_stage = [&](const char* stage,
                                const dram::StatsFold& fold) {
    if (!telemetry::metrics_enabled()) return;
    auto& registry = telemetry::metrics();
    const dram::DeviceStats& st = fold.device;
    const telemetry::Labels labels = {{"stage", stage}};
    registry
        .counter("pima_stage_commands_total", "DRAM commands per stage",
                 labels)
        .add(static_cast<double>(st.commands));
    registry
        .counter("pima_stage_time_ns_total",
                 "simulated critical-path time per stage (ns)", labels)
        .add(st.time_ns);
    registry
        .counter("pima_stage_energy_pj_total",
                 "simulated energy per stage (pJ)", labels)
        .add(st.energy_pj);
    registry
        .gauge("pima_stage_subarrays_used", "sub-arrays touched per stage",
               labels)
        .set(static_cast<double>(st.subarrays_used));
    telemetry::add_breakdown_metrics(
        registry, dram::breakdown_from_stats(fold.commands, geometry.columns,
                                             device.technology()));
  };
  std::unique_ptr<telemetry::ProgressReporter> progress;
  if (options.progress_interval_s > 0.0)
    progress = std::make_unique<telemetry::ProgressReporter>(
        telemetry::metrics(),
        telemetry::ProgressReporter::Options{options.progress_interval_s,
                                             nullptr});

  // ---- Checkpoint/resume plumbing ----
  const runtime::CheckpointFingerprint fingerprint =
      make_fingerprint(geometry, options);
  const std::string ckpt_path = options.checkpoint_dir.empty()
                                    ? std::string{}
                                    : options.checkpoint_dir + "/pipeline.ckpt";
  runtime::PipelineSnapshot snap;
  snap.fingerprint = fingerprint;
  std::uint32_t resume_stage = 0;
  if (options.resume) {
    PIMA_CHECK(!options.checkpoint_dir.empty(),
               "resume requires checkpoint_dir");
    if (options.fault.enabled())
      throw SimulationError(
          "resume with fault injection enabled is unsupported: per-sub-array "
          "fault RNG stream positions are not part of the snapshot, so a "
          "resumed run could not reproduce the interrupted one bit-for-bit");
    // A missing snapshot is not an error — the first run of a
    // checkpoint-then-resume loop simply starts fresh.
    if (std::ifstream probe(ckpt_path); probe.good()) {
      snap = runtime::load_checkpoint(ckpt_path);
      runtime::validate_compatible(snap, fingerprint);
      resume_stage = snap.stages_done;
    }
  }
  // Fault/recovery counters accumulated before the interruption; this
  // process's backend adds its own deltas on top.
  const runtime::FaultStats base_fault = snap.fault_stats;
  const auto fault_now = [&] { return base_fault + shards.fault_stats(); };
  const auto write_checkpoint = [&](std::uint32_t stage) {
    if (ckpt_path.empty()) return;
    snap.stages_done = stage;
    snap.fault_stats = fault_now();
    runtime::save_checkpoint(ckpt_path, snap);
    if (options.on_checkpoint) options.on_checkpoint(stage, ckpt_path);
  };
  shards.start(resume_stage);

  // ---- Stage 1: k-mer analysis (Hashmap(S, k)) ----
  // Ends with the table extraction (the controller reading the counted
  // shards back out), so the stage's snapshot state — the extracted
  // (k-mer, freq) list — fully covers the stage's device traffic and a
  // resumed run reproduces the uninterrupted stats exactly.
  KmerEntries entries;
  if (resume_stage >= 1) {
    entries = snap.kmer_entries;
    result.distinct_kmers = snap.distinct_kmers;
    result.hashmap = {snap.hashmap, "hashmap"};
  } else {
    PIMA_TEL_SPAN("stage:hashmap");
    if (options.cancel != nullptr) options.cancel->throw_if_requested();
    stream_kmers(shards, reads, options.k, options.cancel);
    entries = shards.extract();
    result.distinct_kmers = shards.distinct_kmers();
    const dram::StatsFold fold = shards.end_stage(1);
    result.hashmap = {fold.device, "hashmap"};
    export_stage("hashmap", fold);
    snap.distinct_kmers = result.distinct_kmers;
    snap.kmer_entries = entries;
    snap.hashmap = result.hashmap.device;
    write_checkpoint(1);
  }

  // ---- Stage 2a: de Bruijn construction (DeBruijn(Hashmap, k)) ----
  // Materialize the graph from the counted table. Node/edge MEM_inserts
  // land on the graph sub-arrays (one row write per insert, round-robin
  // over the shard range) — the construction is controller-sequenced but
  // storage-local, exactly the paper's MEM_insert traffic, here emitted as
  // a batched ROW_WRITE ISA program fanned out over the shards.
  if (resume_stage >= 2) {
    // from_edges() on the snapshot's edge list rebuilds the exact node ids
    // and adjacency the interrupted run had (the list is already in the
    // graph's sorted edge order).
    result.graph = assembly::DeBruijnGraph::from_edges(snap.graph_edges);
    result.debruijn = {snap.debruijn, "debruijn"};
  } else {
    PIMA_TEL_SPAN("stage:debruijn");
    if (options.cancel != nullptr) options.cancel->throw_if_requested();
    assembly::KmerCounter counter(entries.size());
    for (const auto& [km, freq] : entries) counter.insert_with_count(km, freq);
    result.graph = assembly::DeBruijnGraph::from_counter(
        counter, options.use_multiplicity);
    const auto& graph = result.graph;
    const std::size_t graph_base = options.hash_shards;
    const std::size_t graph_arrays = std::max<std::size_t>(
        1, std::min(options.hash_shards,
                    geometry.total_subarrays() - graph_base));
    const std::size_t data_rows = geometry.data_rows();
    const BitVector row_image(geometry.columns);
    // Submitted in bounded slices: in-flight memory stays constant and the
    // queues' backpressure paces the controller.
    constexpr std::size_t kProgramSlice = 8192;
    dram::Program inserts;
    inserts.reserve(kProgramSlice);
    std::size_t rr = 0;
    auto mem_insert = [&] {
      dram::Instruction inst;
      inst.op = dram::Opcode::kRowWrite;
      inst.subarray = graph_base + (rr++ % graph_arrays);
      // Adjacency/edge-list rows are appended cyclically over data rows.
      inst.src1 = (rr / graph_arrays) % data_rows;
      inst.payload = row_image;
      inserts.push_back(std::move(inst));
      if (inserts.size() >= kProgramSlice) {
        if (options.cancel != nullptr) options.cancel->throw_if_requested();
        shards.submit_program(std::move(inserts));
        inserts = {};
        inserts.reserve(kProgramSlice);
      }
    };
    for (std::size_t e = 0; e < graph.edge_count(); ++e) {
      mem_insert();  // node 1 (prefix) insert
      mem_insert();  // node 2 (suffix) insert
      mem_insert();  // edge-list insert
    }
    shards.submit_program(std::move(inserts));
    shards.drain();
    const dram::StatsFold fold = shards.end_stage(2);
    result.debruijn = {fold.device, "debruijn"};
    export_stage("debruijn", fold);
    snap.graph_edges.clear();
    snap.graph_edges.reserve(graph.edge_count());
    for (const auto& e : graph.edges())
      snap.graph_edges.emplace_back(e.kmer, e.multiplicity);
    snap.debruijn = result.debruijn.device;
    write_checkpoint(2);
  }
  const auto& graph = result.graph;
  result.graph_nodes = graph.node_count();
  result.graph_edges = graph.edge_count();

  // ---- Stage 2b: traversal (Traverse(G)) ----
  if (resume_stage >= 3) {
    result.contigs = snap.contigs;
    result.traverse = {snap.traverse, "traverse"};
  } else {
    PIMA_TEL_SPAN("stage:traverse");
    if (options.cancel != nullptr) options.cancel->throw_if_requested();
    const GraphPartition partition =
        partition_fitting(graph, geometry, options.graph_intervals);
    // The PIM degree sums: every edge block's column-sum kernel on its own
    // sub-array. The sums themselves are discarded — the walks below
    // recompute degrees on the host — so only the device work is kept.
    for_each_degree_job(partition, geometry,
                        [&](std::size_t flat, std::size_t n,
                            const EdgeBlock& block, bool transposed) {
                          shards.degree_block(flat, n, block, transposed);
                        });
    shards.drain();
    // The walk itself streams edge lookups (one row read each), batched
    // into ROW_READ programs.
    result.contigs =
        options.euler_contigs
            ? assembly::contigs_from_euler(graph, options.traversal)
            : assembly::contigs_from_unitigs(graph);
    const std::size_t arrays = std::max<std::size_t>(1, options.hash_shards);
    const std::size_t data_rows = geometry.data_rows();
    constexpr std::size_t kProgramSlice = 8192;
    dram::Program lookups;
    lookups.reserve(kProgramSlice);
    std::size_t rr = 0;
    for (std::uint64_t e = 0; e < graph.edge_instances(); ++e) {
      dram::Instruction inst;
      inst.op = dram::Opcode::kRowRead;
      inst.subarray = rr++ % arrays;
      inst.src1 = (rr / arrays) % data_rows;
      lookups.push_back(std::move(inst));
      if (lookups.size() >= kProgramSlice) {
        if (options.cancel != nullptr) options.cancel->throw_if_requested();
        shards.submit_program(std::move(lookups));
        lookups = {};
        lookups.reserve(kProgramSlice);
      }
    }
    shards.submit_program(std::move(lookups));
    shards.drain();
    const dram::StatsFold fold = shards.end_stage(3);
    result.traverse = {fold.device, "traverse"};
    export_stage("traverse", fold);
    snap.contigs = result.contigs;
    snap.traverse = result.traverse.device;
    write_checkpoint(3);
  }

  result.contig_stats = assembly::compute_stats(result.contigs);
  result.fault_stats = fault_now();
  if (options.capture_trace) result.trace = shards.captured_trace();
  if (telemetry::metrics_enabled()) {
    auto& registry = telemetry::metrics();
    shards.export_metrics(registry);
    registry
        .gauge("pima_pipeline_distinct_kmers", "distinct k-mers counted")
        .set(static_cast<double>(result.distinct_kmers));
    registry.gauge("pima_pipeline_graph_nodes", "de Bruijn graph nodes")
        .set(static_cast<double>(result.graph_nodes));
    registry.gauge("pima_pipeline_graph_edges", "de Bruijn graph edges")
        .set(static_cast<double>(result.graph_edges));
    registry.gauge("pima_pipeline_contigs", "contigs produced")
        .set(static_cast<double>(result.contigs.size()));
  }
  return result;
}

}  // namespace

PipelineResult run_pipeline(dram::Device& device,
                            const std::vector<dna::Sequence>& reads,
                            const PipelineOptions& options) {
  PIMA_CHECK(options.devices >= 1, "need at least one device");
  // Stage 2a places the graph sub-arrays after the hash shards: at least
  // one must remain, or the MEM_inserts would address past the device.
  const std::size_t total = device.geometry().total_subarrays();
  PIMA_CHECK(options.hash_shards < total,
             "hash_shards must be below the device's " +
                 std::to_string(total) +
                 " sub-arrays (stage 2 stores the graph after the shards)");
  if (options.isolate) {
    try {
      RpcShards shards(device, options);
      return run_stages(shards, device, reads, options);
    } catch (const runtime::ProcPoolDegradedError& e) {
      if (!options.isolate_opts.allow_degrade)
        throw WorkerCrashedError(e.device(),
                                 runtime::to_string(e.exit_class()),
                                 e.detail());
      // Typed, logged transition: same run, same outputs, one address
      // space. The device is untouched so far — every isolated-run write
      // happened inside the (now dead) workers.
      telemetry::log_event(
          telemetry::LogLevel::kWarn, "pool.fallback",
          std::string("process isolation degraded — ") + e.what() +
              "; rerunning on in-process device shards",
          {telemetry::LogField::uint("device", e.device()),
           telemetry::LogField::str("class",
                                    runtime::to_string(e.exit_class()))});
    }
  }
  InProcessShards shards(device, options);
  return run_stages(shards, device, reads, options);
}

}  // namespace pima::core
