// One stage body, two transports (DESIGN.md §15). run_stages() below is
// the whole controller — k-mer routing, graph construction, partition
// choice, walks, checkpoints and every stat/metric fold — written once
// against ShardBackend, the device operations the stages need. A run has
// one core::DeviceShard whose engine runs `threads` channels
// (engine_options); where it executes is the backend's business:
//
//   * InProcessShards: the shard over the caller's device, called
//     directly;
//   * RpcShards (--isolate): the shard in one pima_devd child under the
//     runtime::ProcSupervisor, driven by journaled NDJSON requests batched
//     per superstep. The worker's device state is a pure function of its
//     request journal, so a crash + replay lands on the exact pre-crash
//     state.
//
// Both fold statistics through dram::fold_in_flat_order and append each
// sub-array's trace in logical flat order, so contigs, per-stage
// DeviceStats, model-class metrics and trace bytes are identical across
// transports, channel counts and worker crashes.
#include "core/pipeline.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "core/degree.hpp"
#include "core/graph_map.hpp"
#include "core/shard_worker.hpp"
#include "dram/isa.hpp"
#include "net/json.hpp"
#include "runtime/engine.hpp"
#include "runtime/procpool.hpp"
#include "telemetry/log.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/session.hpp"

namespace pima::core {

dram::DeviceStats PipelineResult::total() const {
  return hashmap.device + debruijn.device + traverse.device;
}

namespace {

// Picks the number of vertex intervals so every interval fits the column
// width of a sub-array row (hash distribution is near-uniform; retry with
// more intervals if an outlier interval overflows).
GraphPartition partition_fitting(const assembly::DeBruijnGraph& g,
                                 const dram::Geometry& geom) {
  const std::size_t width = geom.columns;
  const std::size_t fill = (width * 4) / 5;
  auto m = static_cast<std::uint32_t>(
      std::max<std::size_t>(1, (g.node_count() + fill - 1) / fill));
  for (;; ++m) {
    GraphPartition p = partition_graph(g, m);
    const bool fits = std::all_of(
        p.interval_vertices.begin(), p.interval_vertices.end(),
        [&](const auto& iv) { return iv.size() <= width; });
    if (fits) return p;
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
  fp.use_multiplicity = o.use_multiplicity;
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
  virtual void submit_program(dram::Program program) = 0;
  /// One degree-kernel job of for_each_degree_job.
  virtual void degree_block(std::size_t flat, std::size_t n,
                            const EdgeBlock& block, bool transposed) = 0;
  /// Stage boundary: takes the stage's stats (DeviceShard::take_stats), so
  /// the next stage starts from zero.
  virtual dram::StatsFold end_stage(std::uint32_t stage) = 0;
  virtual dram::Program captured_trace() = 0;
  /// Fault/recovery counters this process accumulated.
  virtual runtime::FaultStats fault_stats() = 0;
  virtual void export_metrics(telemetry::MetricsRegistry& registry) = 0;
};

// ---- In-process transport --------------------------------------------------

// The run's one engine, in process and in the pima_devd worker alike:
// `threads` channels, channel c serving the flats ≡ c (mod channels);
// threads 0 is one channel per hardware thread.
runtime::EngineOptions engine_options(const PipelineOptions& o) {
  runtime::EngineOptions e;
  e.channels = o.threads;
  e.capture_trace = o.capture_trace;
  e.stall_timeout_ms = o.stall_timeout_ms;
  return e;
}

class InProcessShards final : public ShardBackend {
 public:
  InProcessShards(dram::Device& device, const PipelineOptions& options)
      : total_(device.geometry().total_subarrays()),
        shard_(device, engine_options(options), options.hash_shards,
               options.k, kKmerBatch, options.fault, options.recovery) {}

  void start(std::uint32_t) override {}

  // The shard batches the k-mer per channel and flushes full batches
  // through the bounded queues (backpressure throttles the controller when
  // the channels fall behind).
  void submit_kmer(const assembly::Kmer& kmer) override {
    shard_.add_kmer(kmer);
  }

  // Rethrows the lowest channel's failure (Engine::drain).
  void drain() override {
    shard_.flush_kmers();
    shard_.drain();
  }

  // Shard by shard, so the list concatenates in (shard, slot) order.
  KmerEntries extract() override {
    KmerEntries entries;
    for (std::size_t s = 0; s < shard_.hash_shards(); ++s) {
      KmerEntries part = shard_.extract_shard(s);
      entries.insert(entries.end(), std::make_move_iterator(part.begin()),
                     std::make_move_iterator(part.end()));
    }
    return entries;
  }

  void submit_program(dram::Program program) override {
    shard_.submit_program(std::move(program));
  }

  void degree_block(std::size_t flat, std::size_t n, const EdgeBlock& block,
                    bool transposed) override {
    shard_.degree_block(flat, n, transposed ? transpose(block) : block);
  }

  dram::StatsFold end_stage(std::uint32_t) override {
    return dram::fold_in_flat_order(shard_.take_stats());
  }

  dram::Program captured_trace() override {
    dram::Program program;
    for (std::size_t flat = 0; flat < total_; ++flat)
      if (const dram::Program* part = shard_.trace(flat))
        program.insert(program.end(), part->begin(), part->end());
    return program;
  }

  runtime::FaultStats fault_stats() override { return shard_.fault_stats(); }

  void export_metrics(telemetry::MetricsRegistry& registry) override {
    shard_.export_metrics(registry);
  }

 private:
  /// K-mers per channel task.
  static constexpr std::size_t kKmerBatch = 128;

  const std::size_t total_;  ///< sub-arrays of the device
  DeviceShard shard_;
};

// ---- Rpc transport ---------------------------------------------------------

net::Json make_op(const char* name) {
  net::Json j = net::Json::object();
  j.set("op", name);
  return j;
}

runtime::ProcPoolOptions pool_options(const PipelineOptions& options) {
  runtime::ProcPoolOptions p;
  p.devd_path = options.isolate_opts.devd_path;
  p.restart_budget = options.isolate_opts.restart_budget;
  // A traced run must keep the whole journal: a restarted worker rebuilds
  // its capture programs only by replaying every command since init.
  p.journal_truncation = !options.capture_trace;
  return p;
}

net::Json worker_init(const dram::Device& device,
                      const PipelineOptions& options) {
  WorkerInit init;
  init.geometry = device.geometry();
  init.technology = device.technology();
  init.k = options.k;
  init.hash_shards = options.hash_shards;
  // channels 0 stays 0: the worker's engine resolves it.
  init.engine = engine_options(options);
  // Stitched tracing: when the controller captures spans, the worker does
  // too; the supervisor harvests its buffer at stage boundaries.
  init.trace_spans = telemetry::tracer().enabled();
  return worker_init_to_json(init);
}

// The DeviceShard in the pima_devd worker. Only command *execution*
// crosses the process boundary; each verb is one request per superstep.
// Statistics and traces come back per sub-array, are decoded into what
// InProcessShards reads directly, and go through the same folds.
class RpcShards final : public ShardBackend {
 public:
  RpcShards(const dram::Device& device, const PipelineOptions& options)
      : options_(options),
        total_(device.geometry().total_subarrays()),
        columns_(device.geometry().columns),
        sup_(pool_options(options), worker_init(device, options)) {
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

  // The worker routes each k-mer to the channel owning its hash shard.
  void submit_kmer(const assembly::Kmer& kmer) override {
    net::pack_uint(kmers_, kmer.packed());
    if (++kmers_pending_ >= kSuperstep) ship_kmers();
  }

  // The worker rethrows its lowest channel's typed failure (Engine::drain);
  // a degraded pool aborts immediately.
  void drain() override {
    ship_kmers();
    ship("degree_block", "blocks", degrees_);
    (void)sup_.rpc(make_op("drain"));
  }

  KmerEntries extract() override {
    net::Json shards = net::Json::array();
    for (std::size_t s = 0; s < options_.hash_shards; ++s)
      shards.push_back(net::Json(static_cast<std::uint64_t>(s)));
    net::Json request = make_op("extract");
    request.set("shards", std::move(shards));
    // Journaled, not a query: reading the table issues ROW_READs that the
    // stage's stats fold counts, so a restarted worker must replay them.
    const net::Json response = sup_.rpc(request);
    // The worker answers in request order, so the lists concatenate in
    // (shard, slot) order.
    KmerEntries entries;
    for (auto& list : extract_shards_from_json(
             response.get("shards"), options_.hash_shards, options_.k))
      entries.insert(entries.end(), std::make_move_iterator(list.begin()),
                     std::make_move_iterator(list.end()));
    return entries;
  }

  void submit_program(dram::Program program) override {
    if (program.empty()) return;
    net::Json request = make_op("program");
    request.set("insts", pack_program(program));
    (void)sup_.rpc(request);
  }

  // The worker rebuilds the adjacency rows and runs the full carry-save
  // reduction, so the device traffic matches the in-process run command
  // for command. The superstep's blocks ship as one batch at the drain, or
  // earlier when the next block would push it past kBudgetBytes; blocks
  // keep the order they were added in, so per sub-array order is unchanged.
  void degree_block(std::size_t flat, std::size_t n, const EdgeBlock& block,
                    bool transposed) override {
    block_.clear();
    append_degree_block(block_, flat, n, block, transposed);
    if (!degrees_.empty() &&
        degrees_.size() + 1 + block_.size() > kBudgetBytes)
      ship("degree_block", "blocks", degrees_);
    if (!degrees_.empty()) degrees_ += ' ';
    degrees_ += block_;
  }

  // Journaled: `stats` clears what it answers, so a replay that passes a
  // stage boundary clears there too. A worker that dies before answering
  // is replayed without the line and asked again.
  dram::StatsFold end_stage(std::uint32_t stage) override {
    const dram::SubarrayStats stats = subarray_stats_from_json(
        sup_.rpc(make_op("stats")).get("subarrays"), total_);
    sup_.mark_stage_done(stage);
    return dram::fold_in_flat_order(stats);
  }

  // One sub-array per query, so no answer holds more than one sub-array's
  // capture.
  dram::Program captured_trace() override {
    dram::Program program;
    for (std::size_t flat = 0; flat < total_; ++flat) {
      net::Json request = make_op("trace");
      request.set("flat", static_cast<std::uint64_t>(flat));
      dram::Program part =
          subarray_trace_from_json(sup_.query(request), flat, columns_);
      program.insert(program.end(), std::make_move_iterator(part.begin()),
                     std::make_move_iterator(part.end()));
    }
    return program;
  }

  runtime::FaultStats fault_stats() override { return {}; }

  void export_metrics(telemetry::MetricsRegistry&) override {}

 private:
  /// K-mers per `kmers` superstep.
  static constexpr std::size_t kSuperstep = std::size_t{1} << 14;
  /// Far below LineChannel::kMaxLineBytes (64 MiB): one `degree_block`
  /// request per superstep on any genome the geometry fits, a bounded line
  /// beyond that.
  static constexpr std::size_t kBudgetBytes = 4u << 20;

  void ship_kmers() {
    kmers_pending_ = 0;
    ship("kmers", "kmers", kmers_);
  }

  // Sends a pending packed payload as one journaled request and empties it.
  void ship(const char* op, const char* key, std::string& packed) {
    if (packed.empty()) return;
    net::Json request = make_op(op);
    request.set(key, std::move(packed));
    packed.clear();
    (void)sup_.rpc(request);
  }

  const PipelineOptions& options_;
  const std::size_t total_;    ///< sub-arrays of the device
  const std::size_t columns_;  ///< bits per row
  runtime::ProcSupervisor sup_;
  std::string kmers_;    ///< the pending `kmers` superstep, packed
  std::size_t kmers_pending_ = 0;
  std::string degrees_;  ///< the pending `degree_block` batch, packed
  std::string block_;    ///< the block being added
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

// Submits `count` instructions, the i-th filled by make(i, inst), in
// bounded slices: in-flight memory stays constant and the queues'
// backpressure paces the controller. The i-th of a round-robin over n
// sub-arrays lands on row (i + 1) / n of its sub-array.
template <typename Make>
void submit_in_slices(ShardBackend& shards, std::uint64_t count,
                      const runtime::CancelToken* cancel, const Make& make) {
  constexpr std::size_t kProgramSlice = 8192;
  dram::Program slice;
  slice.reserve(kProgramSlice);
  for (std::uint64_t i = 0; i < count; ++i) {
    make(i, slice.emplace_back());
    if (slice.size() >= kProgramSlice) {
      if (cancel != nullptr) cancel->throw_if_requested();
      shards.submit_program(std::move(slice));
      slice = {};
      slice.reserve(kProgramSlice);
    }
  }
  shards.submit_program(std::move(slice));
}

PipelineResult run_stages(ShardBackend& shards, const dram::Device& device,
                          const std::vector<dna::Sequence>& reads,
                          const PipelineOptions& options) {
  PipelineResult result;
  const dram::Geometry& geometry = device.geometry();

  telemetry::tracer().set_track_name(runtime::Engine::kMainTrack, "main");
  telemetry::tracer().set_thread_track(runtime::Engine::kMainTrack);
  telemetry::ScopedSpan pipeline_span("pipeline");
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

  // Each stage does its host work on every run and its device work only
  // when no snapshot covers it: the snapshot holds what the device
  // computed — the counted table and each stage's stats — and the graph
  // and the contigs are host functions of the table.

  // ---- Stage 1: k-mer analysis (Hashmap(S, k)) ----
  // Ends with the table extraction (the controller reading the counted
  // shards back out), so the stage's snapshot state — the extracted
  // (k-mer, freq) list — fully covers the stage's device traffic and a
  // resumed run reproduces the uninterrupted stats exactly.
  KmerEntries entries;
  if (resume_stage >= 1) {
    entries = snap.kmer_entries;
    result.hashmap = {snap.hashmap, "hashmap"};
  } else {
    telemetry::ScopedSpan span("stage:hashmap");
    if (options.cancel != nullptr) options.cancel->throw_if_requested();
    stream_kmers(shards, reads, options.k, options.cancel);
    entries = shards.extract();
    const dram::StatsFold fold = shards.end_stage(1);
    result.hashmap = {fold.device, "hashmap"};
    export_stage("hashmap", fold);
    snap.kmer_entries = entries;
    snap.hashmap = result.hashmap.device;
    write_checkpoint(1);
  }
  result.distinct_kmers = entries.size();

  // ---- Stage 2a: de Bruijn construction (DeBruijn(Hashmap, k)) ----
  // Materialize the graph from the counted table. Node/edge MEM_inserts
  // land on the graph sub-arrays (one row write per insert, round-robin
  // over the shard range) — the construction is controller-sequenced but
  // storage-local, exactly the paper's MEM_insert traffic, here emitted as
  // a batched ROW_WRITE ISA program fanned out over the shards.
  const auto& graph = result.graph;
  {
    telemetry::ScopedSpan span("stage:debruijn");
    if (options.cancel != nullptr) options.cancel->throw_if_requested();
    // Through a KmerCounter, which merges the duplicate keys a faulted
    // table can hold.
    assembly::KmerCounter counter(entries.size());
    for (const auto& [km, freq] : entries) counter.insert_with_count(km, freq);
    result.graph = assembly::DeBruijnGraph::from_counter(
        counter, options.use_multiplicity);
    if (resume_stage >= 2) {
      result.debruijn = {snap.debruijn, "debruijn"};
    } else {
      const std::size_t graph_base = options.hash_shards;
      const std::size_t graph_arrays = std::max<std::size_t>(
          1, std::min(options.hash_shards,
                      geometry.total_subarrays() - graph_base));
      const std::size_t data_rows = geometry.data_rows();
      const BitVector row_image(geometry.columns);
      // Per edge: the node 1 (prefix), node 2 (suffix) and edge-list
      // inserts, round-robin over the graph sub-arrays; adjacency/edge-list
      // rows are appended cyclically over the data rows.
      submit_in_slices(shards, 3 * graph.edge_count(), options.cancel,
                       [&](std::uint64_t i, dram::Instruction& inst) {
                         inst.op = dram::Opcode::kRowWrite;
                         inst.subarray = graph_base + i % graph_arrays;
                         inst.src1 = (i + 1) / graph_arrays % data_rows;
                         inst.payload = row_image;
                       });
      shards.drain();
      const dram::StatsFold fold = shards.end_stage(2);
      result.debruijn = {fold.device, "debruijn"};
      export_stage("debruijn", fold);
      snap.debruijn = result.debruijn.device;
      write_checkpoint(2);
    }
  }

  // ---- Stage 2b: traversal (Traverse(G)) ----
  {
    telemetry::ScopedSpan span("stage:traverse");
    if (options.cancel != nullptr) options.cancel->throw_if_requested();
    result.contigs = options.euler_contigs
                         ? assembly::contigs_from_euler(graph)
                         : assembly::contigs_from_unitigs(graph);
    if (resume_stage >= 3) {
      result.traverse = {snap.traverse, "traverse"};
    } else {
      const GraphPartition partition = partition_fitting(graph, geometry);
      // The PIM degree sums: every edge block's column-sum kernel on its own
      // sub-array. Each fault-free job checks its sums against the block's
      // host degrees, then discards them: the walks recompute the degrees on
      // the host.
      for_each_degree_job(partition, geometry,
                          [&](std::size_t flat, std::size_t n,
                              const EdgeBlock& block, bool transposed) {
                            shards.degree_block(flat, n, block, transposed);
                          });
      shards.drain();
      // The walk itself streams edge lookups (one row read each), batched
      // into ROW_READ programs.
      const std::size_t arrays = std::max<std::size_t>(1, options.hash_shards);
      const std::size_t data_rows = geometry.data_rows();
      submit_in_slices(shards, graph.edge_instances(), options.cancel,
                       [&](std::uint64_t i, dram::Instruction& inst) {
                         inst.op = dram::Opcode::kRowRead;
                         inst.subarray = i % arrays;
                         inst.src1 = (i + 1) / arrays % data_rows;
                       });
      shards.drain();
      const dram::StatsFold fold = shards.end_stage(3);
      result.traverse = {fold.device, "traverse"};
      export_stage("traverse", fold);
      snap.traverse = result.traverse.device;
      write_checkpoint(3);
    }
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
        .set(static_cast<double>(graph.node_count()));
    registry.gauge("pima_pipeline_graph_edges", "de Bruijn graph edges")
        .set(static_cast<double>(graph.edge_count()));
    registry.gauge("pima_pipeline_contigs", "contigs produced")
        .set(static_cast<double>(result.contigs.size()));
  }
  return result;
}

}  // namespace

PipelineResult run_pipeline(dram::Device& device,
                            const std::vector<dna::Sequence>& reads,
                            const PipelineOptions& options) {
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
      // Typed, logged transition: same run, same outputs, one address
      // space. The device is untouched so far — every isolated-run write
      // happened inside the (now dead) workers.
      if (telemetry::metrics_enabled())
        telemetry::metrics()
            .counter("pima_pool_fallbacks_total",
                     "isolated runs rerun on the in-process device shard", {},
                     telemetry::MetricClass::kHost)
            .increment();
      telemetry::log_event(
          telemetry::LogLevel::kWarn, "pool.fallback",
          std::string("process isolation degraded — ") + e.what() +
              "; rerunning on the in-process device shard",
          {telemetry::LogField::str("class",
                                    runtime::to_string(e.exit_class()))});
    }
  }
  InProcessShards shards(device, options);
  return run_stages(shards, device, reads, options);
}

}  // namespace pima::core
