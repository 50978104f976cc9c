// The process-isolated pipeline body (DESIGN.md §15): the same three
// stages as pipeline.cpp, but every device shard lives in its own
// pima_devd child under the runtime::ProcSupervisor. The controller logic
// — k-mer routing, graph construction, partition choice, walks, every
// stat/metric/trace fold — stays in the parent and is line-for-line the
// in-process algorithm; only command *execution* crosses the process
// boundary, as journaled NDJSON requests — batched per superstep, one
// request per device, fanned out to every device before any response is
// collected (ProcSupervisor::rpc_all). That split is the determinism
// argument: a worker's device state is a pure function of its request
// journal, so a crash + replay lands on the exact pre-crash state, and a
// run with K worker crashes produces bit-identical contigs, per-stage
// DeviceStats and model-class metrics to a crash-free (or in-process) run.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline_detail.hpp"
#include "core/shard_worker.hpp"
#include "dram/isa.hpp"
#include "dram/trace.hpp"
#include "net/json.hpp"
#include "runtime/engine.hpp"
#include "runtime/procpool.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/shard.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/session.hpp"
#include "telemetry/telemetry.hpp"

namespace pima::core::detail {

namespace {

// Mirrors the engine's private resolution of channels == 0 so the parent
// can route k-mer batches to the exact channel the worker's engine owns.
std::size_t resolve_channels(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

net::Json make_op(const char* name) {
  net::Json j = net::Json::object();
  j.set("op", name);
  return j;
}

// The same request for every device, as one fan-out.
std::vector<net::Json> to_every(const runtime::ProcSupervisor& sup,
                                const net::Json& request) {
  return std::vector<net::Json>(sup.devices(), request);
}

// Barrier over every worker as one fan-out. rpc_all reads every response
// before rethrowing the lowest device's typed failure — the
// PoolRunner::drain discipline; a degraded pool aborts immediately.
void drain_all(runtime::ProcSupervisor& sup) {
  (void)sup.rpc_all(to_every(sup, make_op("drain")));
}

struct FlatStats {
  std::size_t flat = 0;
  dram::CommandStats stats;
};

// One stats fan-out over every worker. Workers emit their touched
// sub-arrays in ascending flat order (shard_worker.cpp), which the folds
// below rely on for their merge cursors.
std::vector<std::vector<FlatStats>> collect_stats(
    runtime::ProcSupervisor& sup) {
  std::vector<std::vector<FlatStats>> per(sup.devices());
  const auto responses = sup.query_all(to_every(sup, make_op("stats")));
  for (std::size_t d = 0; d < sup.devices(); ++d) {
    for (const auto& entry : responses[d].get("subarrays").items()) {
      FlatStats fs;
      fs.flat = static_cast<std::size_t>(entry.get_uint64("flat"));
      const auto& counts = entry.get("counts").items();
      for (std::size_t i = 0;
           i < dram::kCommandKindCount && i < counts.size(); ++i)
        fs.stats.counts[i] = static_cast<std::size_t>(counts[i].as_uint64());
      fs.stats.busy_ns = entry.get_number("busy_ns");
      fs.stats.energy_pj = entry.get_number("energy_pj");
      per[d].push_back(std::move(fs));
    }
  }
  return per;
}

struct StageFold {
  dram::DeviceStats device;
  dram::CommandStats commands;
};

// The DevicePool::roll_up / command_roll_up folds, reproduced over the
// wire stats: iterate *logical* flat order 0..total-1, resolve the owner,
// fold — the identical double-precision operation sequence, so the
// roll-ups are bitwise equal to the in-process run.
StageFold fold_stage(runtime::ProcSupervisor& sup, const runtime::ShardPlan& plan,
                     std::size_t total_subarrays) {
  const auto per = collect_stats(sup);
  std::vector<std::size_t> cursor(per.size(), 0);
  StageFold fold;
  for (std::size_t flat = 0; flat < total_subarrays; ++flat) {
    const std::size_t d = plan.owner_of(flat);
    auto& c = cursor[d];
    while (c < per[d].size() && per[d][c].flat < flat) ++c;
    if (c >= per[d].size() || per[d][c].flat != flat) continue;
    const dram::CommandStats& st = per[d][c].stats;
    // Workers already skip zero-command sub-arrays (fold identity).
    ++fold.device.subarrays_used;
    fold.device.time_ns = std::max(fold.device.time_ns, st.busy_ns);
    fold.device.serial_ns += st.busy_ns;
    fold.device.energy_pj += st.energy_pj;
    fold.device.commands += st.total_commands();
    fold.commands.merge_serial(st);
  }
  return fold;
}

void clear_all_stats(runtime::ProcSupervisor& sup) {
  (void)sup.rpc_all(to_every(sup, make_op("clear_stats")));
}

// Splits a program slice by owning device in program order and ships each
// non-empty sub-stream as one `program` request of a single fan-out —
// exactly the sub-streams PoolRunner::submit_program's sequence-keyed
// Exchange produces, so per sub-array command order is the single-device
// order.
void submit_program_sliced(runtime::ProcSupervisor& sup,
                           const runtime::ShardPlan& plan,
                           dram::Program program) {
  std::vector<dram::Program> per(sup.devices());
  for (auto& inst : program)
    per[plan.owner_of(inst.subarray)].push_back(std::move(inst));
  std::vector<net::Json> requests(sup.devices());
  for (std::size_t d = 0; d < per.size(); ++d) {
    if (per[d].empty()) continue;
    requests[d] = make_op("program");
    requests[d].set("text", dram::to_text(per[d]));
  }
  (void)sup.rpc_all(requests);
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

  DegreeBatcher(runtime::ProcSupervisor& sup, const runtime::ShardPlan& plan)
      : sup_(sup),
        plan_(plan),
        blocks_(sup.devices(), net::Json::array()),
        bytes_(sup.devices(), 0) {}

  /// Appends [flat, n, (from, to, mult)...] to the batch of the sub-array's
  /// owner; with `transposed`, each edge's from and to swap (the
  /// out-degree block).
  void add(std::size_t flat, std::size_t n, const EdgeBlock& block,
           bool transposed) {
    const std::size_t owner = plan_.owner_of(flat);
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
  const runtime::ShardPlan& plan_;
  std::vector<net::Json> blocks_;
  std::vector<std::size_t> bytes_;
};

// The isolated twin of submit_kmer_stream (pipeline.cpp): identical
// routing — shard = hash(canonical) % shards, flat = shard, owner =
// flat % devices, channel = flat % channels — but batched per superstep:
// once kSuperstep k-mers are pending, one `kmers` request per device
// carries every channel's pending batch, fanned out to all devices.
// Per-shard insert order is read-stream order either way.
void submit_kmer_stream_isolated(runtime::ProcSupervisor& sup,
                                 const runtime::ShardPlan& plan,
                                 std::size_t channels, std::size_t hash_shards,
                                 const std::vector<dna::Sequence>& reads,
                                 std::size_t k,
                                 const runtime::CancelToken* cancel) {
  constexpr std::size_t kSuperstep = std::size_t{1} << 14;
  std::vector<std::vector<std::uint64_t>> pending(sup.devices() * channels);
  std::size_t pending_total = 0;
  const auto superstep = [&] {
    std::vector<net::Json> requests(sup.devices());
    for (std::size_t d = 0; d < sup.devices(); ++d) {
      net::Json batches = net::Json::array();
      for (std::size_t c = 0; c < channels; ++c) {
        auto& batch = pending[d * channels + c];
        if (batch.empty()) continue;
        net::Json arr = net::Json::array();
        arr.push_back(net::Json(static_cast<std::uint64_t>(c)));
        for (const std::uint64_t packed : batch)
          arr.push_back(net::Json(packed));
        batches.push_back(std::move(arr));
        batch.clear();
      }
      if (batches.items().empty()) continue;
      requests[d] = make_op("kmers");
      requests[d].set("batches", std::move(batches));
    }
    pending_total = 0;
    (void)sup.rpc_all(requests);
  };

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
      const std::size_t flat =
          static_cast<std::size_t>(window.hash() % hash_shards);
      const std::size_t device = plan.owner_of(flat);
      const std::size_t channel = flat % channels;
      pending[device * channels + channel].push_back(window.packed());
      if (++pending_total >= kSuperstep) superstep();
      if (i + k >= read.size()) break;
      window = window.rolled(read.at(i + k));
    }
    if (reads_ctr != nullptr) {
      reads_ctr->increment();
      kmers_ctr->add(static_cast<double>(read.size() - k + 1));
    }
  }
  superstep();
  drain_all(sup);
}

}  // namespace

PipelineResult run_pipeline_isolated(dram::Device& device,
                                     const std::vector<dna::Sequence>& reads,
                                     const PipelineOptions& options) {
  if (options.fault.enabled() ||
      options.recovery.mode != runtime::RecoveryMode::kOff)
    throw SimulationError(
        "process isolation with fault injection or recovery is unsupported: "
        "the fault model's per-sub-array RNG streams and the recovery "
        "layer's probe routing are in-process state the worker init request "
        "does not carry — run --isolate fault-free, or drop --isolate");

  PipelineResult result;
  const dram::Geometry& geometry = device.geometry();
  const runtime::ShardPlan plan{options.devices};
  const std::size_t total = geometry.total_subarrays();
  const std::size_t channels = resolve_channels(options.threads);

  PIMA_TEL_NAME_TRACK(runtime::Engine::kMainTrack, "main");
  PIMA_TEL_SET_THREAD_TRACK(runtime::Engine::kMainTrack);
  PIMA_TEL_SPAN("pipeline");
  if (telemetry::metrics_enabled())
    telemetry::metrics()
        .counter(telemetry::kReadsExpected, "reads in the input stream")
        .add(static_cast<double>(reads.size()));
  const auto export_stage = [&](const char* stage,
                                const dram::DeviceStats& st,
                                const dram::CommandStats& cmds) {
    if (!telemetry::metrics_enabled()) return;
    auto& registry = telemetry::metrics();
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
        registry, dram::breakdown_from_stats(cmds, geometry.columns,
                                             device.technology()));
  };
  std::unique_ptr<telemetry::ProgressReporter> progress;
  if (options.progress_interval_s > 0.0)
    progress = std::make_unique<telemetry::ProgressReporter>(
        telemetry::metrics(),
        telemetry::ProgressReporter::Options{options.progress_interval_s,
                                             nullptr});

  // ---- Checkpoint/resume plumbing (shared format with pipeline.cpp: an
  // isolated run resumes an in-process one and vice versa) ----
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
    if (std::ifstream probe(ckpt_path); probe.good()) {
      snap = runtime::load_checkpoint(ckpt_path);
      runtime::validate_compatible(snap, fingerprint);
      resume_stage = snap.stages_done;
    }
  }
  const runtime::FaultStats base_fault = snap.fault_stats;
  const auto write_checkpoint = [&](std::uint32_t stage) {
    if (ckpt_path.empty()) return;
    snap.stages_done = stage;
    snap.fault_stats = base_fault;
    runtime::save_checkpoint(ckpt_path, snap);
    if (options.on_checkpoint) options.on_checkpoint(stage, ckpt_path);
  };
  // A fresh run must not trip over shard checkpoints a previous run of a
  // different configuration left in the directory — only a resumed run may
  // inherit them (fingerprint-validated per worker on spawn).
  if (resume_stage == 0 && !options.checkpoint_dir.empty()) {
    for (std::size_t d = 0; d < options.devices; ++d) {
      std::error_code ec;
      std::filesystem::remove(options.checkpoint_dir + "/shard-" +
                                  std::to_string(d) + ".ckpt",
                              ec);
    }
  }

  // ---- The worker pool ----
  runtime::ProcPoolOptions pool_options;
  pool_options.devices = options.devices;
  pool_options.devd_path = options.isolate_opts.devd_path;
  pool_options.liveness_timeout_s = options.isolate_opts.liveness_timeout_s;
  pool_options.restart_budget = options.isolate_opts.restart_budget;
  pool_options.restart_backoff_ms = options.isolate_opts.restart_backoff_ms;
  // A traced run must keep the whole journal: a restarted worker rebuilds
  // its trace sinks only by replaying every command since init.
  pool_options.journal_truncation = !options.capture_trace;
  pool_options.checkpoint_dir = options.checkpoint_dir;
  pool_options.fingerprint = fingerprint;
  pool_options.child_iofault = options.isolate_opts.child_iofault;
  runtime::ProcSupervisor sup(
      pool_options, [&](std::size_t d) {
        WorkerInit init;
        init.geometry = geometry;
        init.technology = device.technology();
        init.device = d;
        init.devices = options.devices;
        init.k = options.k;
        init.hash_shards = options.hash_shards;
        init.channels = channels;
        init.queue_capacity = options.queue_capacity;
        init.capture_trace = options.capture_trace;
        // Stitched tracing: when the controller captures spans, the workers
        // do too; the supervisor harvests their buffers at stage boundaries.
        init.trace_spans = telemetry::tracer().enabled();
        init.stall_timeout_ms = options.stall_timeout_ms;
        return worker_init_to_json(init);
      });
  sup.start();
  if (resume_stage > 0) sup.mark_stage_done(resume_stage);

  // ---- Stage 1: k-mer analysis (Hashmap(S, k)) ----
  std::vector<std::pair<assembly::Kmer, std::uint32_t>> entries;
  if (resume_stage >= 1) {
    entries = snap.kmer_entries;
    result.distinct_kmers = snap.distinct_kmers;
    result.hashmap = {snap.hashmap, "hashmap"};
  } else {
    PIMA_TEL_SPAN("stage:hashmap");
    if (options.cancel != nullptr) options.cancel->throw_if_requested();
    submit_kmer_stream_isolated(sup, plan, channels, options.hash_shards,
                                reads, options.k, options.cancel);
    // K-mer count shuffle: one extract fan-out returns every shard an owner
    // holds; the stage-boundary exchange merges them by shard index —
    // identical to PimHashTable::extract() order for every device count.
    std::vector<std::vector<std::size_t>> owned(sup.devices());
    for (std::size_t s = 0; s < options.hash_shards; ++s)
      owned[plan.owner_of(s)].push_back(s);
    std::vector<net::Json> requests(sup.devices());
    for (std::size_t d = 0; d < sup.devices(); ++d) {
      if (owned[d].empty()) continue;
      net::Json shards = net::Json::array();
      for (const std::size_t s : owned[d])
        shards.push_back(net::Json(static_cast<std::uint64_t>(s)));
      requests[d] = make_op("extract");
      requests[d].set("shards", std::move(shards));
    }
    // Journaled, not a query: reading the table issues ROW_READs that the
    // stage's stats fold counts, so a restarted worker must replay them.
    const auto extracted = sup.rpc_all(requests);
    runtime::Exchange<std::pair<assembly::Kmer, std::uint32_t>> shuffle(
        options.devices);
    for (std::size_t d = 0; d < sup.devices(); ++d) {
      if (owned[d].empty()) continue;
      const auto& lists = extracted[d].get("shards").items();
      PIMA_CHECK(lists.size() == owned[d].size(),
                 "extract response does not match the requested shards");
      for (std::size_t i = 0; i < lists.size(); ++i) {
        const auto& flat = lists[i].items();
        for (std::size_t e = 0; e + 1 < flat.size(); e += 2)
          shuffle.push(d, 0, owned[d][i],
                       {assembly::Kmer(flat[e].as_uint64(), options.k),
                        static_cast<std::uint32_t>(flat[e + 1].as_uint64())});
      }
    }
    entries = shuffle.gather(0);
    result.distinct_kmers = 0;
    for (const auto& resp :
         sup.query_all(to_every(sup, make_op("distinct"))))
      result.distinct_kmers +=
          static_cast<std::size_t>(resp.get_uint64("value"));
    const StageFold fold = fold_stage(sup, plan, total);
    result.hashmap = {fold.device, "hashmap"};
    export_stage("hashmap", result.hashmap.device, fold.commands);
    clear_all_stats(sup);
    snap.distinct_kmers = result.distinct_kmers;
    snap.kmer_entries = entries;
    snap.hashmap = result.hashmap.device;
    sup.mark_stage_done(1);
    write_checkpoint(1);
  }

  // ---- Stage 2a: de Bruijn construction (DeBruijn(Hashmap, k)) ----
  if (resume_stage >= 2) {
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
        1, std::min(options.hash_shards, total - graph_base));
    const std::size_t data_rows = geometry.data_rows();
    const BitVector row_image(geometry.columns);
    constexpr std::size_t kProgramSlice = 8192;
    dram::Program inserts;
    inserts.reserve(kProgramSlice);
    std::size_t rr = 0;
    auto mem_insert = [&] {
      dram::Instruction inst;
      inst.op = dram::Opcode::kRowWrite;
      inst.subarray = graph_base + (rr++ % graph_arrays);
      inst.src1 = (rr / graph_arrays) % data_rows;
      inst.payload = row_image;
      inserts.push_back(std::move(inst));
      if (inserts.size() >= kProgramSlice) {
        if (options.cancel != nullptr) options.cancel->throw_if_requested();
        submit_program_sliced(sup, plan, std::move(inserts));
        inserts = {};
        inserts.reserve(kProgramSlice);
      }
    };
    for (std::size_t e = 0; e < graph.edge_count(); ++e) {
      mem_insert();  // node 1 (prefix) insert
      mem_insert();  // node 2 (suffix) insert
      mem_insert();  // edge-list insert
    }
    submit_program_sliced(sup, plan, std::move(inserts));
    drain_all(sup);
    const StageFold fold = fold_stage(sup, plan, total);
    result.debruijn = {fold.device, "debruijn"};
    export_stage("debruijn", result.debruijn.device, fold.commands);
    clear_all_stats(sup);
    snap.graph_edges.clear();
    snap.graph_edges.reserve(graph.edge_count());
    for (const auto& e : graph.edges())
      snap.graph_edges.emplace_back(e.kmer, e.multiplicity);
    snap.debruijn = result.debruijn.device;
    sup.mark_stage_done(2);
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
    // The pim_degrees block walk (degree.cpp) as one superstep: blocks
    // in (i, j) order, each appended to its sub-array owner's
    // `degree_block` batch as edges, one request per device. The parent
    // does not need the sums — the pipeline discards them — but the
    // workers rebuild the adjacency rows and run the full carry-save
    // reduction, so the device traffic matches the in-process run command
    // for command.
    {
      const std::size_t width = geometry.columns;
      const auto m = partition.intervals;
      DegreeBatcher batcher(sup, plan);
      for (std::uint32_t i = 0; i < m; ++i) {
        for (std::uint32_t j = 0; j < m; ++j) {
          const EdgeBlock& block = partition.block(i, j);
          if (block.edges.empty()) continue;
          const std::size_t n_src = partition.interval_vertices[i].size();
          const std::size_t n_dst = partition.interval_vertices[j].size();
          PIMA_CHECK(n_dst <= width,
                     "interval too wide for one sub-array row — increase M");
          PIMA_CHECK(n_src <= width,
                     "interval too wide for one sub-array row — increase M");
          // In-degrees: column sums of the block's adjacency rows.
          const std::size_t in_flat = runtime::block_subarray(total, i, j, m);
          batcher.add(in_flat, n_src, block, false);
          // Out-degrees: column sums of the transposed block.
          const std::size_t out_flat = runtime::block_subarray(
              total, j, i, m, static_cast<std::size_t>(m) * m);
          batcher.add(out_flat, n_dst, block, true);
        }
      }
      batcher.finish();
      drain_all(sup);
    }
    std::vector<dna::Sequence> walks =
        options.euler_contigs
            ? assembly::contigs_from_euler(graph, options.traversal)
            : assembly::contigs_from_unitigs(graph);
    const std::size_t arrays = std::max<std::size_t>(1, options.hash_shards);
    if (plan.sharded()) {
      runtime::Exchange<dna::Sequence> handoff(options.devices);
      for (std::size_t w = 0; w < walks.size(); ++w) {
        const std::size_t owner = plan.owner_of(w % arrays);
        handoff.push(owner, 0, w, std::move(walks[w]));
      }
      result.contigs = handoff.gather(0);
    } else {
      result.contigs = std::move(walks);
    }
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
        submit_program_sliced(sup, plan, std::move(lookups));
        lookups = {};
        lookups.reserve(kProgramSlice);
      }
    }
    submit_program_sliced(sup, plan, std::move(lookups));
    drain_all(sup);
    const StageFold fold = fold_stage(sup, plan, total);
    result.traverse = {fold.device, "traverse"};
    export_stage("traverse", result.traverse.device, fold.commands);
    clear_all_stats(sup);
    snap.contigs = result.contigs;
    snap.traverse = result.traverse.device;
    sup.mark_stage_done(3);
    write_checkpoint(3);
  }

  result.contig_stats = assembly::compute_stats(result.contigs);
  result.fault_stats = base_fault;
  if (options.capture_trace) {
    // Trace harvest, folded like DevicePool::captured_program: per-worker
    // per-sub-array replay programs, concatenated in logical flat order.
    std::vector<std::vector<std::pair<std::size_t, dram::Program>>> traces(
        sup.devices());
    const auto responses = sup.query_all(to_every(sup, make_op("trace")));
    for (std::size_t d = 0; d < sup.devices(); ++d) {
      for (const auto& entry : responses[d].get("programs").items()) {
        std::istringstream in(entry.get_string("text"));
        traces[d].emplace_back(
            static_cast<std::size_t>(entry.get_uint64("flat")),
            dram::parse_program(in));
      }
    }
    std::vector<std::size_t> cursor(traces.size(), 0);
    for (std::size_t flat = 0; flat < total; ++flat) {
      const std::size_t d = plan.owner_of(flat);
      auto& c = cursor[d];
      while (c < traces[d].size() && traces[d][c].first < flat) ++c;
      if (c >= traces[d].size() || traces[d][c].first != flat) continue;
      auto& part = traces[d][c].second;
      result.trace.insert(result.trace.end(),
                          std::make_move_iterator(part.begin()),
                          std::make_move_iterator(part.end()));
    }
  }
  if (telemetry::metrics_enabled()) {
    auto& registry = telemetry::metrics();
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
  sup.shutdown();
  return result;
}

}  // namespace pima::core::detail
