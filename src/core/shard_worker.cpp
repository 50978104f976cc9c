#include "core/shard_worker.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "runtime/procpool.hpp"
#include "telemetry/session.hpp"

namespace pima::core {

namespace {

net::Json ok_response() {
  net::Json j = net::Json::object();
  j.set("ok", true);
  return j;
}

[[noreturn]] void bad_request(const std::string& why) {
  throw InputFormatError("device worker request: " + why);
}

// The `flat` of a wire entry: in range and not yet `seen` in its response.
std::size_t checked_flat(const net::Json& entry, std::vector<bool>& seen,
                         const char* what) {
  const std::uint64_t flat = entry.get("flat").as_uint64();
  const auto bad = [&](const char* why) {
    throw InputFormatError(std::string(what) + ": flat " +
                           std::to_string(flat) + " " + why);
  };
  if (flat >= seen.size()) bad("is out of range");
  if (seen[flat]) bad("is repeated");
  seen[flat] = true;
  return static_cast<std::size_t>(flat);
}

}  // namespace

// ---- DeviceShard -------------------------------------------------------------

DeviceShard::DeviceShard(dram::Device& device,
                         const runtime::EngineOptions& engine,
                         std::size_t hash_shards, std::size_t k,
                         std::size_t kmer_batch,
                         const dram::FaultConfig& fault,
                         const runtime::RecoveryOptions& recovery)
    : device_(device),
      engine_(device, engine),
      table_(device, hash_shards),
      kmer_batch_(kmer_batch),
      pending_(engine_.channels()),
      degree_scratch_(engine_.channels()) {
  device_.clear_stats();
  // Fault-aware execution: attach the Table-I-calibrated fault model and
  // route the table's critical probes through the recovery layer. With
  // faults off and recovery kOff (the default) nothing here runs and the
  // run is bit-identical to the unfaulted build. The device seeds its
  // injectors from (model, flat, geometry), so the fault process of a
  // given logical flat does not depend on the channel count or transport.
  device_.enable_faults(fault);
  if (fault.enabled() || recovery.mode != runtime::RecoveryMode::kOff)
    recovery_ = std::make_unique<runtime::RecoveryManager>(device_, recovery);
  table_.bind_key_length(k);
  table_.attach_recovery(recovery_.get());
}

DeviceShard::~DeviceShard() { engine_.quiesce(); }

void DeviceShard::add_kmer(const assembly::Kmer& kmer) {
  const std::size_t channel =
      engine_.channel_of(table_.shard_subarray_flat(table_.shard_for(kmer)));
  pending_[channel].push_back(kmer);
  if (pending_[channel].size() >= kmer_batch_) queue_batch(channel);
}

void DeviceShard::flush_kmers() {
  for (std::size_t channel = 0; channel < pending_.size(); ++channel)
    if (!pending_[channel].empty()) queue_batch(channel);
}

void DeviceShard::queue_batch(std::size_t channel) {
  auto& pending = pending_[channel];
  const std::size_t size = pending.size();
  runtime::submit_guarded(engine_, [&] {
    engine_.submit(channel, [this, batch = std::move(pending)] {
      for (const auto& kmer : batch) table_.insert_or_increment(kmer);
    });
  });
  pending = {};
  pending.reserve(size);  // the next batch is likely as large
}

void DeviceShard::drain() { engine_.drain(); }

KmerEntries DeviceShard::extract_shard(std::size_t shard) {
  return table_.extract_shard(shard);
}

void DeviceShard::submit_program(dram::Program program) {
  runtime::submit_guarded(
      engine_, [&] { engine_.submit_program(std::move(program)); });
}

void DeviceShard::degree_block(std::size_t flat, std::size_t n,
                               EdgeBlock block) {
  // The task owns its block: the caller's partition may die first on an
  // unwind.
  runtime::submit_guarded(engine_, [&] {
    ColumnSumScratch& scratch = degree_scratch_[engine_.channel_of(flat)];
    engine_.submit_to_subarray(flat, [this, flat, n, &scratch,
                                      block = std::move(block)] {
      (void)run_degree_job(device_.subarray(flat), flat, block, n, scratch);
    });
  });
}

dram::SubarrayStats DeviceShard::take_stats() {
  dram::SubarrayStats stats;
  const std::size_t total = device_.geometry().total_subarrays();
  for (std::size_t flat = 0; flat < total; ++flat) {
    const dram::Subarray* sa = device_.subarray_if(flat);
    // Zero-command sub-arrays are the fold's identity: not listed.
    if (sa != nullptr && sa->stats().total_commands() != 0)
      stats.emplace_back(flat, sa->stats());
  }
  device_.clear_stats();
  return stats;
}

const dram::Program* DeviceShard::trace(std::size_t flat) const {
  return device_.trace_if(flat);
}

runtime::FaultStats DeviceShard::fault_stats() const {
  return recovery_ ? recovery_->roll_up() : runtime::FaultStats{};
}

void DeviceShard::export_metrics(telemetry::MetricsRegistry& registry) const {
  engine_.export_metrics(registry);
  if (recovery_) recovery_->export_metrics(registry);
}

// ---- ShardWorkerCore and the wire -------------------------------------------

net::Json worker_init_to_json(const WorkerInit& init) {
  net::Json j = net::Json::object();
  j.set("op", "init");
  net::Json geom = net::Json::object();
  geom.set("rows", init.geometry.rows);
  geom.set("compute_rows", init.geometry.compute_rows);
  geom.set("columns", init.geometry.columns);
  geom.set("subarrays_per_mat", init.geometry.subarrays_per_mat);
  geom.set("mats_per_bank", init.geometry.mats_per_bank);
  geom.set("banks", init.geometry.banks);
  j.set("geometry", std::move(geom));
  // Exact wire image of the modelled technology: the worker's cost model
  // must be the parent's, or stats would drift from the in-process run.
  net::Json tech = net::Json::array();
  const auto& t = init.technology;
  for (const double v :
       {t.tech.vdd, t.tech.cell_cap_ff, t.tech.bitline_cap_ff,
        t.tech.inverter_gain, t.timing.t_rcd_ns, t.timing.t_ras_ns,
        t.timing.t_rp_ns, t.timing.t_cl_ns, t.timing.t_bl_ns,
        t.energy.e_activate_pj, t.energy.e_precharge_pj,
        t.energy.e_multirow_extra_pj, t.energy.e_sa_logic_pj,
        t.energy.e_dpu_pj, t.energy.e_read_col_pj, t.energy.e_write_col_pj,
        t.energy.static_power_w})
    tech.push_back(net::Json(v));
  j.set("technology", std::move(tech));
  j.set("k", init.k);
  j.set("hash_shards", init.hash_shards);
  j.set("channels", init.engine.channels);
  j.set("capture_trace", init.engine.capture_trace);
  j.set("trace_spans", init.trace_spans);
  j.set("stall_timeout_ms", init.engine.stall_timeout_ms);
  return j;
}

WorkerInit worker_init_from_json(const net::Json& j) {
  WorkerInit init;
  if (!j.has("geometry") || !j.get("geometry").is_object())
    bad_request("init needs a geometry object");
  const net::Json& geom = j.get("geometry");
  init.geometry.rows = static_cast<std::size_t>(geom.get_uint64("rows"));
  init.geometry.compute_rows =
      static_cast<std::size_t>(geom.get_uint64("compute_rows"));
  init.geometry.columns = static_cast<std::size_t>(geom.get_uint64("columns"));
  init.geometry.subarrays_per_mat =
      static_cast<std::size_t>(geom.get_uint64("subarrays_per_mat"));
  init.geometry.mats_per_bank =
      static_cast<std::size_t>(geom.get_uint64("mats_per_bank"));
  init.geometry.banks = static_cast<std::size_t>(geom.get_uint64("banks"));
  if (!j.has("technology") || !j.get("technology").is_array() ||
      j.get("technology").items().size() != 17)
    bad_request("init needs the 17-field technology array");
  const auto& tech = j.get("technology").items();
  auto& t = init.technology;
  double* slots[17] = {&t.tech.vdd,
                       &t.tech.cell_cap_ff,
                       &t.tech.bitline_cap_ff,
                       &t.tech.inverter_gain,
                       &t.timing.t_rcd_ns,
                       &t.timing.t_ras_ns,
                       &t.timing.t_rp_ns,
                       &t.timing.t_cl_ns,
                       &t.timing.t_bl_ns,
                       &t.energy.e_activate_pj,
                       &t.energy.e_precharge_pj,
                       &t.energy.e_multirow_extra_pj,
                       &t.energy.e_sa_logic_pj,
                       &t.energy.e_dpu_pj,
                       &t.energy.e_read_col_pj,
                       &t.energy.e_write_col_pj,
                       &t.energy.static_power_w};
  for (std::size_t i = 0; i < 17; ++i) *slots[i] = tech[i].as_number();
  init.k = static_cast<std::size_t>(j.get_uint64("k"));
  init.hash_shards = static_cast<std::size_t>(j.get_uint64("hash_shards", 1));
  init.engine.channels =
      static_cast<std::size_t>(j.get_uint64("channels", 1));
  init.engine.capture_trace = j.get_bool("capture_trace", false);
  init.trace_spans = j.get_bool("trace_spans", false);
  init.engine.stall_timeout_ms = j.get_number("stall_timeout_ms", 0.0);
  if (init.k < 1 || init.k > assembly::Kmer::kMaxK)
    bad_request("init k out of range");
  if (init.hash_shards < 1) bad_request("init hash_shards out of range");
  return init;
}

ShardWorkerCore::ShardWorkerCore(const net::Json& init)
    : init_(worker_init_from_json(init)),
      device_(init_.geometry, init_.technology),
      // A real worker thread even at channels == 1: the request loop
      // answers while kernels execute, and the watchdog can only supervise
      // a kernel off its thread. One task per channel per `kmers` request:
      // op_kmers flushes.
      shard_(device_,
             [this] {
               runtime::EngineOptions e = init_.engine;
               e.force_worker = true;
               return e;
             }(),
             init_.hash_shards, init_.k,
             std::numeric_limits<std::size_t>::max()) {}

net::Json ShardWorkerCore::handle(const net::Json& request) {
  const std::string op = request.get_string("op");
  // One span per rpc verb; the controller stamps traced requests with a
  // `tel` flow id whose start point lives inside its own rpc:<op> span, so
  // Perfetto draws an arrow from the controller call to this execution.
  telemetry::ScopedSpan span(runtime::wire_verb(op).devd_span);
  {
    telemetry::Tracer& tr = telemetry::tracer();
    const std::uint64_t flow = request.get_uint64("tel", 0);
    if (flow != 0 && tr.enabled())
      tr.record_flow("rpc", 'f', flow, tr.now_ns());
  }
  if (op == "kmers") return op_kmers(request);
  if (op == "drain") return op_drain();
  if (op == "extract") return op_extract(request);
  if (op == "program") return op_program(request);
  if (op == "degree_block") return op_degree_block(request);
  if (op == "stats") return op_stats();
  if (op == "trace") return op_trace(request);
  if (op == "telemetry") return op_telemetry();
  if (op == "shutdown") {
    shutdown_ = true;
    return ok_response();
  }
  if (op == "init") bad_request("worker already initialized");
  bad_request("unknown op '" + op + "'");
}

net::Json ShardWorkerCore::op_kmers(const net::Json& req) {
  // One superstep of this device's k-mers in stream order, parsed in full
  // before anything is queued; the shard splits them by owning channel, so
  // per-shard insert order stays stream order.
  const auto values =
      net::unpack_uints(req.get("kmers").as_string(), "device worker kmers");
  std::vector<assembly::Kmer> kmers;
  kmers.reserve(values.size());
  for (const std::uint64_t value : values)
    // The constructor rejects stray bits above 2k (PreconditionError).
    kmers.emplace_back(value, init_.k);
  for (const auto& kmer : kmers) shard_.add_kmer(kmer);
  shard_.flush_kmers();
  return ok_response();
}

net::Json ShardWorkerCore::op_drain() {
  shard_.drain();
  return ok_response();
}

net::Json ShardWorkerCore::op_extract(const net::Json& req) {
  const net::Json& list = req.get("shards");
  if (!list.is_array()) bad_request("extract shards must be an array");
  const auto& shards = list.items();
  for (const auto& s : shards)
    if (s.as_uint64() >= shard_.hash_shards())
      bad_request("extract shard out of range");
  std::vector<KmerEntries> entries;
  for (const auto& s : shards)
    entries.push_back(
        shard_.extract_shard(static_cast<std::size_t>(s.as_uint64())));
  net::Json resp = ok_response();
  resp.set("shards", extract_shards_to_json(entries));
  return resp;
}

net::Json ShardWorkerCore::op_program(const net::Json& req) {
  shard_.submit_program(unpack_program(req.get("insts").as_string(),
                                       device_.geometry().columns));
  return ok_response();
}

net::Json ShardWorkerCore::op_degree_block(const net::Json& req) {
  // A batch of edge blocks, flat n m (from to mult) x m each. The shard
  // renders the adjacency rows with the controller's own AdjacencyRows, so
  // the rows — and the sub-array's command stream — are those of the
  // in-process run by construction. The whole batch is validated before
  // any block touches the device.
  const dram::Geometry& geom = device_.geometry();
  const std::size_t width = geom.columns;
  struct Job {
    std::size_t flat = 0;
    std::size_t n = 0;
    EdgeBlock block;
  };
  std::vector<Job> jobs;
  std::vector<std::uint64_t> pairs;  ///< one block's (from, to) pairs
  const auto v = net::unpack_uints(req.get("blocks").as_string(),
                                   "device worker degree_block");
  for (std::size_t i = 0; i < v.size();) {
    if (v.size() - i < 3)
      bad_request("a degree_block block is flat n m (from to mult) x m");
    Job job;
    job.flat = v[i];
    job.n = v[i + 1];
    const std::uint64_t edges = v[i + 2];
    i += 3;
    if (edges > (v.size() - i) / 3)
      bad_request("a degree_block block's edge list is truncated");
    if (job.flat >= geom.total_subarrays())
      bad_request("degree_block flat index out of range");
    if (job.n > width)
      bad_request("degree_block source count exceeds the row width");
    // The kernel needs a zero row plus one row per edge instance; reject
    // what cannot fit before allocating a row for it.
    std::uint64_t rows = 1 + job.n;
    job.block.edges.reserve(edges);
    for (const std::size_t last = i + 3 * edges; i < last; i += 3) {
      const std::uint64_t from = v[i];
      const std::uint64_t to = v[i + 1];
      const std::uint64_t mult = v[i + 2];
      if (from >= job.n) bad_request("degree_block edge source outside block");
      if (to >= width) bad_request("degree_block edge destination outside row");
      if (mult == 0 || mult > UINT32_MAX)
        bad_request("degree_block multiplicity outside 1 .. 2^32 - 1");
      rows += mult > 1 ? mult - 1 : 0;
      if (rows > geom.data_rows())
        throw PreconditionError(
            "degree_block: block needs more rows than a sub-array holds");
      job.block.edges.push_back({static_cast<std::uint32_t>(from),
                                 static_cast<std::uint32_t>(to),
                                 static_cast<std::uint32_t>(mult)});
      pairs.push_back(from << 32 | to);
    }
    // A graph edge appears once per block, its instances in `mult`: the
    // adjacency rows would merge a repeated pair and fail the sum check.
    std::sort(pairs.begin(), pairs.end());
    if (std::adjacent_find(pairs.begin(), pairs.end()) != pairs.end())
      bad_request("a degree_block block repeats an edge");
    pairs.clear();
    jobs.push_back(std::move(job));
  }
  for (auto& job : jobs)
    shard_.degree_block(job.flat, job.n, std::move(job.block));
  return ok_response();
}

void append_degree_block(std::string& out, std::size_t flat, std::size_t n,
                         const EdgeBlock& block, bool transposed) {
  net::pack_uint(out, flat);
  net::pack_uint(out, n);
  net::pack_uint(out, block.edges.size());
  for (const auto& e : block.edges) {
    net::pack_uint(out, transposed ? e.to : e.from);
    net::pack_uint(out, transposed ? e.from : e.to);
    net::pack_uint(out, e.multiplicity);
  }
}

std::string pack_program(const dram::Program& program) {
  std::string out;
  out.reserve(program.size() * 24);
  for (const auto& inst : program) {
    for (const std::uint64_t v :
         {static_cast<std::uint64_t>(inst.op), std::uint64_t{inst.subarray},
          std::uint64_t{inst.src1}, std::uint64_t{inst.src2},
          std::uint64_t{inst.src3}, std::uint64_t{inst.dst},
          std::uint64_t{inst.size}, std::uint64_t{inst.width}})
      net::pack_uint(out, v);
    if (inst.op != dram::Opcode::kRowWrite) continue;
    const BitVector& row = inst.payload;
    bool zero = true;
    for (std::size_t w = 0; w < row.word_count() && zero; ++w)
      zero = row.word(w) == 0;
    net::pack_uint(out, row.size());
    net::pack_uint(out, zero ? 0 : 1);
    if (!zero)
      for (std::size_t w = 0; w < row.word_count(); ++w)
        net::pack_uint(out, row.word(w));
  }
  return out;
}

dram::Program unpack_program(std::string_view packed, std::size_t columns) {
  constexpr const char* kWhat = "device worker program";
  const auto bad = [](const std::string& why) {
    throw InputFormatError(std::string(kWhat) + ": " + why);
  };
  const auto v = net::unpack_uints(packed, kWhat);
  std::size_t i = 0;
  const auto take = [&] {
    if (i == v.size()) bad("truncated instruction record");
    return v[i++];
  };
  dram::Program program;
  program.reserve(v.size() / 8);  // a record holds at least 8 numbers
  while (i < v.size()) {
    dram::Instruction inst;
    const std::uint64_t op = take();
    if (op > static_cast<std::uint64_t>(dram::Opcode::kDpuPopcount))
      bad("unknown opcode " + std::to_string(op));
    inst.op = static_cast<dram::Opcode>(op);
    inst.subarray = take();
    inst.src1 = take();
    inst.src2 = take();
    inst.src3 = take();
    inst.dst = take();
    inst.size = take();
    inst.width = take();
    if (inst.size < 1) bad("instruction size must be >= 1");
    if (inst.op == dram::Opcode::kRowWrite) {
      // Checked before the payload row is allocated.
      const std::uint64_t bits = take();
      if (bits != columns)
        bad("a ROW_WRITE payload of " + std::to_string(bits) +
            " bits for a row of " + std::to_string(columns));
      const std::uint64_t has_words = take();
      if (has_words > 1) bad("a ROW_WRITE zero-row flag must be 0 or 1");
      inst.payload = BitVector(columns);
      for (std::size_t w = 0; has_words == 1 && w < inst.payload.word_count();
           ++w) {
        const std::uint64_t word = take();
        if (w + 1 == inst.payload.word_count() && columns % 64 != 0 &&
            (word >> (columns % 64)) != 0)
          bad("a ROW_WRITE payload sets a bit past its width");
        inst.payload.set_word(w, word);
      }
    }
    program.push_back(std::move(inst));
  }
  return program;
}

net::Json stats_entry_to_json(std::size_t flat, const dram::CommandStats& st) {
  net::Json entry = net::Json::object();
  entry.set("flat", static_cast<std::uint64_t>(flat));
  net::Json counts = net::Json::array();
  for (const std::size_t c : st.counts)
    counts.push_back(net::Json(static_cast<std::uint64_t>(c)));
  entry.set("counts", std::move(counts));
  entry.set("busy_ns", st.busy_ns);
  entry.set("energy_pj", st.energy_pj);
  return entry;
}

dram::CommandStats stats_entry_from_json(const net::Json& entry) {
  // items() and as_uint64() reject a wrong type with InputFormatError.
  const auto& counts = entry.get("counts").items();
  if (counts.size() != dram::kCommandKindCount)
    throw InputFormatError(
        "device worker stats: counts holds " + std::to_string(counts.size()) +
        " values, expected " + std::to_string(dram::kCommandKindCount) +
        " (one per command kind)");
  dram::CommandStats st;
  for (std::size_t i = 0; i < counts.size(); ++i)
    st.counts[i] = static_cast<std::size_t>(counts[i].as_uint64());
  st.busy_ns = entry.get_number("busy_ns");
  st.energy_pj = entry.get_number("energy_pj");
  return st;
}

net::Json subarray_stats_to_json(const dram::SubarrayStats& stats) {
  net::Json list = net::Json::array();
  for (const auto& [flat, st] : stats)
    list.push_back(stats_entry_to_json(flat, st));
  return list;
}

dram::SubarrayStats subarray_stats_from_json(const net::Json& list,
                                             std::size_t total) {
  std::vector<bool> seen(total);
  dram::SubarrayStats stats;
  for (const auto& entry : list.items()) {
    const std::size_t flat = checked_flat(entry, seen, "device worker stats");
    stats.emplace_back(flat, stats_entry_from_json(entry));
  }
  return stats;
}

dram::Program subarray_trace_from_json(const net::Json& response,
                                       std::size_t flat, std::size_t columns) {
  const dram::Program program =
      unpack_program(response.get("insts").as_string(), columns);
  for (const auto& inst : program)
    if (inst.subarray != flat)
      throw InputFormatError("device worker trace: an instruction for flat " +
                             std::to_string(inst.subarray) +
                             " in the answer for flat " +
                             std::to_string(flat));
  return program;
}

net::Json extract_shards_to_json(const std::vector<KmerEntries>& shards) {
  std::string packed;
  for (const auto& entries : shards) {
    net::pack_uint(packed, entries.size());
    for (const auto& [kmer, freq] : entries) {
      net::pack_uint(packed, kmer.packed());
      net::pack_uint(packed, freq);
    }
  }
  return net::Json(std::move(packed));
}

std::vector<KmerEntries> extract_shards_from_json(const net::Json& shards,
                                                  std::size_t count,
                                                  std::size_t k) {
  const auto bad = [](const std::string& why) {
    throw InputFormatError("device worker extract: " + why);
  };
  const auto v = net::unpack_uints(shards.as_string(), "device worker extract");
  std::vector<KmerEntries> out(count);
  std::size_t i = 0;
  for (std::size_t s = 0; s < count; ++s) {
    if (i == v.size())
      bad("answered " + std::to_string(s) + " shards, " +
          std::to_string(count) + " requested");
    const std::uint64_t entries = v[i++];
    if (entries > (v.size() - i) / 2)
      bad("shard " + std::to_string(s) + " claims " + std::to_string(entries) +
          " entries, more than the answer holds");
    out[s].reserve(entries);
    for (const std::size_t last = i + 2 * entries; i < last; i += 2) {
      const std::uint64_t packed = v[i];
      const std::uint64_t freq = v[i + 1];
      if (freq > UINT32_MAX) bad("frequency " + std::to_string(freq) +
                                 " exceeds 32 bits");
      try {
        out[s].emplace_back(assembly::Kmer(packed, k),
                            static_cast<std::uint32_t>(freq));
      } catch (const PreconditionError&) {
        bad("k-mer " + std::to_string(packed) + " is wider than " +
            std::to_string(2 * k) + " bits");
      }
    }
  }
  if (i != v.size())
    bad("the answer holds more than the " + std::to_string(count) +
        " requested shards");
  return out;
}

net::Json ShardWorkerCore::op_stats() {
  net::Json resp = ok_response();
  resp.set("subarrays", subarray_stats_to_json(shard_.take_stats()));
  return resp;
}

net::Json ShardWorkerCore::op_trace(const net::Json& req) {
  const std::uint64_t flat = req.get("flat").as_uint64();
  if (flat >= device_.geometry().total_subarrays())
    bad_request("trace flat out of range");
  const dram::Program* program = shard_.trace(static_cast<std::size_t>(flat));
  net::Json resp = ok_response();
  resp.set("insts", program != nullptr ? pack_program(*program) : "");
  return resp;
}

net::Json ShardWorkerCore::op_telemetry() {
  // Cumulative export: published ring prefixes only, so this is safe while
  // engine workers are still recording. The supervisor replaces this
  // incarnation's stored trace wholesale on every harvest, which makes the
  // repeat-at-stage-boundary flush idempotent.
  telemetry::Tracer& tr = telemetry::tracer();
  net::Json resp = ok_response();
  resp.set("now_ns", tr.now_ns());
  net::Json tracks = net::Json::array();
  for (const auto& [track, name] : tr.track_names()) {
    net::Json entry = net::Json::object();
    entry.set("track", static_cast<std::uint64_t>(track));
    entry.set("name", name);
    tracks.push_back(std::move(entry));
  }
  resp.set("tracks", std::move(tracks));
  // Positional event rows keep the wire line compact:
  // [name, phase, track, ts_ns, dur_ns, value, arg_name, flow_id].
  net::Json events = net::Json::array();
  for (const auto& e : tr.export_events()) {
    net::Json row = net::Json::array();
    row.push_back(net::Json(e.name));
    row.push_back(net::Json(std::string(1, e.phase)));
    row.push_back(net::Json(static_cast<std::uint64_t>(e.track)));
    row.push_back(net::Json(e.ts_ns));
    row.push_back(net::Json(e.dur_ns));
    row.push_back(net::Json(e.value));
    row.push_back(net::Json(e.arg_name));
    row.push_back(net::Json(e.flow_id));
    events.push_back(std::move(row));
  }
  resp.set("events", std::move(events));
  resp.set("dropped", tr.dropped_count());
  return resp;
}

net::Json worker_error_response(const std::exception& e) {
  net::Json resp = net::Json::object();
  resp.set("ok", false);
  resp.set("error", error_name(e));
  resp.set("message", std::string(e.what()));
  if (const auto* stalled = dynamic_cast<const EngineStalledError*>(&e)) {
    resp.set("channel", static_cast<std::uint64_t>(stalled->channel()));
    resp.set("subarray", static_cast<std::uint64_t>(stalled->subarray()));
    resp.set("last_retired", stalled->last_retired());
    resp.set("timeout_ms", stalled->timeout_ms());
  }
  return resp;
}

}  // namespace pima::core
