#include "core/shard_worker.hpp"

#include <cstdint>
#include <limits>
#include <sstream>
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

// A wire array of unsigned integers ([flat, n, from, to, mult, ...] or
// [kmer, ...]); as_uint64 rejects anything else typed.
const std::vector<net::Json>& uint_array(const net::Json& j,
                                         const char* what) {
  if (!j.is_array()) bad_request(std::string(what) + " must be an array");
  return j.items();
}

// A program in the wire's text form. A malformed line is a torn or corrupt
// frame from the reader's point of view, not a bug in the reader.
dram::Program parse_program_text(const std::string& text, const char* what) {
  std::istringstream in(text);
  try {
    return dram::parse_program(in);
  } catch (const PreconditionError& e) {
    throw InputFormatError(std::string(what) +
                           ": unparseable program: " + e.what());
  }
}

// The `flat` of a wire entry from worker `device` of `devices`: in range,
// owned by that worker, and not yet `seen` in its response.
std::size_t owned_flat(const net::Json& entry, std::size_t device,
                       std::size_t devices, std::vector<bool>& seen,
                       const char* what) {
  const std::uint64_t flat = entry.get("flat").as_uint64();
  const auto bad = [&](const char* why) {
    throw InputFormatError(std::string(what) + ": flat " +
                           std::to_string(flat) + " " + why + " (worker " +
                           std::to_string(device) + " of " +
                           std::to_string(devices) + ")");
  };
  if (flat >= seen.size()) bad("is out of range");
  if (dram::owner_of(flat, devices) != device)
    bad("belongs to another worker");
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
      pending_(engine_.channels()) {
  device_.clear_stats();
  // Fault-aware execution: attach the Table-I-calibrated fault model and
  // route the table's critical probes through the recovery layer. With
  // faults off and recovery kOff (the default) nothing here runs and the
  // run is bit-identical to the unfaulted build. Every device seeds its
  // injectors from (model, flat, geometry), so the fault process of a
  // given logical flat does not depend on the device count.
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

std::size_t DeviceShard::distinct_kmers() const {
  return table_.distinct_kmers();
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
    engine_.submit_to_subarray(flat, [this, flat, n,
                                      block = std::move(block)] {
      (void)pim_column_sums(
          device_.subarray(flat),
          block_adjacency_rows(block, n, device_.geometry().columns));
    });
  });
}

dram::SubarrayStats DeviceShard::subarray_stats() const {
  dram::SubarrayStats stats;
  const std::size_t total = device_.geometry().total_subarrays();
  for (std::size_t flat = 0; flat < total; ++flat) {
    const dram::Subarray* sa = device_.subarray_if(flat);
    // Zero-command sub-arrays are the fold's identity: not listed.
    if (sa != nullptr && sa->stats().total_commands() != 0)
      stats.emplace_back(flat, sa->stats());
  }
  return stats;
}

void DeviceShard::clear_stats() { device_.clear_stats(); }

dram::SubarrayPrograms DeviceShard::traces() const {
  if (!device_.tracing()) return {};
  return dram::captured_programs(device_);
}

runtime::FaultStats DeviceShard::fault_stats() const {
  return recovery_ ? recovery_->roll_up() : runtime::FaultStats{};
}

void DeviceShard::export_metrics(telemetry::MetricsRegistry& registry,
                                 const std::string& device_label) const {
  if (device_label.empty()) {
    engine_.export_metrics(registry);
  } else {
    telemetry::MetricsRegistry labelled;
    labelled.set_default_labels({{"device", device_label}});
    engine_.export_metrics(labelled);
    registry.merge_from(labelled);
  }
  if (recovery_) recovery_->export_metrics(registry);
}

// ---- ShardWorkerCore and the wire -------------------------------------------

net::Json worker_init_to_json(const WorkerInit& init) {
  net::Json j = net::Json::object();
  j.set("op", "init");
  j.set("device", init.device);
  j.set("devices", init.devices);
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
  j.set("queue_capacity", init.engine.queue_capacity);
  j.set("capture_trace", init.engine.capture_trace);
  j.set("trace_spans", init.trace_spans);
  j.set("stall_timeout_ms", init.engine.stall_timeout_ms);
  return j;
}

WorkerInit worker_init_from_json(const net::Json& j) {
  WorkerInit init;
  init.device = static_cast<std::size_t>(j.get_uint64("device"));
  init.devices = static_cast<std::size_t>(j.get_uint64("devices", 1));
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
  init.engine.queue_capacity =
      static_cast<std::size_t>(j.get_uint64("queue_capacity", 64));
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
      // A real worker thread even at channels == 1: the request loop must
      // stay responsive (heartbeats, liveness) while kernels execute. One
      // task per channel per `kmers` request: op_kmers flushes.
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
  if (op == "distinct") return op_distinct();
  if (op == "program") return op_program(request);
  if (op == "degree_block") return op_degree_block(request);
  if (op == "stats") return op_stats();
  if (op == "clear_stats") return op_clear_stats();
  if (op == "trace") return op_trace();
  if (op == "telemetry") return op_telemetry();
  if (op == "ping") return ok_response();
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
  std::vector<assembly::Kmer> kmers;
  for (const auto& value : uint_array(req.get("kmers"), "kmers"))
    // The constructor rejects stray bits above 2k (PreconditionError).
    kmers.emplace_back(value.as_uint64(), init_.k);
  for (const auto& kmer : kmers) shard_.add_kmer(kmer);
  shard_.flush_kmers();
  return ok_response();
}

net::Json ShardWorkerCore::op_drain() {
  shard_.drain();
  return ok_response();
}

net::Json ShardWorkerCore::op_extract(const net::Json& req) {
  const auto& shards = uint_array(req.get("shards"), "extract shards");
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

net::Json ShardWorkerCore::op_distinct() {
  net::Json resp = ok_response();
  resp.set("value", static_cast<std::uint64_t>(shard_.distinct_kmers()));
  return resp;
}

net::Json ShardWorkerCore::op_program(const net::Json& req) {
  shard_.submit_program(
      parse_program_text(req.get_string("text"), "device worker request"));
  return ok_response();
}

net::Json ShardWorkerCore::op_degree_block(const net::Json& req) {
  // A batch of edge blocks, [flat, n_local_sources, (from, to, mult)...]
  // each. The shard rebuilds the adjacency rows with the controller's own
  // block_adjacency_rows, so the rows — and the sub-array's command
  // stream — are those of the in-process run by construction. The whole
  // batch is validated before any block touches the device.
  const dram::Geometry& geom = device_.geometry();
  const std::size_t width = geom.columns;
  struct Job {
    std::size_t flat = 0;
    std::size_t n = 0;
    EdgeBlock block;
  };
  std::vector<Job> jobs;
  for (const auto& item :
       uint_array(req.get("blocks"), "degree_block blocks")) {
    const auto& v = uint_array(item, "a degree_block block");
    if (v.size() < 2 || (v.size() - 2) % 3 != 0)
      bad_request("a degree_block block is [flat, n, (from, to, mult)...]");
    Job job;
    job.flat = static_cast<std::size_t>(v[0].as_uint64());
    job.n = static_cast<std::size_t>(v[1].as_uint64());
    if (job.flat >= geom.total_subarrays())
      bad_request("degree_block flat index out of range");
    if (job.n > width)
      bad_request("degree_block source count exceeds the row width");
    // The kernel needs a zero row plus one row per edge instance; reject
    // what cannot fit before allocating a row for it.
    std::uint64_t rows = 1 + job.n;
    job.block.edges.reserve((v.size() - 2) / 3);
    for (std::size_t i = 2; i < v.size(); i += 3) {
      const std::uint64_t from = v[i].as_uint64();
      const std::uint64_t to = v[i + 1].as_uint64();
      const std::uint64_t mult = v[i + 2].as_uint64();
      if (from >= job.n) bad_request("degree_block edge source outside block");
      if (to >= width) bad_request("degree_block edge destination outside row");
      if (mult > UINT32_MAX) bad_request("degree_block multiplicity too large");
      rows += mult > 1 ? mult - 1 : 0;
      if (rows > geom.data_rows())
        throw PreconditionError(
            "degree_block: block needs more rows than a sub-array holds");
      job.block.edges.push_back({static_cast<std::uint32_t>(from),
                                 static_cast<std::uint32_t>(to),
                                 static_cast<std::uint32_t>(mult)});
    }
    jobs.push_back(std::move(job));
  }
  for (auto& job : jobs)
    shard_.degree_block(job.flat, job.n, std::move(job.block));
  return ok_response();
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
                                             std::size_t device,
                                             std::size_t devices,
                                             std::size_t total) {
  std::vector<bool> seen(total);
  dram::SubarrayStats stats;
  for (const auto& entry : list.items()) {
    const std::size_t flat =
        owned_flat(entry, device, devices, seen, "device worker stats");
    stats.emplace_back(flat, stats_entry_from_json(entry));
  }
  return stats;
}

net::Json subarray_programs_to_json(const dram::SubarrayPrograms& programs) {
  net::Json list = net::Json::array();
  for (const auto& [flat, program] : programs) {
    net::Json entry = net::Json::object();
    entry.set("flat", static_cast<std::uint64_t>(flat));
    entry.set("text", dram::to_text(program));
    list.push_back(std::move(entry));
  }
  return list;
}

dram::SubarrayPrograms subarray_programs_from_json(const net::Json& list,
                                                   std::size_t device,
                                                   std::size_t devices,
                                                   std::size_t total) {
  std::vector<bool> seen(total);
  dram::SubarrayPrograms programs;
  for (const auto& entry : list.items()) {
    const std::size_t flat =
        owned_flat(entry, device, devices, seen, "device worker trace");
    programs.emplace_back(flat,
                          parse_program_text(entry.get("text").as_string(),
                                             "device worker trace"));
  }
  return programs;
}

net::Json extract_shards_to_json(const std::vector<KmerEntries>& shards) {
  net::Json list = net::Json::array();
  for (const auto& entries : shards) {
    net::Json flat = net::Json::array();
    for (const auto& [kmer, freq] : entries) {
      flat.push_back(net::Json(kmer.packed()));
      flat.push_back(net::Json(static_cast<std::uint64_t>(freq)));
    }
    list.push_back(std::move(flat));
  }
  return list;
}

std::vector<KmerEntries> extract_shards_from_json(const net::Json& shards,
                                                  std::size_t count,
                                                  std::size_t k) {
  const auto bad = [](const std::string& why) {
    throw InputFormatError("device worker extract: " + why);
  };
  const auto& lists = shards.items();
  if (lists.size() != count)
    bad("answered " + std::to_string(lists.size()) + " shards, " +
        std::to_string(count) + " requested");
  std::vector<KmerEntries> out(count);
  for (std::size_t s = 0; s < count; ++s) {
    const auto& flat = lists[s].items();
    if (flat.size() % 2 != 0) bad("a shard list holds an odd value count");
    out[s].reserve(flat.size() / 2);
    for (std::size_t e = 0; e < flat.size(); e += 2) {
      const std::uint64_t packed = flat[e].as_uint64();
      const std::uint64_t freq = flat[e + 1].as_uint64();
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
  return out;
}

net::Json ShardWorkerCore::op_stats() {
  net::Json resp = ok_response();
  resp.set("subarrays", subarray_stats_to_json(shard_.subarray_stats()));
  return resp;
}

net::Json ShardWorkerCore::op_clear_stats() {
  shard_.clear_stats();
  return ok_response();
}

net::Json ShardWorkerCore::op_trace() {
  net::Json resp = ok_response();
  resp.set("programs", subarray_programs_to_json(shard_.traces()));
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
