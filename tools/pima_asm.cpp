// pima_asm — command-line front end of the PIM-Assembler library.
//
//   pima_asm generate  --length 50000 --coverage 20 --genome g.fa --reads r.fa
//   pima_asm assemble  --reads r.fa --k 21 --out contigs.fa [--reference g.fa]
//   pima_asm pim-run   --reads r.fa --k 17 --shards 16 [--threads N]
//                      [--reference g.fa]
//   pima_asm project   [--k 16]
//
// `generate` writes a synthetic chromosome and a sampled read set as FASTA;
// `assemble` runs the software pipeline (with optional error cleaning);
// `pim-run` executes the bit-accurate PIM simulation and reports per-stage
// command/energy statistics; `project` prints the full-scale chr14 cost
// estimates for every platform.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/fsio.hpp"

#include "assembly/assembler.hpp"
#include "assembly/gfa.hpp"
#include "assembly/kmer.hpp"
#include "assembly/spectrum.hpp"
#include "assembly/verify.hpp"
#include "common/table.hpp"
#include "core/cost_model.hpp"
#include "core/pipeline.hpp"
#include "dna/fasta.hpp"
#include "dram/isa.hpp"
#include "dna/genome.hpp"
#include "platforms/presets.hpp"
#include "runtime/cancel.hpp"
#include "runtime/recovery.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/log.hpp"
#include "telemetry/session.hpp"

namespace {

using namespace pima;

// Minimal --key value parser.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) fail("expected --flag, got: " + key);
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "1";  // boolean flag
      }
    }
  }

  std::optional<std::string> get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }
  std::string require(const std::string& key) const {
    const auto v = get(key);
    if (!v) fail("missing required --" + key);
    return *v;
  }
  bool has(const std::string& key) const { return values_.count(key) > 0; }

  [[noreturn]] static void fail(const std::string& msg) {
    std::fprintf(stderr, "pima_asm: %s\n", msg.c_str());
    std::exit(2);
  }

 private:
  std::map<std::string, std::string> values_;
};

// Numeric flags: every one parses strictly (the whole token; no sign on
// an integer, so "-1" cannot wrap to 2^64-1) and must lie in [min, max].
// Anything else raises InputFormatError → the documented "malformed input"
// exit code, naming the flag and the accepted range. A max of the type's
// largest value leaves the flag unbounded above.
template <typename T>
[[noreturn]] void reject_flag(const std::string& key, const char* what, T min,
                              T max, const std::string& got) {
  auto text = [](T x) {
    if constexpr (std::is_integral_v<T>) {
      return std::to_string(x);
    } else {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.10g", x);
      return std::string(buf);
    }
  };
  const std::string range =
      max == std::numeric_limits<T>::max()
          ? " >= " + text(min)
          : " in [" + text(min) + ", " + text(max) + "]";
  throw InputFormatError("--" + key + " must be " + what + range + ", got '" +
                         got + "'");
}

std::size_t get_bounded_size(const Args& args, const std::string& key,
                             std::size_t fallback, std::size_t min,
                             std::size_t max) {
  const auto v = args.get(key);
  if (!v) return fallback;
  std::size_t n = 0;
  const char* end = v->data() + v->size();
  const auto [ptr, ec] = std::from_chars(v->data(), end, n);
  if (ec != std::errc{} || ptr != end || n < min || n > max)
    reject_flag(key, "an integer", min, max, *v);
  return n;
}

double get_bounded_double(const Args& args, const std::string& key,
                          double fallback, double min, double max) {
  const auto v = args.get(key);
  if (!v) return fallback;
  double n = 0.0;
  std::size_t pos = 0;
  try {
    n = std::stod(*v, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != v->size() || !std::isfinite(n) || n < min || n > max)
    reject_flag(key, "a number", min, max, *v);
  return n;
}

constexpr std::size_t kNoMax = std::numeric_limits<std::size_t>::max();
constexpr double kNoMaxReal = std::numeric_limits<double>::max();
constexpr std::size_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();
constexpr std::size_t kMaxK = assembly::Kmer::kMaxK;

/// Smallest --rows that holds a hash shard: core::ShardLayout needs more
/// than 10 data rows above the compute rows.
std::size_t min_rows(const dram::Geometry& g) { return g.compute_rows + 11; }

// SIGINT/SIGTERM turn into a cooperative cancel (pim-run) or a graceful
// daemon shutdown (serve). Both request paths are async-signal-safe.
runtime::CancelToken g_run_cancel;
std::atomic<service::Daemon*> g_daemon{nullptr};

extern "C" void handle_termination_signal(int) {
  g_run_cancel.request("interrupted by signal");
  if (service::Daemon* d = g_daemon.load(std::memory_order_acquire))
    d->request_shutdown();
}

void install_termination_handlers() {
  std::signal(SIGINT, handle_termination_signal);
  std::signal(SIGTERM, handle_termination_signal);
}

std::vector<dna::Sequence> load_reads(const std::string& path) {
  const auto records = dna::read_fasta_file(path);
  std::vector<dna::Sequence> reads;
  reads.reserve(records.size());
  for (const auto& r : records) reads.push_back(r.seq);
  return reads;
}

void report_verification(const std::string& reference_path,
                         const std::vector<dna::Sequence>& contigs,
                         std::size_t min_len) {
  const auto ref = dna::read_fasta_file(reference_path);
  if (ref.empty()) Args::fail("empty reference: " + reference_path);
  const auto report =
      assembly::verify_contigs(ref.front().seq, contigs, min_len);
  std::printf("verify: %zu/%zu contigs match, %.1f%% reference coverage\n",
              report.contigs_matching, report.contigs_checked,
              100.0 * report.reference_coverage);
}

int cmd_generate(const Args& args) {
  dna::GenomeParams gp;
  gp.length = get_bounded_size(args, "length", 50'000, 1, kNoMax);
  gp.gc_content = get_bounded_double(args, "gc", 0.42, 0.0, 1.0);
  gp.repeat_count = get_bounded_size(args, "repeats", 10, 0, kNoMax);
  gp.repeat_length = get_bounded_size(args, "repeat-length", 300, 0, kNoMax);
  gp.seed = get_bounded_size(args, "seed", 14, 0, kNoMax);
  const auto genome = dna::generate_genome(gp);

  dna::ReadSamplerParams rp;
  rp.read_length = get_bounded_size(args, "read-length", 101, 1, kNoMax);
  rp.coverage = get_bounded_double(args, "coverage", 20.0, 0.0, kNoMaxReal);
  rp.error_rate = get_bounded_double(args, "errors", 0.0, 0.0, 1.0);
  rp.seed = gp.seed + 1;
  const auto reads = dna::sample_reads(genome, rp);

  dna::write_fasta_file(args.require("genome"), {{"synthetic_chromosome",
                                                  genome}});
  std::vector<dna::Record> read_records;
  read_records.reserve(reads.size());
  for (std::size_t i = 0; i < reads.size(); ++i)
    read_records.push_back({"read_" + std::to_string(i), reads[i]});
  dna::write_fasta_file(args.require("reads"), read_records);
  std::printf("wrote %zu bp genome and %zu reads (%.0fx)\n", genome.size(),
              reads.size(), rp.coverage);
  return 0;
}

int cmd_assemble(const Args& args) {
  const auto reads = load_reads(args.require("reads"));
  assembly::AssemblyOptions opt;
  opt.k = get_bounded_size(args, "k", 21, 2, kMaxK);
  opt.min_kmer_freq = static_cast<std::uint32_t>(
      get_bounded_size(args, "min-freq", 1, 0, kMaxU32));
  opt.euler_contigs = args.has("euler");
  opt.use_multiplicity = args.has("multiplicity") || args.has("simplify");
  opt.simplify = args.has("simplify");
  const auto result = assembly::assemble(reads, opt);

  std::printf("reads: %zu   distinct %zu-mers: %zu\n", reads.size(), opt.k,
              result.distinct_kmers);
  std::printf("graph: %zu nodes / %zu edges", result.graph_nodes,
              result.graph_edges);
  if (opt.simplify)
    std::printf("  (cleaned: %zu low-cov, %zu tip edges, %zu bubbles)",
                result.simplify_stats.low_coverage_removed,
                result.simplify_stats.tips_removed,
                result.simplify_stats.bubbles_popped);
  std::printf("\ncontigs: %zu, N50 %zu bp, longest %zu bp, total %zu bp\n",
              result.stats.count, result.stats.n50, result.stats.longest,
              result.stats.total_length);

  if (const auto out = args.get("out")) {
    std::vector<dna::Record> records;
    for (std::size_t i = 0; i < result.contigs.size(); ++i)
      records.push_back({"contig_" + std::to_string(i), result.contigs[i]});
    dna::write_fasta_file(*out, records);
    std::printf("wrote %zu contigs to %s\n", records.size(), out->c_str());
  }
  if (const auto gfa_path = args.get("gfa")) {
    const auto counter = assembly::build_hashmap(reads, opt.k);
    const auto graph =
        assembly::DeBruijnGraph::from_counter(counter, true);
    std::ofstream gfa_out(*gfa_path);
    if (!gfa_out) Args::fail("cannot open " + *gfa_path);
    assembly::write_gfa(gfa_out, assembly::build_gfa(graph));
    std::printf("wrote assembly graph to %s\n", gfa_path->c_str());
  }
  if (const auto ref = args.get("reference"))
    report_verification(*ref, result.contigs, 2 * opt.k);
  return 0;
}

int cmd_pim_run(const Args& args) {
  const auto reads = load_reads(args.require("reads"));
  dram::Geometry geom;
  geom.rows = get_bounded_size(args, "rows", 512, min_rows(geom), kNoMax);
  geom.columns = 256;
  geom.subarrays_per_mat = 16;
  geom.mats_per_bank = 4;
  geom.banks = 2;
  dram::Device device(geom);

  core::PipelineOptions opt;
  opt.k = get_bounded_size(args, "k", 17, 2, kMaxK);
  // Stage 2 stores the graph in the sub-arrays after the hash shards.
  opt.hash_shards =
      get_bounded_size(args, "shards", 16, 1, geom.total_subarrays() - 1);
  opt.euler_contigs = args.has("euler");
  // 0 = resolve to hardware concurrency inside the runtime engine.
  opt.threads = get_bounded_size(args, "threads", 0, 0, 1024);
  // Simulated devices the run shards over (owner = flat % N). Contigs,
  // stats and model metrics are bit-identical for every value; the device
  // count is pinned in the checkpoint fingerprint, so --resume must match.
  opt.devices = get_bounded_size(args, "devices", 1, 1, 64);
  // Process isolation: each device shard in its own pima_devd worker under
  // the crash-containing supervisor (DESIGN.md §15). Outputs stay
  // bit-identical, even when workers are killed mid-stage and restarted.
  opt.isolate = args.has("isolate");
  opt.isolate_opts.restart_budget =
      get_bounded_size(args, "restart-budget", 3, 0, 1000);
  if (const auto devd = args.get("devd-path"))
    opt.isolate_opts.devd_path = *devd;

  // Fault-aware execution flags. --fault-variation is the ±% process
  // variation from paper Table I (0.10 = ±10%); injection stays off at 0.
  opt.fault.variation =
      get_bounded_double(args, "fault-variation", 0.0, 0.0, 1.0);
  opt.fault.seed = get_bounded_size(args, "fault-seed", 2020, 0, kNoMax);
  opt.fault.retention_flip_per_op =
      get_bounded_double(args, "fault-retention", 0.0, 0.0, 1.0);
  opt.fault.weak_row_fraction =
      get_bounded_double(args, "fault-weak-rows", 0.0, 0.0, 1.0);
  if (const auto mode = args.get("recovery")) {
    const auto parsed = runtime::parse_recovery_mode(*mode);
    if (!parsed)
      Args::fail("unknown --recovery mode '" + *mode +
                 "' (expected off, retry or vote)");
    opt.recovery.mode = *parsed;
  }
  opt.recovery.max_retries = get_bounded_size(
      args, "max-retries", opt.recovery.max_retries, 0, kNoMax);
  opt.recovery.subarray_failure_budget = get_bounded_size(
      args, "failure-budget", opt.recovery.subarray_failure_budget, 0, kNoMax);
  // Oracle capture: record every DRAM command and dump the replayable AAP
  // program (feed it to `pima_fuzz --replay` for golden-model checking).
  const auto dump_trace = args.get("dump-trace");
  opt.capture_trace = dump_trace.has_value();

  // Run resilience: stage-boundary snapshots, resume, engine watchdog.
  if (const auto dir = args.get("checkpoint-dir")) {
    opt.checkpoint_dir = *dir;
    std::error_code ec;
    std::filesystem::create_directories(*dir, ec);
    if (ec)
      throw IoError("cannot create checkpoint directory " + *dir + ": " +
                    ec.message());
  }
  opt.resume = args.has("resume");
  if (opt.resume && opt.checkpoint_dir.empty())
    Args::fail("--resume requires --checkpoint-dir");
  opt.stall_timeout_ms =
      get_bounded_double(args, "stall-timeout", 0.0, 0.0, 86'400'000.0);
  if (opt.resume &&
      !std::filesystem::exists(opt.checkpoint_dir + "/pipeline.ckpt"))
    std::printf("resume: no checkpoint in %s, starting fresh\n",
                opt.checkpoint_dir.c_str());

  // Telemetry sinks: --trace-json writes a Chrome trace-event file
  // (Perfetto / chrome://tracing), --metrics-out a Prometheus text file
  // plus a JSON snapshot at <path>.json, --progress[=seconds] a periodic
  // status line on stderr.
  auto& session = telemetry::TelemetrySession::instance();
  // Structured event log (--log-json mirrors every diagnostic as NDJSON;
  // stderr keeps the human rendering either way) and the flight recorder:
  // always armed, report lands next to the checkpoints when a directory
  // is given, else ./crash_report.json.
  if (const auto log_json = args.get("log-json"))
    telemetry::Logger::instance().set_json_path(*log_json);
  auto& flight = telemetry::FlightRecorder::instance();
  if (!opt.checkpoint_dir.empty())
    flight.set_output_path(opt.checkpoint_dir + "/crash_report.json");
  flight.install_fatal_signal_handlers();
  const auto trace_json = args.get("trace-json");
  const auto metrics_out = args.get("metrics-out");
  if (trace_json) {
    session.set_trace_path(*trace_json);
    session.tracer().enable();
  }
  if (metrics_out) session.set_metrics_path(*metrics_out);
  if (metrics_out || args.has("progress")) session.enable_metrics();
  if (args.has("progress"))
    // Bare --progress parses as "1" → the default 1 s interval.
    opt.progress_interval_s =
        get_bounded_double(args, "progress", 1.0, 0.0, kNoMaxReal);

  const bool fault_aware =
      opt.fault.enabled() || opt.recovery.mode != runtime::RecoveryMode::kOff;
  if (fault_aware)
    // Echo every stochastic input so a run can be reproduced from its log.
    std::printf(
        "fault model: variation=±%.0f%%  seed=%llu  retention=%g  "
        "weak-rows=%g  recovery=%s\n",
        100.0 * opt.fault.variation,
        static_cast<unsigned long long>(opt.fault.seed),
        opt.fault.retention_flip_per_op, opt.fault.weak_row_fraction,
        runtime::to_string(opt.recovery.mode));

  // Ctrl-C / SIGTERM cancels cooperatively: the pipeline raises
  // CancelledError at its next safe point, telemetry flushes below, and
  // completed stage checkpoints stay valid for --resume.
  install_termination_handlers();
  opt.cancel = &g_run_cancel;

  const auto result = [&] {
    try {
      return core::run_pipeline(device, reads, opt);
    } catch (const CancelledError&) {
      if (trace_json || metrics_out) {
        session.tracer().disable();
        try {
          session.flush();
        } catch (...) {
        }
      }
      if (!opt.checkpoint_dir.empty()) {
        // Partial-run marker: records that this directory holds an
        // interrupted (not failed) run. Removed by a later clean finish.
        std::ofstream marker(opt.checkpoint_dir + "/partial.run");
        marker << "interrupted by signal; resume with --resume\n";
        std::fprintf(stderr,
                     "pim-run: interrupted; checkpoints in %s remain valid "
                     "— rerun with --resume\n",
                     opt.checkpoint_dir.c_str());
      } else {
        std::fprintf(stderr,
                     "pim-run: interrupted (no --checkpoint-dir; progress "
                     "not recoverable)\n");
      }
      throw;
    } catch (...) {
      // Flush whatever telemetry the run recorded before the error (the
      // engine watchdog already flushed on a stall; this covers the rest).
      if (trace_json || metrics_out) {
        session.tracer().disable();
        try {
          session.flush();
        } catch (...) {
        }
      }
      throw;
    }
  }();
  if (!opt.checkpoint_dir.empty()) {
    std::error_code marker_ec;
    std::filesystem::remove(opt.checkpoint_dir + "/partial.run", marker_ec);
  }

  TextTable table("PIM-Assembler simulated execution");
  table.set_header({"stage", "commands", "time (us)", "energy (nJ)",
                    "sub-arrays"});
  for (const auto* stage :
       {&result.hashmap, &result.debruijn, &result.traverse})
    table.add_row({stage->name, std::to_string(stage->device.commands),
                   TextTable::num(stage->device.time_ns / 1e3, 4),
                   TextTable::num(stage->device.energy_pj / 1e3, 4),
                   std::to_string(stage->device.subarrays_used)});
  std::fputs(table.render().c_str(), stdout);
  if (fault_aware) {
    const auto& fs = result.fault_stats;
    TextTable ft("fault-aware execution report");
    ft.set_header({"injected", "detected", "retried", "remapped",
                   "host-fallback", "escaped"});
    ft.add_row({std::to_string(fs.injected), std::to_string(fs.detected),
                std::to_string(fs.retried), std::to_string(fs.remapped),
                std::to_string(fs.host_fallbacks),
                std::to_string(fs.escaped)});
    std::fputs(ft.render().c_str(), stdout);
    if (fs.degraded_subarrays > 0)
      std::printf(
          "degraded: %zu sub-array(s) over the failure budget fell back "
          "to host recompute\n",
          fs.degraded_subarrays);
  }
  std::printf("contigs: %zu, N50 %zu bp\n", result.contig_stats.count,
              result.contig_stats.n50);
  if (dump_trace) {
    // result.trace is the pool-merged capture (logical flat order) — for
    // any --devices value it replays like a single-device run.
    fsio::atomic_write_file(*dump_trace, dram::to_text(result.trace),
                            "artifact");
    std::printf("trace: %zu commands -> %s\n", result.trace.size(),
                dump_trace->c_str());
  }
  if (trace_json || metrics_out) {
    session.tracer().disable();
    session.flush();
    if (trace_json)
      std::printf("telemetry: %zu trace events -> %s (open in Perfetto)\n",
                  session.tracer().event_count(), trace_json->c_str());
    if (metrics_out)
      std::printf("telemetry: metrics -> %s (+ %s.json)\n",
                  metrics_out->c_str(), metrics_out->c_str());
  }
  if (const auto ref = args.get("reference"))
    report_verification(*ref, result.contigs, 2 * opt.k);
  return 0;
}

int cmd_spectrum(const Args& args) {
  const auto reads = load_reads(args.require("reads"));
  const std::size_t k = get_bounded_size(args, "k", 21, 1, kMaxK);
  const auto spec = assembly::compute_spectrum(
      assembly::build_hashmap(reads, k),
      static_cast<std::uint32_t>(
          get_bounded_size(args, "max-freq", 64, 2, kMaxU32)));
  const auto a = assembly::analyze_spectrum(spec);
  std::printf("k=%zu  distinct=%llu  total=%llu\n", k,
              static_cast<unsigned long long>(spec.distinct_kmers),
              static_cast<unsigned long long>(spec.total_kmers));
  std::printf(
      "error cutoff: %u   coverage peak: %u   genome size ~%.0f bp   "
      "error k-mers: %.1f%%\n",
      a.error_cutoff, a.coverage_peak, a.genome_size_estimate,
      100.0 * a.error_kmer_fraction);
  TextTable table("k-mer frequency histogram");
  table.set_header({"freq", "distinct k-mers"});
  for (std::uint32_t f = 1; f < spec.histogram.size(); ++f)
    if (spec.histogram[f] > 0)
      table.add_row({std::to_string(f), std::to_string(spec.histogram[f])});
  std::fputs(table.render().c_str(), stdout);
  return 0;
}

int cmd_project(const Args& args) {
  core::WorkloadParams w;
  w.k = get_bounded_size(args, "k", 16, 1, kMaxK);
  TextTable table("chr14 full-scale projection (paper Fig. 9 configuration)");
  table.set_header({"platform", "hashmap (s)", "deBruijn (s)",
                    "traverse (s)", "total (s)", "power (W)"});
  for (const auto& p : platforms::application_platforms()) {
    const auto cost = core::estimate_application(p, w);
    table.add_row({p.name, TextTable::num(cost.hashmap.time_s, 4),
                   TextTable::num(cost.debruijn.time_s, 4),
                   TextTable::num(cost.traverse.time_s, 4),
                   TextTable::num(cost.total_time_s, 4),
                   TextTable::num(cost.avg_power_w, 4)});
  }
  std::fputs(table.render().c_str(), stdout);
  return 0;
}

// ---- assembly service (DESIGN.md §12) ----

int cmd_serve(const Args& args) {
  service::DaemonOptions opt;
  opt.state_dir = args.require("state-dir");
  opt.socket_path =
      args.get("socket").value_or(opt.state_dir + "/pima.sock");
  opt.tcp_port = static_cast<std::uint16_t>(
      get_bounded_size(args, "tcp", 0, 0, 65535));
  opt.http_port = static_cast<std::uint16_t>(
      get_bounded_size(args, "http", 0, 0, 65535));
  opt.admission.max_jobs = get_bounded_size(args, "max-jobs", 2, 1, 64);
  opt.admission.queue_depth =
      get_bounded_size(args, "queue-depth", 8, 1, 4096);
  opt.admission.channel_budget =
      get_bounded_size(args, "channel-budget", 8, 1, 4096);
  opt.max_connections = get_bounded_size(args, "max-conns", 64, 1, 4096);
  // Same default geometry as `pim-run`, so service jobs are bit-identical
  // to standalone runs of the same spec.
  opt.geometry.rows =
      get_bounded_size(args, "rows", 512, min_rows(opt.geometry), 65536);
  opt.geometry.columns = 256;
  opt.geometry.subarrays_per_mat = 16;
  opt.geometry.mats_per_bank = 4;
  opt.geometry.banks = 2;

  std::error_code ec;
  std::filesystem::create_directories(opt.state_dir, ec);
  if (ec)
    throw IoError("cannot create state dir " + opt.state_dir + ": " +
                  ec.message());

  // Same observability plumbing as pim-run: NDJSON log sink on request,
  // flight recorder armed into the state dir.
  if (const auto log_json = args.get("log-json"))
    telemetry::Logger::instance().set_json_path(*log_json);
  auto& flight = telemetry::FlightRecorder::instance();
  flight.set_output_path(opt.state_dir + "/crash_report.json");
  flight.install_fatal_signal_handlers();

  service::Daemon daemon(opt);
  g_daemon.store(&daemon, std::memory_order_release);
  install_termination_handlers();
  std::printf("serve: listening on %s", opt.socket_path.c_str());
  if (opt.tcp_port != 0) std::printf(" and 127.0.0.1:%u", opt.tcp_port);
  if (opt.http_port != 0)
    std::printf(" and http://127.0.0.1:%u (GET /metrics /healthz /jobs)",
                opt.http_port);
  std::printf(" (max-jobs %zu, queue-depth %zu, channel-budget %zu)\n",
              opt.admission.max_jobs, opt.admission.queue_depth,
              opt.admission.channel_budget);
  std::fflush(stdout);
  try {
    daemon.run();
  } catch (...) {
    // Detach the signal handler's pointer before the daemon destructs,
    // even on the error path.
    g_daemon.store(nullptr, std::memory_order_release);
    throw;
  }
  g_daemon.store(nullptr, std::memory_order_release);
  std::printf("serve: shut down cleanly\n");
  return 0;
}

/// Client-side deadline: bounds the connect AND every wait for a response
/// line. 0 (the default) preserves wait-forever; expiry raises
/// DeadlineExceededError → exit code 9.
double client_timeout(const Args& args) {
  return get_bounded_double(args, "timeout", 0.0, 0.0, 86'400.0);
}

service::Client connect_client(const Args& args) {
  const double timeout_s = client_timeout(args);
  const std::size_t port = get_bounded_size(args, "tcp", 0, 0, 65535);
  if (port != 0)
    return service::Client::connect_tcp_port(static_cast<std::uint16_t>(port),
                                             timeout_s);
  return service::Client::connect_unix_socket(args.require("socket"),
                                              timeout_s);
}

/// One request over a fresh connection, retried up to `--retries` times on
/// IoError (transport broke: daemon restarting, connection refused, peer
/// hung up) with exponential backoff + jitter. Only IoError retries:
/// DeadlineExceededError means the caller's budget is spent (exit 9 now),
/// and daemon-side errors arrive as ok=false responses, not exceptions.
/// Callers must only route idempotent requests here — submits carry an
/// idempotency_key, so a retry after an ambiguous failure cannot double-run.
net::Json request_with_retries(const Args& args, const net::Json& req) {
  const std::size_t retries = get_bounded_size(args, "retries", 0, 0, 100);
  std::mt19937_64 rng{std::random_device{}()};
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      auto client = connect_client(args);
      return client.request(req);
    } catch (const IoError& e) {
      if (attempt >= retries) throw;
      // Exponential backoff, 100 ms * 2^attempt capped at 2 s, with
      // uniform jitter in [0.5, 1.5) to de-synchronise retry herds.
      const double base_ms = std::min(100.0 * std::pow(2.0, double(attempt)),
                                      2000.0);
      const double jitter =
          0.5 + std::uniform_real_distribution<double>(0.0, 1.0)(rng);
      std::fprintf(stderr,
                   "pima_asm: %s — retrying (%zu/%zu left) in %.0f ms\n",
                   e.what(), retries - attempt, retries, base_ms * jitter);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(base_ms * jitter));
    }
  }
}

/// Client-generated random dedupe token for submit retries (16 hex bytes).
std::string generate_idempotency_key() {
  std::random_device rd;
  std::mt19937_64 rng{(std::uint64_t(rd()) << 32) | rd()};
  static constexpr char kHex[] = "0123456789abcdef";
  std::string key = "ck-";
  for (int i = 0; i < 32; ++i) key += kHex[rng() & 0xf];
  return key;
}

/// Maps a daemon error name to the documented process exit code through
/// the error table, so `pima_asm submit` against a full queue exits 8
/// exactly like an in-process AdmissionRejectedError would.
int error_exit_code(const std::string& error) {
  return error_class_named(error).exit_code;
}

int response_exit_code(const net::Json& response) {
  if (response.get_bool("ok", false)) return 0;
  return error_exit_code(response.get_string("error"));
}

int print_response(const net::Json& response) {
  std::printf("%s\n", response.dump().c_str());
  return response_exit_code(response);
}

int follow_job(service::Client& client, const std::string& job_id) {
  net::Json req = net::Json::object();
  req.set("verb", "status");
  req.set("job", job_id);
  req.set("follow", true);
  const net::Json last = client.stream(req, [](const net::Json& line) {
    std::printf("%s\n", line.dump().c_str());
    std::fflush(stdout);
    return true;
  });
  if (!last.get_bool("ok", false)) return response_exit_code(last);
  const std::string state = last.get_string("state");
  if (state == "done") return 0;
  if (state == "cancelled") return kExitInterrupted;
  // A failed job exits with the code its error would have in `pim-run`.
  return state == "failed" ? error_exit_code(last.get_string("error")) : 0;
}

int cmd_submit(const Args& args) {
  net::Json req = net::Json::object();
  req.set("verb", "submit");
  // The daemon opens the file itself (shared host): submit an absolute
  // path so a daemon started from another directory resolves it.
  req.set("reads",
          std::filesystem::absolute(args.require("reads")).string());
  req.set("k", get_bounded_size(args, "k", 17, 4, kMaxK));
  req.set("shards", get_bounded_size(args, "shards", 16, 1, 4096));
  req.set("threads", get_bounded_size(args, "threads", 1, 1, 1024));
  req.set("devices", get_bounded_size(args, "devices", 1, 1, 64));
  // --isolate asks the daemon to run the job's device shards in pima_devd
  // worker processes ("isolation": "process"); the job still charges the
  // same admission budgets.
  if (args.has("isolate")) req.set("isolation", "process");
  if (args.has("euler")) req.set("euler", true);
  req.set("priority", static_cast<std::int64_t>(get_bounded_double(
                          args, "priority", 0.0, -1000.0, 1000.0)));
  req.set("stall_timeout_ms",
          get_bounded_double(args, "stall-timeout", 0.0, 0.0, 86'400'000.0));
  // Every submit carries a dedupe token, so a retried submit (here or by a
  // wrapping script) lands on the SAME job — the daemon answers duplicates
  // with the original job's status plus "deduped": true.
  req.set("idempotency_key",
          args.get("idempotency-key").value_or(generate_idempotency_key()));

  const net::Json response = request_with_retries(args, req);
  const int code = print_response(response);
  if (code != 0 || !args.has("follow")) return code;
  auto client = connect_client(args);
  return follow_job(client, response.get_string("job"));
}

int cmd_status(const Args& args) {
  if (args.has("follow")) {
    auto client = connect_client(args);
    return follow_job(client, args.require("job"));
  }
  net::Json req = net::Json::object();
  req.set("verb", "status");
  req.set("job", args.require("job"));
  return print_response(request_with_retries(args, req));
}

int cmd_result(const Args& args) {
  net::Json req = net::Json::object();
  req.set("verb", "result");
  req.set("job", args.require("job"));
  const auto out = args.get("out");
  if (out) req.set("fetch", true);
  net::Json response = request_with_retries(args, req);
  if (out && response.get_bool("ok", false)) {
    // Atomic: a crash (or injected fault) mid-save never leaves a
    // truncated contigs file where a previous good one stood.
    fsio::atomic_write_file(*out, response.get_string("fasta"), "artifact");
    response.set("fasta", net::Json());  // don't echo the payload
    response.set("saved_to", *out);
  }
  return print_response(response);
}

int cmd_cancel(const Args& args) {
  net::Json req = net::Json::object();
  req.set("verb", "cancel");
  req.set("job", args.require("job"));
  // Cancel is idempotent (cancelling a terminal job is a no-op status
  // echo), so it may retry like the read-only verbs.
  return print_response(request_with_retries(args, req));
}

int cmd_list(const Args& args) {
  net::Json req = net::Json::object();
  req.set("verb", "list");
  return print_response(request_with_retries(args, req));
}

int cmd_drain(const Args& args) {
  // NOT retried: drain initiates daemon shutdown — a retry after an
  // ambiguous failure would race the daemon it just stopped.
  net::Json req = net::Json::object();
  req.set("verb", "drain");
  auto client = connect_client(args);
  return print_response(client.request(req));
}

int cmd_metrics(const Args& args) {
  net::Json req = net::Json::object();
  req.set("verb", "metrics");
  req.set("format", args.get("format").value_or("prometheus"));
  // --watch N: clear the screen and re-poll every N seconds until
  // interrupted (a poor man's `watch pima_asm metrics`). Ctrl-C exits 0 —
  // leaving a watch is not a failure.
  const double watch_s = get_bounded_double(args, "watch", 0.0, 0.0, 86'400.0);
  if (watch_s > 0.0 && args.get("out"))
    Args::fail("--watch and --out are mutually exclusive");
  if (watch_s > 0.0) install_termination_handlers();
  for (;;) {
    const net::Json response = request_with_retries(args, req);
    if (!response.get_bool("ok", false)) return print_response(response);
    const std::string body = response.get_string("body");
    if (const auto out = args.get("out")) {
      fsio::atomic_write_file(*out, body, "artifact");
      std::printf("metrics: wrote %zu bytes to %s\n", body.size(),
                  out->c_str());
    } else {
      if (watch_s > 0.0) std::fputs("\x1b[H\x1b[2J", stdout);
      std::fputs(body.c_str(), stdout);
      std::fflush(stdout);
    }
    if (watch_s <= 0.0) break;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(watch_s);
    while (std::chrono::steady_clock::now() < deadline) {
      if (g_run_cancel.requested()) return 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (g_run_cancel.requested()) return 0;
  }
  return 0;
}

void usage() {
  std::puts(
      "usage: pima_asm <command> [--flags]\n"
      "  generate --genome <out.fa> --reads <out.fa> [--length N]\n"
      "           [--coverage C] [--read-length L] [--errors RATE]\n"
      "           [--repeats N] [--gc F] [--seed N]\n"
      "  assemble --reads <in.fa> [--k K] [--min-freq N] [--simplify]\n"
      "           [--euler] [--out contigs.fa] [--reference genome.fa]\n"
      "  pim-run  --reads <in.fa> [--k K] [--shards N] [--euler]\n"
      "           [--threads N (default: hardware concurrency)]\n"
      "           [--devices N (shard over N simulated devices;\n"
      "            outputs bit-identical for any N)]\n"
      "           [--isolate (each device shard in its own pima_devd\n"
      "            worker process; crashes are contained + restarted)]\n"
      "           [--restart-budget N (worker restarts before the run\n"
      "            degrades to in-process; default 3)]\n"
      "           [--devd-path BIN (pima_devd binary; default: alongside\n"
      "            pima_asm or $PIMA_DEVD_PATH)]\n"
      "           [--reference genome.fa]\n"
      "           [--fault-variation F (e.g. 0.10 = ±10% Table I)]\n"
      "           [--fault-seed N] [--fault-retention P]\n"
      "           [--fault-weak-rows F] [--recovery off|retry|vote]\n"
      "           [--max-retries N] [--failure-budget N]\n"
      "           [--dump-trace trace.aap (replay: pima_fuzz --replay)]\n"
      "           [--checkpoint-dir DIR (snapshot after each stage)]\n"
      "           [--resume (skip stages covered by DIR/pipeline.ckpt)]\n"
      "           [--stall-timeout MS (watchdog per-task deadline; 0=off)]\n"
      "           [--trace-json out.json (Chrome trace for Perfetto;\n"
      "            with --isolate: one stitched trace, all processes)]\n"
      "           [--metrics-out out.prom (Prometheus text + .json)]\n"
      "           [--progress [SECONDS] (periodic stderr status; default 1)]\n"
      "           [--log-json PATH|- (structured NDJSON event log;\n"
      "            - = stdout; stderr keeps the human rendering)]\n"
      "  spectrum --reads <in.fa> [--k K] [--max-freq N]\n"
      "  project  [--k K]\n"
      "  serve    --state-dir DIR [--socket PATH (default DIR/pima.sock)]\n"
      "           [--tcp PORT] [--max-jobs N] [--queue-depth N]\n"
      "           [--channel-budget N] [--max-conns N] [--rows N]\n"
      "           [--http PORT (GET /metrics, /healthz, /jobs on\n"
      "            loopback; /metrics == the metrics verb, byte for byte)]\n"
      "           [--log-json PATH|- (structured NDJSON event log)]\n"
      "  submit   --socket PATH|--tcp PORT --reads <in.fa> [--k K]\n"
      "           [--shards N] [--threads N] [--devices N] [--euler]\n"
      "           [--isolate (run the job's device shards in worker\n"
      "            processes: \"isolation\": \"process\")]\n"
      "           [--priority P]\n"
      "           [--stall-timeout MS] [--follow]\n"
      "           [--idempotency-key KEY (dedupe token; default: random)]\n"
      "  status   --socket PATH|--tcp PORT --job ID [--follow]\n"
      "  result   --socket PATH|--tcp PORT --job ID [--out contigs.fa]\n"
      "  cancel   --socket PATH|--tcp PORT --job ID\n"
      "  list     --socket PATH|--tcp PORT\n"
      "  drain    --socket PATH|--tcp PORT\n"
      "  metrics  --socket PATH|--tcp PORT [--format prometheus|json]\n"
      "           [--out PATH] [--watch SECONDS (re-poll + redraw until\n"
      "            interrupted)]\n"
      "client verbs also accept:\n"
      "  --timeout S   bound connect + each response wait (exit 9 on expiry)\n"
      "  --retries N   retry transport failures with backoff + jitter\n"
      "                (all verbs except drain; submits dedupe via the key)");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    // Force the PIMA_IOFAULT parse now: a malformed spec surfaces as a
    // typed InputFormatError (exit 3) before any work starts, instead of
    // aborting mid-run inside the first wrapped syscall.
    pima::fsio::load_env_plan();
    const Args args(argc, argv, 2);
    if (cmd == "generate") return cmd_generate(args);
    if (cmd == "assemble") return cmd_assemble(args);
    if (cmd == "pim-run") return cmd_pim_run(args);
    if (cmd == "spectrum") return cmd_spectrum(args);
    if (cmd == "project") return cmd_project(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "submit") return cmd_submit(args);
    if (cmd == "status") return cmd_status(args);
    if (cmd == "result") return cmd_result(args);
    if (cmd == "cancel") return cmd_cancel(args);
    if (cmd == "list") return cmd_list(args);
    if (cmd == "drain") return cmd_drain(args);
    if (cmd == "metrics") return cmd_metrics(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pima_asm: %s\n", e.what());
    // Documented exit codes, one per error class (common/error.hpp's
    // kErrorTable, DESIGN.md §10): 3 = malformed input, 4 = I/O failure,
    // 5 = corrupt/incompatible checkpoint, 6 = engine stall, 7 =
    // cancelled, 8 = admission rejected, 9 = deadline exceeded, 10 =
    // worker crashed, 1 = anything else.
    return pima::exit_code_for(e);
  }
  usage();
  return 2;
}
