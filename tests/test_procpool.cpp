// Process-isolation battery (ctest -L procpool, DESIGN.md §15).
//
// The contract under test: a pipeline run whose device shard lives in a
// pima_devd worker process is bit-identical to the in-process run — and
// stays bit-identical when the worker is SIGKILLed, SIGSEGV, crash-exited,
// torn mid-write, or chaos-injected mid-stage, because the supervisor
// restarts it and replays its journal — and a pipeline.ckpt cut on either
// transport resumes on the other. Plus the seams: WorkerInit and
// typed-error wire round-trips, exit classification, and the degrade path
// when the restart budget runs dry.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "core/degree.hpp"
#include "core/graph_map.hpp"
#include "core/pipeline.hpp"
#include "core/shard_worker.hpp"
#include "dna/genome.hpp"
#include "dram/device.hpp"
#include "dram/isa.hpp"
#include "net/json.hpp"
#include "runtime/procpool.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/session.hpp"
#include "test_support.hpp"

namespace pima {
namespace {

namespace fs = std::filesystem;
using test_support::expect_bit_identical;

// RAII environment-variable override (the devd test hook travels to the
// worker through the environment it inherits).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (saved_.empty())
      ::unsetenv(name_);
    else
      ::setenv(name_, saved_.c_str(), 1);
  }

 private:
  const char* name_;
  std::string saved_;
};

dram::Geometry pipeline_geometry() {
  dram::Geometry g;
  g.rows = 512;
  g.compute_rows = 8;
  g.columns = 256;
  g.subarrays_per_mat = 16;
  g.mats_per_bank = 4;
  g.banks = 2;
  return g;
}

std::vector<dna::Sequence> workload_reads(std::uint64_t seed) {
  dna::GenomeParams gp;
  gp.length = 600;
  gp.repeat_count = 0;
  gp.seed = seed;
  dna::ReadSamplerParams rp;
  rp.coverage = 5.0;
  rp.read_length = 70;
  rp.seed = seed + 1;
  return dna::sample_reads(dna::generate_genome(gp), rp);
}

struct RunOutput {
  core::PipelineResult result;
  std::string model_snapshot;  ///< json_snapshot(model_only) — byte oracle
  /// pima_pool_fallbacks_total: nonzero when the restart budget ran out
  /// and the in-process shards, not the workers, made the output.
  double fallbacks = 0.0;
};

double fallbacks_in(telemetry::MetricsRegistry& registry) {
  return registry
      .counter("pima_pool_fallbacks_total", "", {},
               telemetry::MetricClass::kHost)
      .value();
}

RunOutput run_config(const std::vector<dna::Sequence>& reads, bool isolate,
                     std::size_t channels,
                     const core::PipelineOptions::IsolateOptions& iso = {},
                     bool capture = false, bool use_multiplicity = false,
                     const std::function<void(core::PipelineOptions&)>&
                         configure = {}) {
  telemetry::MetricsRegistry registry;
  telemetry::ScopedMetricsRegistry scope(&registry);
  telemetry::TelemetrySession::instance().enable_metrics();
  dram::Device device(pipeline_geometry());
  core::PipelineOptions opt;
  opt.k = 15;
  opt.hash_shards = 8;
  opt.threads = channels;
  opt.isolate = isolate;
  opt.isolate_opts = iso;
  opt.capture_trace = capture;
  opt.use_multiplicity = use_multiplicity;
  if (configure) configure(opt);
  RunOutput out;
  out.result = core::run_pipeline(device, reads, opt);
  out.model_snapshot = registry.json_snapshot(/*model_only=*/true);
  out.fallbacks = fallbacks_in(registry);
  return out;
}

// ---- crash-free identity ----------------------------------------------------

TEST(ProcPoolIdentity, IsolatedMatchesInProcessAndSingleDevice) {
  const auto reads = workload_reads(11);
  const auto single = run_config(reads, /*isolate=*/false, 2);
  const auto pooled = run_config(reads, /*isolate=*/false, 8);
  const auto isolated = run_config(reads, /*isolate=*/true, 8);
  // threads = 0: one channel per hardware thread for the whole run,
  // resolved inside the worker.
  const auto isolated_hw = run_config(reads, /*isolate=*/true, 0);
  ASSERT_FALSE(isolated.result.contigs.empty());
  expect_bit_identical(isolated.result, pooled.result);
  expect_bit_identical(isolated.result, single.result);
  expect_bit_identical(isolated_hw.result, single.result);
  // The model-class metrics snapshot derives only from simulated state —
  // equal bytes whether the shards ran in-process or in worker processes.
  ASSERT_FALSE(isolated.model_snapshot.empty());
  EXPECT_EQ(isolated.model_snapshot, pooled.model_snapshot);
  EXPECT_EQ(isolated.model_snapshot, single.model_snapshot);
  EXPECT_EQ(isolated_hw.model_snapshot, single.model_snapshot);
}

TEST(ProcPoolIdentity, CapturedTraceMatchesInProcess) {
  const auto reads = workload_reads(12);
  const auto pooled =
      run_config(reads, /*isolate=*/false, 6, {}, /*capture=*/true);
  const auto isolated =
      run_config(reads, /*isolate=*/true, 6, {}, /*capture=*/true);
  ASSERT_FALSE(isolated.result.trace.empty());
  EXPECT_EQ(isolated.result.trace, pooled.result.trace);
}

TEST(ProcPoolIdentity, MultiplicityOnRepeatRichGenomeMatchesInProcess) {
  // Planted repeats plus --multiplicity give edges with multiplicity > 1,
  // so the worker rebuilds duplicate adjacency rows from the edge triples.
  dna::GenomeParams gp;
  gp.length = 900;
  gp.repeat_length = 60;
  gp.repeat_count = 4;
  gp.seed = 19;
  dna::ReadSamplerParams rp;
  rp.coverage = 3.0;
  rp.read_length = 70;
  rp.seed = 20;
  const auto reads = dna::sample_reads(dna::generate_genome(gp), rp);
  const auto pooled = run_config(reads, /*isolate=*/false, 6, {},
                                 /*capture=*/true, /*use_multiplicity=*/true);
  const auto isolated = run_config(reads, /*isolate=*/true, 6, {},
                                   /*capture=*/true, /*use_multiplicity=*/true);
  const auto& edges = isolated.result.graph.edges();
  ASSERT_TRUE(std::any_of(edges.begin(), edges.end(),
                          [](const auto& e) { return e.multiplicity > 1; }));
  ASSERT_FALSE(isolated.result.contigs.empty());
  expect_bit_identical(isolated.result, pooled.result);
  EXPECT_EQ(isolated.model_snapshot, pooled.model_snapshot);
  ASSERT_FALSE(isolated.result.trace.empty());
  EXPECT_EQ(isolated.result.trace, pooled.result.trace);
}

// ---- kill-and-recover: every crash class, bit-identical output --------------

TEST(ProcPoolRecovery, CrashedWorkersRestartAndOutputIsBitIdentical) {
  const auto reads = workload_reads(13);
  const auto baseline = run_config(reads, /*isolate=*/false, 8);
  const auto scratch = fs::temp_directory_path() / "procpool_hooks";
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  for (const char* action : {"sigkill", "segv", "exit86", "torn"}) {
    SCOPED_TRACE(action);
    const auto flag = (scratch / (std::string("flag_") + action)).string();
    // The worker dies on its 6th request — stage 2's first program slice
    // on this input — then the flag file makes the respawned worker
    // healthy.
    ScopedEnv hook("PIMA_DEVD_TEST_HOOK", std::string("after=6:action=") +
                                              action + ":flag=" + flag);
    const auto run = run_config(reads, /*isolate=*/true, 8);
    EXPECT_TRUE(fs::exists(flag)) << "hook never fired";
    // A fallback here would mask a replay bug.
    EXPECT_EQ(run.fallbacks, 0.0);
    expect_bit_identical(run.result, baseline.result);
    EXPECT_EQ(run.model_snapshot, baseline.model_snapshot);
  }
  fs::remove_all(scratch);
}

TEST(ProcPoolRecovery, KillOnTheDegreeBatchIsBitIdentical) {
  // The crash lands on the batched stage itself: the worker dies after
  // executing its degree_block batch, before answering. The supervisor
  // restarts it, replays its journal and resends the batch.
  const auto reads = workload_reads(18);
  const auto baseline =
      run_config(reads, /*isolate=*/false, 8, {}, /*capture=*/true);
  const auto scratch = fs::temp_directory_path() / "procpool_degree_hook";
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  for (const char* action : {"sigkill", "torn"}) {
    SCOPED_TRACE(action);
    const auto flag = (scratch / (std::string("flag_") + action)).string();
    ScopedEnv hook("PIMA_DEVD_TEST_HOOK",
                   std::string("op=degree_block:after=1:action=") +
                       action + ":flag=" + flag);
    const auto run =
        run_config(reads, /*isolate=*/true, 8, {}, /*capture=*/true);
    EXPECT_TRUE(fs::exists(flag)) << "hook never fired";
    EXPECT_EQ(run.fallbacks, 0.0);
    expect_bit_identical(run.result, baseline.result);
    EXPECT_EQ(run.model_snapshot, baseline.model_snapshot);
    EXPECT_EQ(run.result.trace, baseline.result.trace);
  }
  fs::remove_all(scratch);
}

TEST(ProcPoolRecovery, KillOnTheStatsAnswerIsBitIdentical) {
  // The crash lands on the stage boundary: the worker takes its stage-2
  // stats (which clears them), then dies before answering. The restarted
  // worker replays its journal without the in-flight line and is asked
  // again. Untraced, the journal holds stage 2 alone; traced, it keeps
  // every line since init, and the replayed stage-1 `stats` clears where
  // the original did.
  const auto reads = workload_reads(18);
  const auto scratch = fs::temp_directory_path() / "procpool_stats_hook";
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  for (const bool capture : {false, true}) {
    SCOPED_TRACE(capture ? "traced" : "untraced");
    const auto baseline = run_config(reads, /*isolate=*/false, 8, {}, capture);
    const auto flag =
        (scratch / (capture ? "flag_traced" : "flag_untraced")).string();
    ScopedEnv hook("PIMA_DEVD_TEST_HOOK",
                   "op=stats:after=2:action=sigkill:flag=" + flag);
    const auto run = run_config(reads, /*isolate=*/true, 8, {}, capture);
    EXPECT_TRUE(fs::exists(flag)) << "hook never fired";
    EXPECT_EQ(run.fallbacks, 0.0);
    expect_bit_identical(run.result, baseline.result);
    EXPECT_EQ(run.model_snapshot, baseline.model_snapshot);
    EXPECT_EQ(run.result.trace, baseline.result.trace);
  }
  fs::remove_all(scratch);
}

TEST(ProcPoolRecovery, RecoveryPreservesCapturedTrace) {
  const auto reads = workload_reads(14);
  const auto baseline =
      run_config(reads, /*isolate=*/false, 8, {}, /*capture=*/true);
  const auto scratch = fs::temp_directory_path() / "procpool_trace_hook";
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  const auto flag = (scratch / "flag").string();
  ScopedEnv hook("PIMA_DEVD_TEST_HOOK",
                 "after=6:action=sigkill:flag=" + flag);
  // capture_trace disables journal truncation: the respawned worker must
  // replay every command so its trace capture is complete.
  const auto run = run_config(reads, /*isolate=*/true, 8, {}, /*capture=*/true);
  EXPECT_TRUE(fs::exists(flag)) << "hook never fired";
  EXPECT_EQ(run.fallbacks, 0.0);
  EXPECT_EQ(run.result.trace, baseline.result.trace);
  fs::remove_all(scratch);
}

// ---- chaos: a fault plan aimed at the workers' wire -------------------------

TEST(ProcPoolChaos, ChildIofaultTornWriteIsSurvivedWithReplay) {
  // Supervisor-level: every worker instance tears its socket mid-write on
  // its 4th send (fsio `crash` = half the bytes, then _exit(86)). Progress
  // still happens because stage boundaries truncate the journal, so each
  // respawned worker replays less than its predecessor wrote.
  runtime::ProcPoolOptions opt;
  opt.restart_budget = 30;
  opt.child_iofault = "send@wire:nth=4:crash";
  core::WorkerInit init;
  init.geometry = pipeline_geometry();
  init.k = 15;
  init.hash_shards = 4;
  init.engine.channels = 1;
  runtime::ProcSupervisor sup(opt, core::worker_init_to_json(init));
  sup.start();
  net::Json stats = net::Json::object();
  stats.set("op", "stats");
  for (std::uint32_t i = 1; i <= 10; ++i) {
    EXPECT_TRUE(sup.rpc(stats).get_bool("ok", false));
    sup.mark_stage_done(i);  // truncate: bounds the next replay
  }
  EXPECT_GE(sup.restarts_used(), 1u);
  net::Json drain = net::Json::object();
  drain.set("op", "drain");
  EXPECT_TRUE(sup.query(drain).get_bool("ok", false));
  sup.shutdown();
}

// ---- restart budget exhaustion: the in-process rerun ------------------------

TEST(ProcPoolDegrade, BudgetExhaustionFallsBackToInProcessPool) {
  const auto reads = workload_reads(15);
  const auto baseline = run_config(reads, /*isolate=*/false, 8);
  // No flag file: the worker dies after every respawn, exhausting the
  // budget.
  ScopedEnv hook("PIMA_DEVD_TEST_HOOK", "after=4:action=exit86");
  core::PipelineOptions::IsolateOptions iso;
  iso.restart_budget = 2;
  const auto run = run_config(reads, /*isolate=*/true, 8, iso);
  expect_bit_identical(run.result, baseline.result);
  EXPECT_EQ(run.fallbacks, 1.0);
}

// ---- cross-transport resume ------------------------------------------------

// pipeline.ckpt is the only resume record and its fingerprint is
// transport-independent: a run stopped after stage 1 on one transport
// resumes on the other, bit-identical to the uninterrupted run. A resumed
// run exports model metrics only for the stages it executes, so its
// model-only snapshot is held to the in-process stop + resume.
TEST(ProcPoolResume, CrossTransportResumeIsBitIdentical) {
  const auto reads = workload_reads(15);
  const auto baseline = run_config(reads, /*isolate=*/false, 4);
  struct Stopped {};
  const auto stop_then_resume = [&](bool stop_isolated, bool resume_isolated) {
    const fs::path dir = fs::temp_directory_path() / "procpool_cross_resume";
    fs::remove_all(dir);
    fs::create_directories(dir);
    EXPECT_THROW(
        (void)run_config(reads, stop_isolated, 4, {}, false, false,
                         [&](core::PipelineOptions& opt) {
                           opt.checkpoint_dir = dir.string();
                           opt.on_checkpoint = [](std::uint32_t stage,
                                                  const std::string&) {
                             if (stage == 1) throw Stopped{};
                           };
                         }),
        Stopped);
    auto resumed = run_config(reads, resume_isolated, 4, {}, false, false,
                              [&](core::PipelineOptions& opt) {
                                opt.checkpoint_dir = dir.string();
                                opt.resume = true;
                              });
    fs::remove_all(dir);
    return resumed;
  };
  const auto in_process = stop_then_resume(false, false);
  expect_bit_identical(in_process.result, baseline.result);
  for (const bool stop_isolated : {false, true}) {
    SCOPED_TRACE(stop_isolated ? "isolated -> in-process"
                               : "in-process -> isolated");
    const auto resumed = stop_then_resume(stop_isolated, !stop_isolated);
    expect_bit_identical(resumed.result, baseline.result);
    EXPECT_EQ(resumed.model_snapshot, in_process.model_snapshot);
  }
}

// ---- typed failures ---------------------------------------------------------

TEST(ProcPoolFailure, ShardOverflowSurfacesTheRootFailureOnBothTransports) {
  // One hash shard cannot hold this genome's k-mers, and the stream spans
  // several batches, so later submissions meet the poisoned channel. Either
  // transport must report the overflow itself, not the fail-fast refusal.
  dna::GenomeParams gp;
  gp.length = 20000;
  gp.repeat_count = 0;
  gp.seed = 23;
  dna::ReadSamplerParams rp;
  rp.coverage = 5.0;
  rp.read_length = 70;
  rp.seed = 24;
  const auto reads = dna::sample_reads(dna::generate_genome(gp), rp);
  for (const bool isolate : {false, true}) {
    SCOPED_TRACE(isolate ? "isolated" : "in-process");
    telemetry::MetricsRegistry registry;
    telemetry::ScopedMetricsRegistry scope(&registry);
    telemetry::TelemetrySession::instance().enable_metrics();
    dram::Device device(pipeline_geometry());
    core::PipelineOptions opt;
    opt.k = 15;
    opt.hash_shards = 1;
    opt.threads = 4;
    opt.isolate = isolate;
    try {
      (void)core::run_pipeline(device, reads, opt);
      FAIL() << "hash shard overflow accepted";
    } catch (const SimulationError& e) {
      EXPECT_NE(std::string(e.what()).find("hash shard full"),
                std::string::npos)
          << e.what();
    }
    // A typed worker error fails the run; it never reruns in process.
    EXPECT_EQ(fallbacks_in(registry), 0.0);
  }
}

// ---- distributed observability ----------------------------------------------

TEST(ProcPoolObservability, StitchedTraceHasWorkerSpansFlowsAndRestartTracks) {
  const auto reads = workload_reads(16);
  const auto baseline = run_config(reads, /*isolate=*/false, 6);
  auto& session = telemetry::TelemetrySession::instance();
  test_support::idle_telemetry_session();
  telemetry::MetricsRegistry registry;
  telemetry::ScopedMetricsRegistry scope(&registry);
  session.enable_metrics();
  session.tracer().enable();
  const auto scratch = fs::temp_directory_path() / "procpool_obs_trace";
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  const auto flag = (scratch / "flag").string();
  // The worker dies mid stage 1, on its drain; its replacement appears as
  // a new process track with a restart-suffixed name.
  ScopedEnv hook("PIMA_DEVD_TEST_HOOK",
                 "after=3:action=sigkill:flag=" + flag);
  dram::Device device(pipeline_geometry());
  core::PipelineOptions opt;
  opt.k = 15;
  opt.hash_shards = 8;
  opt.threads = 6;
  opt.isolate = true;
  const auto result = core::run_pipeline(device, reads, opt);
  EXPECT_TRUE(fs::exists(flag)) << "hook never fired";
  EXPECT_EQ(fallbacks_in(registry), 0.0);
  expect_bit_identical(result, baseline.result);
  // Tracing is host-side observation: the model-class oracle must not
  // move because spans were recorded and harvested.
  EXPECT_EQ(registry.json_snapshot(/*model_only=*/true),
            baseline.model_snapshot);

  const std::string json = session.tracer().chrome_json();
  // The first incarnation died before its first harvest: the one track
  // group is the restarted worker's.
  EXPECT_NE(json.find("\"pima_devd (restart 1)\""), std::string::npos);
  EXPECT_NE(json.find("devd:kmers"), std::string::npos);  // worker-side span
  EXPECT_NE(json.find("rpc:kmers"), std::string::npos);   // controller span
  // Flow links tie each controller rpc span to its worker execution.
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\": \"e\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"rpc\""), std::string::npos);
  test_support::idle_telemetry_session();
  fs::remove_all(scratch);
}

// A 4-channel isolated run has one worker whose engine has the in-process
// run's four channels, and the stitched trace shows every one of them
// retiring tasks.
TEST(ProcPoolObservability, OneWorkerWithEveryChannelBusy) {
  const auto reads = workload_reads(16);
  auto& tracer = telemetry::tracer();
  test_support::idle_telemetry_session();
  tracer.enable();
  (void)run_config(reads, /*isolate=*/true, /*channels=*/4);
  const net::Json trace = net::Json::parse(tracer.chrome_json());
  test_support::idle_telemetry_session();

  // (pid, tid) of every channel track of a pima_devd process -> its name,
  // and the `task` spans on each.
  std::vector<double> workers;
  std::map<std::pair<double, double>, std::string> channels;
  std::map<std::pair<double, double>, std::size_t> tasks;
  const auto& events = trace.get("traceEvents").items();
  for (const auto& e : events)
    if (e.get_string("name") == "process_name" &&
        e.get("args").get_string("name").starts_with("pima_devd"))
      workers.push_back(e.get_number("pid"));
  for (const auto& e : events) {
    if (std::find(workers.begin(), workers.end(), e.get_number("pid")) ==
        workers.end())
      continue;
    const std::pair<double, double> track = {e.get_number("pid"),
                                             e.get_number("tid", -1.0)};
    if (e.get_string("name") == "thread_name" &&
        e.get("args").get_string("name").starts_with("channel "))
      channels[track] = e.get("args").get_string("name");
    if (e.get_string("ph") == "X" && e.get_string("name") == "task")
      ++tasks[track];
  }
  EXPECT_EQ(workers.size(), 1u);
  EXPECT_EQ(channels.size(), 4u);
  for (const auto& [track, name] : channels)
    EXPECT_GE(tasks[track], 1u)
        << "worker " << track.first << " " << name << " retired no task";
}

TEST(ProcPoolObservability, WorkerCrashDumpsSchemaValidCrashReport) {
  auto& flight = telemetry::FlightRecorder::instance();
  flight.reset_for_tests();
  const auto scratch = fs::temp_directory_path() / "procpool_obs_flight";
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  const auto report_path = (scratch / "crash_report.json").string();
  flight.set_output_path(report_path);
  const auto flag = (scratch / "flag").string();
  ScopedEnv hook("PIMA_DEVD_TEST_HOOK",
                 "after=8:action=sigkill:flag=" + flag);
  const auto reads = workload_reads(17);
  const auto run = run_config(reads, /*isolate=*/true, 8);
  ASSERT_FALSE(run.result.contigs.empty());
  EXPECT_EQ(run.fallbacks, 0.0);
  EXPECT_GE(flight.dump_count(), 1u);
  ASSERT_TRUE(fs::exists(report_path));

  std::ifstream in(report_path);
  const std::string body((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const net::Json j = net::Json::parse(body);  // throws if invalid
  EXPECT_EQ(j.get_string("schema"), "pima.crash_report.v1");
  EXPECT_EQ(j.get_string("reason"), "worker_failure");
  ASSERT_TRUE(j.has("events"));
  EXPECT_FALSE(j.get("events").items().empty());
  EXPECT_NE(body.find("worker.failed"), std::string::npos);
  // The supervisor's state snapshot rode along.
  ASSERT_TRUE(j.has("state"));
  EXPECT_TRUE(j.get("state").has("procpool"));
  flight.reset_for_tests();
  fs::remove_all(scratch);
}

// ---- wire round-trips -------------------------------------------------------

TEST(ProcPoolWire, WorkerInitRoundTripsThroughJson) {
  core::WorkerInit init;
  init.geometry = pipeline_geometry();
  init.technology.tech.vdd = 1.05;
  init.technology.timing.t_rcd_ns = 14.5;
  init.k = 21;
  init.hash_shards = 32;
  init.engine.channels = 5;
  init.engine.capture_trace = true;
  init.engine.stall_timeout_ms = 1234.5;
  const auto wire = core::worker_init_to_json(init);
  const auto parsed = core::worker_init_from_json(wire);
  // Geometry/Technology carry no operator==; a second serialization is the
  // byte oracle (net::Json renders doubles shortest-round-trip-exact).
  EXPECT_EQ(core::worker_init_to_json(parsed).dump(), wire.dump());
  EXPECT_EQ(parsed.hash_shards, 32u);
  EXPECT_EQ(parsed.k, 21u);
  EXPECT_TRUE(parsed.engine.capture_trace);
}

// The controller's stats fold decodes what ShardWorkerCore::op_stats
// encodes: exact doubles through the wire text, and a `counts` array of any
// other length than one per command kind is a typed error, never a silent
// zero-fill or truncation.
TEST(ProcPoolWire, StatsEntryRoundTripsAndRejectsAWrongLength) {
  dram::CommandStats st;
  for (std::size_t k = 0; k < dram::kCommandKindCount; ++k)
    st.counts[k] = 3 * k + 1;
  st.busy_ns = 0.1 + 0.2;  // not representable in short decimal
  st.energy_pj = 1.0 / 3.0;
  const std::string line = core::stats_entry_to_json(17, st).dump();
  const net::Json entry = net::Json::parse(line);
  EXPECT_EQ(entry.get_uint64("flat"), 17u);
  const dram::CommandStats back = core::stats_entry_from_json(entry);
  for (std::size_t k = 0; k < dram::kCommandKindCount; ++k)
    EXPECT_EQ(back.counts[k], st.counts[k]) << "command kind " << k;
  EXPECT_EQ(back.busy_ns, st.busy_ns);
  EXPECT_EQ(back.energy_pj, st.energy_pj);

  const auto with_counts = [&](std::size_t n) {
    net::Json bad = net::Json::parse(line);
    net::Json counts = net::Json::array();
    for (std::size_t k = 0; k < n; ++k)
      counts.push_back(net::Json(static_cast<std::uint64_t>(k)));
    bad.set("counts", std::move(counts));
    return bad;
  };
  for (const std::size_t n :
       {std::size_t{0}, dram::kCommandKindCount - 1,
        dram::kCommandKindCount + 1}) {
    EXPECT_THROW(core::stats_entry_from_json(with_counts(n)),
                 InputFormatError)
        << n << " counts";
  }
  net::Json not_array = net::Json::parse(line);
  not_array.set("counts", net::Json(std::uint64_t{7}));
  EXPECT_THROW(core::stats_entry_from_json(not_array), InputFormatError);
  net::Json missing = net::Json::object();
  missing.set("flat", std::uint64_t{17});
  EXPECT_THROW(core::stats_entry_from_json(missing), InputFormatError);
}

// The rpc backend decodes what the worker's extract, stats and trace verbs
// encode, and rejects as a typed InputFormatError every answer no worker
// could have sent — never a silent drop, truncation or double count.
TEST(ProcPoolWire, WorkerListsRoundTripAndRejectMalformedEntries) {
  const std::size_t k = 15;
  const auto kmer = [&](std::uint64_t packed) {
    return assembly::Kmer(packed, k);
  };
  const std::vector<core::KmerEntries> shards = {
      {{kmer(5), 1}, {kmer(1u << 29), 255}}, {}, {{kmer(77), 3}}};
  const std::string extract_line =
      core::extract_shards_to_json(shards).dump();
  EXPECT_EQ(core::extract_shards_from_json(net::Json::parse(extract_line), 3,
                                           k),
            shards);
  const auto extract_with = [&](const std::string& packed) {
    return net::Json::parse(net::Json(packed).dump());
  };
  EXPECT_EQ(extract_line, "\"2 5 1 536870912 255 0 1 77 3\"");
  EXPECT_THROW(core::extract_shards_from_json(extract_with("2 5 1 77"), 1, k),
               InputFormatError)
      << "a shard claiming more entries than the answer holds";
  EXPECT_THROW(
      core::extract_shards_from_json(
          extract_with("1 5 " + std::to_string(std::uint64_t{1} << 32)), 1, k),
      InputFormatError)
      << "frequency above 2^32 - 1";
  EXPECT_THROW(core::extract_shards_from_json(
                   extract_with("1 " +
                                std::to_string(std::uint64_t{1} << (2 * k)) +
                                " 1"),
                   1, k),
               InputFormatError)
      << "k-mer wider than 2k bits";
  EXPECT_THROW(core::extract_shards_from_json(extract_with("1 5 1 "), 1, k),
               InputFormatError)
      << "a trailing separator";
  EXPECT_THROW(core::extract_shards_from_json(net::Json::array(), 1, k),
               InputFormatError)
      << "not a packed string";
  EXPECT_THROW(
      core::extract_shards_from_json(net::Json::parse(extract_line), 2, k),
      InputFormatError)
      << "more shards than requested";
  EXPECT_THROW(
      core::extract_shards_from_json(net::Json::parse(extract_line), 4, k),
      InputFormatError)
      << "fewer shards than requested";

  const std::size_t total = 24;
  dram::CommandStats st;
  st.counts[0] = 2;
  st.busy_ns = 0.1 + 0.2;
  st.energy_pj = 1.0 / 3.0;
  const dram::SubarrayStats stats = {{1, st}, {7, st}};
  const net::Json stats_list =
      net::Json::parse(core::subarray_stats_to_json(stats).dump());
  const dram::SubarrayStats back =
      core::subarray_stats_from_json(stats_list, total);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[1].first, 7u);
  EXPECT_EQ(back[1].second.busy_ns, st.busy_ns);
  EXPECT_EQ(back[1].second.energy_pj, st.energy_pj);

  // Each bad flat in a stats list.
  for (const std::vector<std::uint64_t>& flats :
       {std::vector<std::uint64_t>{1, total + 1},  // out of range
        std::vector<std::uint64_t>{4, 4}}) {       // repeated
    SCOPED_TRACE("flats " + std::to_string(flats[0]) + ", " +
                 std::to_string(flats[1]));
    net::Json bad_stats = net::Json::array();
    for (const std::uint64_t flat : flats)
      bad_stats.push_back(core::stats_entry_to_json(flat, st));
    EXPECT_THROW(core::subarray_stats_from_json(bad_stats, total),
                 InputFormatError);
  }

  // A trace answer holds one sub-array's program, packed as a `program`
  // request packs its instructions.
  const auto trace_answer = [](const std::string& insts) {
    net::Json answer = net::Json::object();
    answer.set("insts", insts);
    return net::Json::parse(answer.dump());
  };
  constexpr std::size_t kColumns = 256;
  dram::Instruction read;
  read.op = dram::Opcode::kRowRead;
  read.subarray = 4;
  read.src1 = 9;
  dram::Instruction write;
  write.op = dram::Opcode::kRowWrite;
  write.subarray = 4;
  write.src1 = 2;
  write.payload = BitVector(kColumns);
  write.payload.set_word(1, 0xABCDu);
  const dram::Program program = {read, write, read};
  const std::string packed = core::pack_program(program);
  EXPECT_EQ(
      core::subarray_trace_from_json(trace_answer(packed), 4, kColumns),
      program);
  EXPECT_TRUE(
      core::subarray_trace_from_json(trace_answer(""), 4, kColumns).empty());
  EXPECT_THROW(core::subarray_trace_from_json(
                   trace_answer("99 4 9 0 0 0 1 0"), 4, kColumns),
               InputFormatError)
      << "an unknown opcode";
  EXPECT_THROW(core::subarray_trace_from_json(
                   trace_answer(packed.substr(0, packed.size() - 2)), 4,
                   kColumns),
               InputFormatError)
      << "a truncated record";
  EXPECT_THROW(
      core::subarray_trace_from_json(trace_answer(packed), 4, kColumns / 2),
      InputFormatError)
      << "a payload of another width";
  EXPECT_THROW(
      core::subarray_trace_from_json(trace_answer(packed), 7, kColumns),
      InputFormatError)
      << "an instruction for another sub-array";
  net::Json text = net::Json::object();
  text.set("text", dram::to_text(program));
  EXPECT_THROW(core::subarray_trace_from_json(text, 4, kColumns),
               InputFormatError)
      << "the text form";
}

TEST(ProcPoolWire, TypedErrorsRoundTripThroughResponses) {
  // Sends `e` through a worker error response and returns the table name
  // of what the controller rethrows; `what` gets its message.
  const auto roundtrip = [](const std::exception& e,
                            std::string& what) -> std::string {
    const auto response = core::worker_error_response(e);
    try {
      runtime::throw_worker_error(response);
    } catch (const EngineStalledError& stalled) {
      EXPECT_EQ(stalled.channel(), 2u);
      EXPECT_EQ(stalled.subarray(), 7u);
      EXPECT_EQ(stalled.last_retired(), 41u);
      EXPECT_EQ(stalled.timeout_ms(), 250.0);
      what = stalled.what();
      return error_name(stalled);
    } catch (const std::exception& back) {
      what = back.what();
      return error_name(back);
    }
    return "no-throw";
  };
  std::string what;
  // Every table row with a message constructor comes back as itself.
  std::size_t rows = 0;
  for (const ErrorClass& row : kErrorTable) {
    if (row.raise == nullptr) continue;
    ++rows;
    try {
      row.raise(std::string("boom: ") + row.name);
      ADD_FAILURE() << row.name << " did not throw";
    } catch (const std::exception& e) {
      EXPECT_STREQ(error_name(e), row.name);
      EXPECT_EQ(roundtrip(e, what), row.name);
      EXPECT_EQ(what, std::string("boom: ") + row.name);
    }
  }
  EXPECT_EQ(rows, std::size(kErrorTable) - 1);
  const EngineStalledError stalled(2, 7, 41, 250.0);
  EXPECT_EQ(roundtrip(stalled, what), "EngineStalledError");
  EXPECT_EQ(what, stalled.what());
  // A class the table does not list arrives as SimulationError carrying
  // the worker's message.
  EXPECT_EQ(roundtrip(std::runtime_error("odd"), what), "SimulationError");
  EXPECT_EQ(what, "odd");
}

// ---- the degree_block edge encoding ----------------------------------------

core::WorkerInit degree_worker_init() {
  core::WorkerInit init;
  init.geometry = pipeline_geometry();
  init.k = 15;
  init.hash_shards = 4;
  init.engine.channels = 2;
  init.engine.capture_trace = true;
  return init;
}

net::Json op_request(const char* op) {
  net::Json j = net::Json::object();
  j.set("op", op);
  return j;
}

// One block in the controller's packed encoding, flat n m (from to mult) x m.
std::string encode_block(std::size_t flat, std::size_t n,
                         const core::EdgeBlock& block) {
  std::string enc;
  core::append_degree_block(enc, flat, n, block, /*transposed=*/false);
  return enc;
}

// A `degree_block` request over packed blocks (or any packed text).
net::Json degree_batch(const std::vector<std::string>& blocks) {
  std::string packed;
  for (const auto& b : blocks) packed += (packed.empty() ? "" : " ") + b;
  net::Json req = op_request("degree_block");
  req.set("blocks", std::move(packed));
  return req;
}

TEST(ProcPoolWire, DegreeBatchMatchesControllerBuiltRows) {
  const dram::Geometry geom = pipeline_geometry();
  const std::size_t width = geom.columns;
  // Two blocks on two sub-arrays; multiplicities 2..5 append duplicate
  // rows (AdjacencyRows' extra-instance path).
  core::EdgeBlock a;
  a.edges = {{0, 3, 1}, {1, 3, 3}, {4, 0, 2}, {1, 200, 1}, {2, 255, 5}};
  core::EdgeBlock b;
  b.edges = {{0, 0, 1}, {2, 17, 4}, {2, 18, 1}};
  const std::vector<std::tuple<std::size_t, std::size_t, core::EdgeBlock>>
      blocks = {{9, 5, a}, {37, 3, b}};
  // The reference materializes every row and sums them through the
  // row-vector entry point of the kernel.
  const auto rows_of = [width](const core::EdgeBlock& block, std::size_t n) {
    core::AdjacencyRows adjacency;
    adjacency.assign(block, n, width);
    const auto rows = adjacency.rows();
    return std::vector<BitVector>(rows.begin(), rows.end());
  };
  ASSERT_GT(rows_of(a, 5).size(), 5u);

  core::ShardWorkerCore worker(core::worker_init_to_json(degree_worker_init()));
  std::vector<std::string> encoded;
  for (const auto& [flat, n, block] : blocks)
    encoded.push_back(encode_block(flat, n, block));
  EXPECT_TRUE(worker.handle(degree_batch(encoded)).get_bool("ok"));
  EXPECT_TRUE(worker.handle(op_request("drain")).get_bool("ok"));
  const net::Json stats = worker.handle(op_request("stats"));
  const auto trace = [&](std::size_t flat) {
    net::Json req = op_request("trace");
    req.set("flat", static_cast<std::uint64_t>(flat));
    return core::subarray_trace_from_json(worker.handle(req), flat, width);
  };

  dram::Device reference(geom);
  reference.enable_tracing();
  for (const auto& [flat, n, block] : blocks)
    (void)core::pim_column_sums(reference.subarray(flat), rows_of(block, n));

  const auto& entries = stats.get("subarrays").items();
  ASSERT_EQ(entries.size(), blocks.size());
  EXPECT_TRUE(trace(10).empty()) << "a sub-array that ran no command";
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const std::size_t flat = std::get<0>(blocks[i]);
    SCOPED_TRACE(flat);
    const dram::CommandStats& want = reference.subarray_if(flat)->stats();
    EXPECT_EQ(entries[i].get_uint64("flat"), flat);
    const auto& counts = entries[i].get("counts").items();
    ASSERT_EQ(counts.size(), dram::kCommandKindCount);
    for (std::size_t k = 0; k < counts.size(); ++k)
      EXPECT_EQ(counts[k].as_uint64(), want.counts[k]);
    EXPECT_EQ(entries[i].get_number("busy_ns"), want.busy_ns);
    EXPECT_EQ(entries[i].get_number("energy_pj"), want.energy_pj);
    EXPECT_EQ(trace(flat), *reference.trace_if(flat));
  }
}

// A worker whose rows are 200 bits wide: the last payload word of a
// ROW_WRITE has spare bits above the row, so a record can set one.
core::WorkerInit narrow_worker_init() {
  core::WorkerInit init = degree_worker_init();
  init.geometry.columns = 200;
  return init;
}

dram::Instruction row_write(std::size_t flat, std::size_t row,
                            std::size_t columns, std::uint64_t first_word) {
  dram::Instruction inst;
  inst.op = dram::Opcode::kRowWrite;
  inst.subarray = flat;
  inst.src1 = row;
  inst.payload = BitVector(columns);
  inst.payload.set_word(0, first_word);
  return inst;
}

net::Json packed_request(const char* op, const char* key, std::string packed) {
  net::Json req = op_request(op);
  req.set(key, std::move(packed));
  return req;
}

// Drops the last number of a packed list (and its separator).
std::string drop_last(const std::string& packed) {
  return packed.substr(0, packed.rfind(' '));
}

TEST(ProcPoolWire, MalformedRequestsGetTypedErrors) {
  // One seeded table over every journaled verb that carries data, and the
  // trace query. A valid item rides ahead of each corrupted one: the
  // worker parses a whole request before anything touches the device, so a
  // rejected request must run nothing — the error is typed and the stats
  // stay empty.
  const core::WorkerInit init = narrow_worker_init();
  const std::size_t width = init.geometry.columns;
  const std::size_t total = init.geometry.total_subarrays();
  core::ShardWorkerCore worker(core::worker_init_to_json(init));
  const auto uints = [](const std::vector<std::uint64_t>& v) {
    net::Json arr = net::Json::array();
    for (const std::uint64_t x : v) arr.push_back(net::Json(x));
    return arr;
  };
  const auto request = [](const char* op, const char* key, net::Json value) {
    net::Json req = op_request(op);
    req.set(key, std::move(value));
    return req;
  };
  const auto malformed = [&](const std::string& what,
                             std::mt19937_64& rng) -> net::Json {
    const std::size_t kmer_bits = 2 * init.k;
    const std::uint64_t kmer = rng() & ((std::uint64_t{1} << kmer_bits) - 1);
    const std::string good_kmer = std::to_string(kmer) + " ";
    if (what == "kmers: not a string")
      return request("kmers", "kmers", uints({kmer}));
    if (what == "kmers: a sign")
      return packed_request("kmers", "kmers",
                            good_kmer + (rng() % 2 == 0 ? "-" : "+") +
                                std::to_string(rng() % 1000));
    if (what == "kmers: a non-digit")
      return packed_request("kmers", "kmers",
                            good_kmer + std::to_string(rng() % 1000) +
                                "xA.,"[rng() % 4]);
    if (what == "kmers: two separators")
      return packed_request("kmers", "kmers", good_kmer + " 1");
    if (what == "kmers: a trailing separator")
      return packed_request("kmers", "kmers", good_kmer);
    if (what == "kmers: a number above 2^64 - 1")
      return packed_request(
          "kmers", "kmers",
          good_kmer + "1844674407370955161" + std::to_string(6 + rng() % 4));
    if (what == "kmers: k-mer wider than 2k bits")
      return packed_request(
          "kmers", "kmers",
          good_kmer + std::to_string(kmer | (std::uint64_t{1}
                                             << (kmer_bits + rng() % 8))));
    if (what == "extract: shard out of range")
      return request("extract", "shards",
                     uints({0, init.hash_shards + rng() % 4}));
    if (what == "extract: not an array")
      return request("extract", "shards", net::Json(std::uint64_t{0}));
    if (what == "trace: missing flat") return op_request("trace");
    // Verbs the worker no longer answers: the controller counts the
    // extracted entries, and `stats` clears what it answers.
    if (what == "distinct: unknown op") return op_request("distinct");
    if (what == "clear_stats: unknown op") return op_request("clear_stats");
    if (what == "ping: unknown op") return op_request("ping");
    if (what == "trace: flat out of range")
      return request("trace", "flat", net::Json(total + rng() % 4));
    // program: a valid ROW_WRITE ahead of the corrupted record.
    const std::size_t flat = rng() % total;
    const std::string good =
        core::pack_program({row_write(flat, rng() % 64, width, rng())});
    if (what == "program: text field only") {
      dram::Instruction read;
      read.op = dram::Opcode::kRowRead;
      read.subarray = flat;
      return request("program", "text", net::Json(dram::to_text(read)));
    }
    if (what == "program: unknown opcode")
      return packed_request("program", "insts",
                            good + " " + std::to_string(11 + rng() % 100) +
                                " 1 9 0 0 0 1 0");
    if (what == "program: truncated record")
      return packed_request(
          "program", "insts",
          drop_last(core::pack_program(
              {row_write(flat, 1, width, 0),
               row_write(flat, 2, width, rng() | 1)})));
    if (what == "program: zero size")
      return packed_request("program", "insts",
                            good + " 7 " + std::to_string(flat) +
                                " 3 0 0 0 0 0");
    if (what == "program: payload wider than the row") {
      // op sa src1 src2 src3 dst size width, then bits and the zero flag.
      return packed_request(
          "program", "insts",
          good + " 6 " + std::to_string(flat) + " 3 0 0 0 1 0 " +
              std::to_string(width + 1 + rng() % 64) + " 0");
    }
    if (what == "program: bit set past the payload width") {
      std::string bad = good + " 6 " + std::to_string(flat) +
                        " 3 0 0 0 1 0 " + std::to_string(width) + " 1";
      const std::size_t words = (width + 63) / 64;
      for (std::size_t w = 0; w + 1 < words; ++w)
        bad += " " + std::to_string(rng());
      bad += " " + std::to_string(std::uint64_t{1}
                                  << (width % 64 + rng() % (64 - width % 64)));
      return packed_request("program", "insts", bad);
    }
    if (what == "program: zero-row flag above 1")
      return packed_request("program", "insts",
                            good + " 6 " + std::to_string(flat) +
                                " 3 0 0 0 1 0 " + std::to_string(width) +
                                " " + std::to_string(2 + rng() % 10));
    if (what == "program: a trailing separator")
      return packed_request("program", "insts", good + " ");
    // degree_block: corrupt one seeded block, flat n m (from to mult) x m.
    const std::size_t n = 1 + rng() % 40;
    const std::size_t edges = 1 + rng() % 6;
    std::vector<std::uint64_t> v = {rng() % total, n, edges};
    for (std::size_t e = edges; e > 0; --e) {
      v.push_back(rng() % n);
      v.push_back(rng() % width);
      v.push_back(1 + rng() % 3);
    }
    const std::size_t triple = 3 + 3 * (rng() % edges);
    if (what == "degree_block: truncated record") v.pop_back();
    if (what == "degree_block: from >= n") v[triple] = n + rng() % 4;
    if (what == "degree_block: to >= width") v[triple + 1] = width + rng() % 4;
    if (what == "degree_block: n > columns") v[1] = width + 1 + rng() % 4;
    if (what == "degree_block: flat out of range") v[0] = total + rng() % 4;
    if (what == "degree_block: zero multiplicity") v[triple + 2] = 0;
    if (what == "degree_block: a repeated edge") {
      v.insert(v.end(), v.begin() + static_cast<std::ptrdiff_t>(triple),
               v.begin() + static_cast<std::ptrdiff_t>(triple + 3));
      ++v[2];
    }
    std::string packed;
    for (const std::uint64_t x : v) net::pack_uint(packed, x);
    core::EdgeBlock ok;
    ok.edges = {{0, 1, 1}, {1, 2, 2}};
    const std::string head = encode_block(rng() % total, 2, ok);
    if (what == "degree_block: not a string")
      return request("degree_block", "blocks", uints(v));
    return degree_batch({head, packed});
  };
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    std::mt19937_64 rng(seed);
    for (const char* what :
         {"kmers: not a string", "kmers: a sign", "kmers: a non-digit",
          "kmers: two separators", "kmers: a trailing separator",
          "kmers: a number above 2^64 - 1", "kmers: k-mer wider than 2k bits",
          "extract: shard out of range", "extract: not an array",
          "trace: missing flat", "trace: flat out of range",
          "distinct: unknown op", "clear_stats: unknown op",
          "ping: unknown op",
          "program: text field only", "program: unknown opcode",
          "program: truncated record", "program: zero size",
          "program: payload wider than the row",
          "program: bit set past the payload width",
          "program: zero-row flag above 1", "program: a trailing separator",
          "degree_block: truncated record", "degree_block: from >= n",
          "degree_block: to >= width", "degree_block: n > columns",
          "degree_block: flat out of range", "degree_block: zero multiplicity",
          "degree_block: a repeated edge", "degree_block: not a string"}) {
      SCOPED_TRACE(std::string(what) + " seed " + std::to_string(seed));
      net::Json response;
      try {
        (void)worker.handle(malformed(what, rng));
        FAIL() << "malformed request accepted";
      } catch (const std::exception& e) {
        response = core::worker_error_response(e);
      }
      const std::string type = response.get_string("error");
      EXPECT_TRUE(type == "InputFormatError" || type == "PreconditionError")
          << type;
      if (std::string_view(what).ends_with("unknown op")) {
        EXPECT_EQ(type, "InputFormatError");
        EXPECT_NE(response.get_string("message").find("unknown op"),
                  std::string::npos);
      }
      EXPECT_TRUE(worker.handle(op_request("drain")).get_bool("ok"));
      EXPECT_TRUE(
          worker.handle(op_request("stats")).get("subarrays").items().empty());
    }
  }
  // The worker still serves valid requests afterwards.
  core::EdgeBlock ok;
  ok.edges = {{0, 5, 2}};
  EXPECT_TRUE(worker.handle(degree_batch({encode_block(3, 1, ok)}))
                  .get_bool("ok"));
  EXPECT_TRUE(worker.handle(packed_request("kmers", "kmers", "1 2 1"))
                  .get_bool("ok"));
  EXPECT_TRUE(worker.handle(packed_request(
                                "program", "insts",
                                core::pack_program({row_write(
                                    5, 7, width, std::uint64_t{1} << 63)})))
                  .get_bool("ok"));
  EXPECT_TRUE(worker.handle(op_request("drain")).get_bool("ok"));
  net::Json extract = op_request("extract");
  net::Json every_shard = net::Json::array();
  for (std::uint64_t shard = 0; shard < init.hash_shards; ++shard)
    every_shard.push_back(net::Json(shard));
  extract.set("shards", std::move(every_shard));
  std::size_t entries = 0;
  for (const auto& list : core::extract_shards_from_json(
           worker.handle(extract).get("shards"), init.hash_shards, init.k))
    entries += list.size();
  EXPECT_EQ(entries, 2u);
  EXPECT_FALSE(
      worker.handle(op_request("stats")).get("subarrays").items().empty());
}

TEST(ProcPoolWire, PackedUintsAreStrict) {
  const std::uint64_t max = ~std::uint64_t{0};
  std::string packed;
  for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{7}, max})
    net::pack_uint(packed, v);
  EXPECT_EQ(packed, "0 7 18446744073709551615");
  EXPECT_EQ(net::unpack_uints(packed, "kmers"),
            (std::vector<std::uint64_t>{0, 7, max}));
  EXPECT_EQ(net::unpack_uints("007", "kmers"),
            (std::vector<std::uint64_t>{7}));
  EXPECT_TRUE(net::unpack_uints("", "kmers").empty());
  for (const std::string& bad : std::vector<std::string>{
           " ", "1 ", " 1", "1  2", "-1", "+1", "1x", "1\t2", "1,2", "1\n",
           std::string("1\0", 2), "18446744073709551616",
           "99999999999999999999999"}) {
    SCOPED_TRACE(bad);
    try {
      (void)net::unpack_uints(bad, "device worker kmers");
      ADD_FAILURE() << "accepted";
    } catch (const InputFormatError& e) {
      EXPECT_EQ(std::string(e.what()).rfind("device worker kmers: ", 0), 0u)
          << e.what();
    }
  }
}

TEST(ProcPoolWire, ProgramRecordsRoundTripEveryOpcode) {
  const std::size_t width = 200;
  dram::Program program;
  for (std::uint64_t op = 0;
       op <= static_cast<std::uint64_t>(dram::Opcode::kDpuPopcount); ++op) {
    dram::Instruction inst;
    inst.op = static_cast<dram::Opcode>(op);
    inst.subarray = 3 + op;
    inst.src1 = 1000 + op;
    inst.src2 = 1001;
    inst.src3 = 1002;
    inst.dst = 40 + op;
    inst.size = 1 + op % 3;
    inst.width = 17 * op;
    if (inst.op == dram::Opcode::kRowWrite) inst.payload = BitVector(width);
    program.push_back(inst);
  }
  program.push_back(row_write(5, 9, width, 0x8000000000000001u));
  program.back().payload.set(width - 1, true);
  const std::string packed = core::pack_program(program);
  EXPECT_EQ(core::unpack_program(packed, width), program);
  // An all-zero ROW_WRITE is its eight fields plus its width and flag.
  EXPECT_EQ(core::pack_program({row_write(12, 345, width, 0)}),
            "6 12 345 0 0 0 1 0 200 0");
  EXPECT_TRUE(core::unpack_program("", width).empty());
}

// Seeded byte flips, insertions, deletions and truncations of one valid
// packed payload per verb: every mutant is accepted or rejected with a
// typed error, never a crash, and a rejected one runs nothing.
TEST(ProcPoolWire, MutatedPackedPayloadsGetOkOrTypedErrors) {
  const core::WorkerInit init = narrow_worker_init();
  const std::size_t width = init.geometry.columns;
  core::ShardWorkerCore worker(core::worker_init_to_json(init));
  dram::Instruction read;
  read.op = dram::Opcode::kRowRead;
  read.subarray = 9;
  read.src1 = 4;
  core::EdgeBlock block;
  block.edges = {{0, 3, 1}, {1, 3, 2}, {2, 199, 1}};
  const std::vector<std::tuple<const char*, const char*, std::string>> seeds =
      {{"program", "insts",
        core::pack_program({row_write(9, 3, width, 0),
                            row_write(9, 4, width, 0xF0F0F0F0F0F0F0F0u),
                            read})},
       {"kmers", "kmers", "5 77 536870912 1 2 3"},
       {"degree_block", "blocks",
        encode_block(9, 3, block) + " " + encode_block(10, 3, block)}};
  std::mt19937_64 rng(20260219);
  const auto mutate = [&rng](std::string s) {
    for (std::size_t edits = 1 + rng() % 3; edits > 0; --edits) {
      const std::size_t at = s.empty() ? 0 : rng() % s.size();
      switch (rng() % 4) {
        case 0:  // byte flip
          if (!s.empty()) s[at] = static_cast<char>(s[at] ^ (1 << (rng() % 8)));
          break;
        case 1:  // insertion, mostly of wire bytes
          s.insert(s.begin() + static_cast<std::ptrdiff_t>(at),
                   rng() % 4 != 0 ? "0123456789 "[rng() % 11]
                                  : static_cast<char>(rng()));
          break;
        case 2:  // deletion
          if (!s.empty()) s.erase(at, 1);
          break;
        default:  // truncation
          s.resize(at);
      }
    }
    return s;
  };
  constexpr int kBudget = 500;
  for (const auto& [op, key, payload] : seeds) {
    SCOPED_TRACE(op);
    ASSERT_TRUE(worker.handle(packed_request(op, key, payload)).get_bool("ok"));
    EXPECT_TRUE(worker.handle(op_request("drain")).get_bool("ok"));
    (void)worker.handle(op_request("stats"));
    int accepted = 0;
    int rejected = 0;
    for (int i = 0; i < kBudget; ++i) {
      const std::string mutant = mutate(payload);
      SCOPED_TRACE(mutant);
      bool ok = false;
      try {
        ok = worker.handle(packed_request(op, key, mutant)).get_bool("ok");
      } catch (const InputFormatError&) {
      } catch (const PreconditionError&) {
      }
      ++(ok ? accepted : rejected);
      if (!ok) {
        EXPECT_TRUE(
            worker.handle(op_request("stats")).get("subarrays").items().empty())
            << "a rejected request ran";
      }
      // An accepted program may still fail on the device: a row outside
      // the sub-array, an operand outside the compute rows.
      try {
        (void)worker.handle(op_request("drain"));
      } catch (const PreconditionError&) {
      }
      (void)worker.handle(op_request("stats"));
    }
    EXPECT_GT(accepted, 0);
    EXPECT_GT(rejected, 0);
  }

  // The rpc side's decoder of the extract answer.
  const std::size_t k = init.k;
  const std::vector<core::KmerEntries> shards = {
      {{assembly::Kmer(5, k), 1}, {assembly::Kmer(1u << 29, k), 255}},
      {},
      {{assembly::Kmer(77, k), 3}}};
  const std::string answer = core::extract_shards_to_json(shards).as_string();
  int decoded = 0;
  for (int i = 0; i < kBudget; ++i) {
    const std::string mutant = mutate(answer);
    SCOPED_TRACE(mutant);
    try {
      (void)core::extract_shards_from_json(net::Json(mutant), shards.size(), k);
      ++decoded;
    } catch (const InputFormatError&) {
    }
  }
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, kBudget);

  // The rpc side's decoder of the trace answer.
  const std::string trace = core::pack_program(
      {row_write(9, 3, width, 0), read,
       row_write(9, 4, width, 0xF0F0F0F0F0F0F0F0u)});
  decoded = 0;
  for (int i = 0; i < kBudget; ++i) {
    const std::string mutant = mutate(trace);
    SCOPED_TRACE(mutant);
    net::Json mutated = net::Json::object();
    mutated.set("insts", mutant);
    try {
      (void)core::subarray_trace_from_json(mutated, 9, width);
      ++decoded;
    } catch (const InputFormatError&) {
    }
  }
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, kBudget);
}

// An isolated run's `program` requests: stage 2a ships one all-zero
// ROW_WRITE per MEM_insert, stage 2b one ROW_READ per edge instance, and
// nothing else rides that verb.
TEST(ProcPoolWire, ProgramRequestsCostAtMost32BytesPerInstruction) {
  telemetry::MetricsRegistry registry;
  telemetry::ScopedMetricsRegistry scope(&registry);
  telemetry::TelemetrySession::instance().enable_metrics();
  dram::Device device(pipeline_geometry());
  core::PipelineOptions opt;
  opt.k = 15;
  opt.hash_shards = 8;
  opt.threads = 2;
  opt.isolate = true;
  const core::PipelineResult result =
      core::run_pipeline(device, workload_reads(11), opt);
  const double bytes =
      registry
          .counter("pima_rpc_bytes_total", "",
                   {{"verb", "program"}, {"dir", "request"}},
                   telemetry::MetricClass::kHost)
          .value();
  const double writes = static_cast<double>(result.debruijn.device.commands);
  const double instructions =
      writes + static_cast<double>(result.graph.edge_instances());
  ASSERT_GT(writes, 0.0);
  EXPECT_LE(bytes / instructions, 32.0)
      << bytes << " bytes for " << instructions << " instructions";
}

TEST(ProcPoolWire, RpcRethrowsTheWorkersTypedError) {
  runtime::ProcSupervisor sup(runtime::ProcPoolOptions{},
                              core::worker_init_to_json(degree_worker_init()));
  sup.start();
  // An unknown verb is an InputFormatError; a block needing more rows than
  // a sub-array holds is a PreconditionError.
  core::EdgeBlock huge;
  huge.edges = {{0, 0, 100000}};
  EXPECT_THROW((void)sup.rpc(op_request("no_such_verb")), InputFormatError);
  EXPECT_THROW((void)sup.rpc(degree_batch({encode_block(0, 1, huge)})),
               PreconditionError);
  // Each response was consumed: the stream stays in step, and a typed
  // error restarts nothing.
  EXPECT_TRUE(sup.query(op_request("drain")).get_bool("ok", false));
  EXPECT_EQ(sup.restarts_used(), 0u);
  sup.shutdown();
}

// ---- exit classification ----------------------------------------------------

// Starts a one-device pool whose worker is the shell script `body` standing
// in for pima_devd, with no restart budget, and returns the class the
// supervisor gave the worker's failure.
runtime::WorkerExitClass standin_failure_class(const std::string& name,
                                               const std::string& body) {
  const auto dir = fs::temp_directory_path() /
                   ("procpool_" + name + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto script = dir / "standin_devd";
  {
    std::ofstream out(script);
    out << "#!/bin/sh\n" << body;
  }
  fs::permissions(script, fs::perms::owner_all);
  runtime::ProcPoolOptions opt;
  opt.devd_path = script.string();
  opt.restart_budget = 0;
  runtime::ProcSupervisor sup(opt, core::worker_init_to_json(core::WorkerInit{}));
  runtime::WorkerExitClass cls = runtime::WorkerExitClass::kStalled;
  try {
    sup.start();
    ADD_FAILURE() << "the stand-in worker was accepted";
  } catch (const runtime::ProcPoolDegradedError& e) {
    cls = e.exit_class();
  }
  sup.shutdown();
  fs::remove_all(dir);
  return cls;
}

TEST(ProcPoolClassify, LiveWorkerSendingGarbageIsTornNotKilled) {
  // The worker answers init with a malformed line and keeps running: the
  // parent must kill it, and the class names the torn stream, not the
  // parent's own SIGKILL.
  EXPECT_EQ(standin_failure_class(
                "garbage_live",
                "read -r line <&3\nprintf 'not json\\n' >&3\nexec sleep 30\n"),
            runtime::WorkerExitClass::kTorn);
}

TEST(ProcPoolClassify, WorkerThatExitsAfterGarbageKeepsItsOwnStatus) {
  // The worker sends garbage and exits 3 by itself: its own exit status
  // classifies it.
  EXPECT_EQ(standin_failure_class(
                "garbage_exit",
                "read -r line <&3\nprintf 'not json\\n' >&3\nexit 3\n"),
            runtime::WorkerExitClass::kCrashExit);
}


TEST(ProcPoolClassify, ExitClassNamesAreStable) {
  using runtime::WorkerExitClass;
  EXPECT_STREQ(runtime::to_string(WorkerExitClass::kStalled), "engine stall");
  EXPECT_STREQ(runtime::to_string(WorkerExitClass::kCrashExit), "crash exit");
  EXPECT_STREQ(runtime::to_string(WorkerExitClass::kSignal),
               "killed by signal");
  EXPECT_STREQ(runtime::to_string(WorkerExitClass::kTorn), "torn protocol");
}

}  // namespace
}  // namespace pima
