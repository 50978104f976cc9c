// Process-isolation battery (ctest -L procpool, DESIGN.md §15).
//
// The contract under test: a pipeline run whose device shards live in
// pima_devd worker processes is bit-identical to the in-process run — and
// stays bit-identical when workers are SIGKILLed, SIGSEGV, crash-exited,
// torn mid-write, or chaos-injected mid-stage, because the supervisor
// restarts them and replays their journals — and a pipeline.ckpt cut on
// either transport resumes on the other. Plus the seams: WorkerInit and
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
#include <random>
#include <sstream>
#include <string>
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

namespace pima {
namespace {

namespace fs = std::filesystem;

// RAII environment-variable override (the devd test hook travels to the
// workers through the environment they inherit).
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
};

RunOutput run_config(const std::vector<dna::Sequence>& reads, bool isolate,
                     std::size_t devices,
                     const core::PipelineOptions::IsolateOptions& iso = {},
                     bool capture = false, bool use_multiplicity = false,
                     std::size_t threads = 2,
                     const std::function<void(core::PipelineOptions&)>&
                         configure = {}) {
  auto& session = telemetry::TelemetrySession::instance();
  session.reset();
  session.enable_metrics();
  dram::Device device(pipeline_geometry());
  core::PipelineOptions opt;
  opt.k = 15;
  opt.hash_shards = 8;
  opt.devices = devices;
  opt.threads = threads;
  opt.isolate = isolate;
  opt.isolate_opts = iso;
  opt.capture_trace = capture;
  opt.use_multiplicity = use_multiplicity;
  if (configure) configure(opt);
  RunOutput out;
  out.result = core::run_pipeline(device, reads, opt);
  out.model_snapshot = session.metrics().json_snapshot(/*model_only=*/true);
  session.reset();
  return out;
}

void expect_bit_identical(const core::PipelineResult& a,
                          const core::PipelineResult& b) {
  EXPECT_EQ(a.contigs, b.contigs);
  EXPECT_EQ(a.distinct_kmers, b.distinct_kmers);
  EXPECT_EQ(a.graph_nodes, b.graph_nodes);
  EXPECT_EQ(a.graph_edges, b.graph_edges);
  EXPECT_EQ(a.hashmap.device, b.hashmap.device);
  EXPECT_EQ(a.debruijn.device, b.debruijn.device);
  EXPECT_EQ(a.traverse.device, b.traverse.device);
}

// ---- crash-free identity ----------------------------------------------------

TEST(ProcPoolIdentity, IsolatedMatchesInProcessAndSingleDevice) {
  const auto reads = workload_reads(11);
  const auto single = run_config(reads, /*isolate=*/false, 1);
  const auto pooled = run_config(reads, /*isolate=*/false, 4);
  const auto isolated = run_config(reads, /*isolate=*/true, 4);
  // threads = 0: one channel per hardware thread, resolved inside each
  // worker — the worker routes its k-mers to its own channels.
  const auto isolated_hw = run_config(reads, /*isolate=*/true, 4, {}, false,
                                      false, /*threads=*/0);
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
      run_config(reads, /*isolate=*/false, 3, {}, /*capture=*/true);
  const auto isolated =
      run_config(reads, /*isolate=*/true, 3, {}, /*capture=*/true);
  ASSERT_FALSE(isolated.result.trace.empty());
  EXPECT_EQ(isolated.result.trace, pooled.result.trace);
}

TEST(ProcPoolIdentity, MultiplicityOnRepeatRichGenomeMatchesInProcess) {
  // Planted repeats plus --multiplicity give edges with multiplicity > 1,
  // so the workers rebuild duplicate adjacency rows from the edge triples.
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
  const auto pooled = run_config(reads, /*isolate=*/false, 3, {},
                                 /*capture=*/true, /*use_multiplicity=*/true);
  const auto isolated = run_config(reads, /*isolate=*/true, 3, {},
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
  const auto baseline = run_config(reads, /*isolate=*/false, 4);
  const auto scratch = fs::temp_directory_path() / "procpool_hooks";
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  for (const char* action : {"sigkill", "segv", "exit86", "torn"}) {
    SCOPED_TRACE(action);
    const auto flag = (scratch / (std::string("flag_") + action)).string();
    // Device 2 dies after its 8th request — early in stage 2 on this
    // input — then the flag file makes the respawned worker healthy.
    ScopedEnv hook("PIMA_DEVD_TEST_HOOK", std::string("dev=2:after=8:action=") +
                                              action + ":flag=" + flag);
    core::PipelineOptions::IsolateOptions iso;
    iso.allow_degrade = false;  // a degrade here would mask a replay bug
    const auto run = run_config(reads, /*isolate=*/true, 4, iso);
    EXPECT_TRUE(fs::exists(flag)) << "hook never fired";
    expect_bit_identical(run.result, baseline.result);
    EXPECT_EQ(run.model_snapshot, baseline.model_snapshot);
  }
  fs::remove_all(scratch);
}

TEST(ProcPoolRecovery, KillOnTheDegreeBatchIsBitIdentical) {
  // The crash lands on the batched stage itself: device 1 dies after
  // executing its degree_block batch, before answering. Its peers'
  // responses are already in flight; the supervisor restarts device 1,
  // replays its journal and resends the batch.
  const auto reads = workload_reads(18);
  const auto baseline =
      run_config(reads, /*isolate=*/false, 4, {}, /*capture=*/true);
  const auto scratch = fs::temp_directory_path() / "procpool_degree_hook";
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  for (const char* action : {"sigkill", "torn"}) {
    SCOPED_TRACE(action);
    const auto flag = (scratch / (std::string("flag_") + action)).string();
    ScopedEnv hook("PIMA_DEVD_TEST_HOOK",
                   std::string("dev=1:op=degree_block:after=1:action=") +
                       action + ":flag=" + flag);
    core::PipelineOptions::IsolateOptions iso;
    iso.allow_degrade = false;
    const auto run =
        run_config(reads, /*isolate=*/true, 4, iso, /*capture=*/true);
    EXPECT_TRUE(fs::exists(flag)) << "hook never fired";
    expect_bit_identical(run.result, baseline.result);
    EXPECT_EQ(run.model_snapshot, baseline.model_snapshot);
    EXPECT_EQ(run.result.trace, baseline.result.trace);
  }
  fs::remove_all(scratch);
}

TEST(ProcPoolRecovery, RecoveryPreservesCapturedTrace) {
  const auto reads = workload_reads(14);
  const auto baseline =
      run_config(reads, /*isolate=*/false, 4, {}, /*capture=*/true);
  const auto scratch = fs::temp_directory_path() / "procpool_trace_hook";
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  const auto flag = (scratch / "flag").string();
  ScopedEnv hook("PIMA_DEVD_TEST_HOOK",
                 "dev=1:after=6:action=sigkill:flag=" + flag);
  core::PipelineOptions::IsolateOptions iso;
  iso.allow_degrade = false;
  // capture_trace disables journal truncation: the respawned worker must
  // replay every command so its trace capture is complete.
  const auto run = run_config(reads, /*isolate=*/true, 4, iso, /*capture=*/true);
  EXPECT_TRUE(fs::exists(flag)) << "hook never fired";
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
  opt.devices = 1;
  opt.restart_budget = 30;
  opt.restart_backoff_ms = 1.0;
  opt.child_iofault = "send@wire:nth=4:crash";
  core::WorkerInit init;
  init.geometry = pipeline_geometry();
  init.k = 15;
  init.hash_shards = 4;
  init.engine.channels = 1;
  runtime::ProcSupervisor sup(opt, [&](std::size_t d) {
    core::WorkerInit wi = init;
    wi.device = d;
    return core::worker_init_to_json(wi);
  });
  sup.start();
  net::Json clear = net::Json::object();
  clear.set("op", "clear_stats");
  for (std::uint32_t i = 1; i <= 10; ++i) {
    const auto responses = sup.rpc_all({clear});
    EXPECT_TRUE(responses[0].get_bool("ok", false));
    sup.mark_stage_done(i);  // truncate: bounds the next replay
  }
  EXPECT_GE(sup.restarts_used(), 1u);
  net::Json ping = net::Json::object();
  ping.set("op", "ping");
  EXPECT_TRUE(sup.query_all({ping})[0].get_bool("ok", false));
  sup.shutdown();
}

// ---- restart budget exhaustion: degrade or typed failure --------------------

TEST(ProcPoolDegrade, BudgetExhaustionFallsBackToInProcessPool) {
  const auto reads = workload_reads(15);
  const auto baseline = run_config(reads, /*isolate=*/false, 4);
  // No flag file: device 0 dies after every respawn, exhausting the budget.
  ScopedEnv hook("PIMA_DEVD_TEST_HOOK", "dev=0:after=4:action=exit86");
  core::PipelineOptions::IsolateOptions iso;
  iso.restart_budget = 2;
  const auto run = run_config(reads, /*isolate=*/true, 4, iso);
  expect_bit_identical(run.result, baseline.result);
}

TEST(ProcPoolDegrade, DisallowedDegradeThrowsWorkerCrashedError) {
  const auto reads = workload_reads(15);
  ScopedEnv hook("PIMA_DEVD_TEST_HOOK", "dev=0:after=4:action=sigkill");
  core::PipelineOptions::IsolateOptions iso;
  iso.restart_budget = 1;
  iso.allow_degrade = false;
  try {
    (void)run_config(reads, /*isolate=*/true, 4, iso);
    FAIL() << "expected WorkerCrashedError";
  } catch (const WorkerCrashedError& e) {
    EXPECT_EQ(e.device(), 0u);
    EXPECT_EQ(e.classification(), "killed by signal");
    EXPECT_EQ(exit_code_for(e), kExitWorkerCrashed);
  }
  telemetry::TelemetrySession::instance().reset();
}

// ---- cross-transport resume ------------------------------------------------

// pipeline.ckpt is the only resume record and its fingerprint is
// transport-independent: a run stopped after stage 1 on one transport
// resumes on the other, bit-identical to the uninterrupted run. A resumed
// run exports model metrics only for the stages it executes, so its
// model-only snapshot is held to the in-process stop + resume.
TEST(ProcPoolResume, CrossTransportResumeIsBitIdentical) {
  const auto reads = workload_reads(15);
  const auto baseline = run_config(reads, /*isolate=*/false, 2);
  struct Stopped {};
  const auto stop_then_resume = [&](bool stop_isolated, bool resume_isolated) {
    const fs::path dir = fs::temp_directory_path() / "procpool_cross_resume";
    fs::remove_all(dir);
    fs::create_directories(dir);
    EXPECT_THROW(
        (void)run_config(reads, stop_isolated, 2, {}, false, false, 2,
                         [&](core::PipelineOptions& opt) {
                           opt.checkpoint_dir = dir.string();
                           opt.on_checkpoint = [](std::uint32_t stage,
                                                  const std::string&) {
                             if (stage == 1) throw Stopped{};
                           };
                         }),
        Stopped);
    auto resumed = run_config(reads, resume_isolated, 2, {}, false, false, 2,
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
  telemetry::TelemetrySession::instance().reset();
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
    dram::Device device(pipeline_geometry());
    core::PipelineOptions opt;
    opt.k = 15;
    opt.hash_shards = 1;
    opt.devices = 2;
    opt.threads = 2;
    opt.isolate = isolate;
    opt.isolate_opts.allow_degrade = false;
    try {
      (void)core::run_pipeline(device, reads, opt);
      FAIL() << "hash shard overflow accepted";
    } catch (const SimulationError& e) {
      EXPECT_NE(std::string(e.what()).find("hash shard full"),
                std::string::npos)
          << e.what();
    }
  }
}

// ---- distributed observability ----------------------------------------------

TEST(ProcPoolObservability, StitchedTraceHasWorkerSpansFlowsAndRestartTracks) {
  const auto reads = workload_reads(16);
  const auto baseline = run_config(reads, /*isolate=*/false, 3);
  auto& session = telemetry::TelemetrySession::instance();
  session.reset();
  session.enable_metrics();
  session.tracer().enable();
  const auto scratch = fs::temp_directory_path() / "procpool_obs_trace";
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  const auto flag = (scratch / "flag").string();
  // Worker 1 dies mid stage 1; its replacement appears as a new process
  // track with a restart-suffixed name.
  ScopedEnv hook("PIMA_DEVD_TEST_HOOK",
                 "dev=1:after=6:action=sigkill:flag=" + flag);
  dram::Device device(pipeline_geometry());
  core::PipelineOptions opt;
  opt.k = 15;
  opt.hash_shards = 8;
  opt.devices = 3;
  opt.threads = 2;
  opt.isolate = true;
  opt.isolate_opts.allow_degrade = false;
  const auto result = core::run_pipeline(device, reads, opt);
  EXPECT_TRUE(fs::exists(flag)) << "hook never fired";
  expect_bit_identical(result, baseline.result);
  // Tracing is host-side observation: the model-class oracle must not
  // move because spans were recorded and harvested.
  EXPECT_EQ(session.metrics().json_snapshot(/*model_only=*/true),
            baseline.model_snapshot);

  auto& tracer = session.tracer();
  EXPECT_GE(tracer.process_count(), 3u);  // one track group per live worker
  const std::string json = tracer.chrome_json();
  EXPECT_NE(json.find("\"pima_devd d=0\""), std::string::npos);
  EXPECT_NE(json.find("(restart 1)"), std::string::npos);
  EXPECT_NE(json.find("devd:kmers"), std::string::npos);  // worker-side span
  EXPECT_NE(json.find("rpc:kmers"), std::string::npos);   // controller span
  // Flow links tie each controller rpc span to its worker execution.
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\": \"e\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"rpc\""), std::string::npos);
  session.reset();
  fs::remove_all(scratch);
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
                 "dev=2:after=8:action=sigkill:flag=" + flag);
  const auto reads = workload_reads(17);
  core::PipelineOptions::IsolateOptions iso;
  iso.allow_degrade = false;
  const auto run = run_config(reads, /*isolate=*/true, 4, iso);
  ASSERT_FALSE(run.result.contigs.empty());
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
  init.device = 3;
  init.devices = 4;
  init.k = 21;
  init.hash_shards = 32;
  init.engine.channels = 5;
  init.engine.queue_capacity = 17;
  init.engine.capture_trace = true;
  init.engine.stall_timeout_ms = 1234.5;
  const auto wire = core::worker_init_to_json(init);
  const auto parsed = core::worker_init_from_json(wire);
  // Geometry/Technology carry no operator==; a second serialization is the
  // byte oracle (net::Json renders doubles shortest-round-trip-exact).
  EXPECT_EQ(core::worker_init_to_json(parsed).dump(), wire.dump());
  EXPECT_EQ(parsed.device, 3u);
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
// encode, and rejects as a typed InputFormatError every list no worker
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
  const auto extract_with = [&](const std::vector<std::uint64_t>& values) {
    net::Json list = net::Json::array();
    net::Json flat = net::Json::array();
    for (const std::uint64_t v : values) flat.push_back(net::Json(v));
    list.push_back(std::move(flat));
    return list;
  };
  EXPECT_THROW(core::extract_shards_from_json(extract_with({5, 1, 77}), 1, k),
               InputFormatError)
      << "odd-length shard list";
  EXPECT_THROW(core::extract_shards_from_json(
                   extract_with({5, std::uint64_t{1} << 32}), 1, k),
               InputFormatError)
      << "frequency above 2^32 - 1";
  EXPECT_THROW(core::extract_shards_from_json(
                   extract_with({std::uint64_t{1} << (2 * k), 1}), 1, k),
               InputFormatError)
      << "k-mer wider than 2k bits";
  EXPECT_THROW(
      core::extract_shards_from_json(net::Json::parse(extract_line), 2, k),
      InputFormatError)
      << "shard count mismatch";

  // Worker 1 of 3 over 24 sub-arrays owns flats 1, 4, 7, ...
  const std::size_t total = 24;
  dram::CommandStats st;
  st.counts[0] = 2;
  st.busy_ns = 0.1 + 0.2;
  st.energy_pj = 1.0 / 3.0;
  const dram::SubarrayStats stats = {{1, st}, {7, st}};
  const net::Json stats_list =
      net::Json::parse(core::subarray_stats_to_json(stats).dump());
  const dram::SubarrayStats back =
      core::subarray_stats_from_json(stats_list, 1, 3, total);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[1].first, 7u);
  EXPECT_EQ(back[1].second.busy_ns, st.busy_ns);
  EXPECT_EQ(back[1].second.energy_pj, st.energy_pj);

  dram::Instruction read;
  read.op = dram::Opcode::kRowRead;
  read.subarray = 4;
  read.src1 = 9;
  const dram::SubarrayPrograms programs = {{4, {read}}};
  const net::Json program_list =
      net::Json::parse(core::subarray_programs_to_json(programs).dump());
  EXPECT_EQ(core::subarray_programs_from_json(program_list, 1, 3, total),
            programs);

  // Each bad flat, in a stats list and in a trace list.
  for (const std::vector<std::uint64_t>& flats :
       {std::vector<std::uint64_t>{1, total + 1},  // out of range
        std::vector<std::uint64_t>{1, 3},          // worker 0's
        std::vector<std::uint64_t>{4, 4}}) {       // repeated
    SCOPED_TRACE("flats " + std::to_string(flats[0]) + ", " +
                 std::to_string(flats[1]));
    net::Json bad_stats = net::Json::array();
    net::Json bad_programs = net::Json::array();
    for (const std::uint64_t flat : flats) {
      bad_stats.push_back(core::stats_entry_to_json(flat, st));
      net::Json entry = net::Json::object();
      entry.set("flat", flat);
      dram::Instruction at = read;
      at.subarray = static_cast<std::size_t>(flat);
      entry.set("text", dram::to_text(dram::Program{at}));
      bad_programs.push_back(std::move(entry));
    }
    EXPECT_THROW(core::subarray_stats_from_json(bad_stats, 1, 3, total),
                 InputFormatError);
    EXPECT_THROW(core::subarray_programs_from_json(bad_programs, 1, 3, total),
                 InputFormatError);
  }
  net::Json unparseable = net::Json::array();
  net::Json entry = net::Json::object();
  entry.set("flat", std::uint64_t{4});
  entry.set("text", "NO_SUCH_OP sa=4 size=1\n");
  unparseable.push_back(std::move(entry));
  EXPECT_THROW(core::subarray_programs_from_json(unparseable, 1, 3, total),
               InputFormatError);
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
  EXPECT_EQ(rows, std::size(kErrorTable) - 2);
  const EngineStalledError stalled(2, 7, 41, 250.0);
  EXPECT_EQ(roundtrip(stalled, what), "EngineStalledError");
  EXPECT_EQ(what, stalled.what());
  // A row without a message constructor, and a class the table does not
  // list, both arrive as SimulationError carrying the worker's message.
  const WorkerCrashedError crashed(1, "killed by signal", "");
  EXPECT_EQ(roundtrip(crashed, what), "SimulationError");
  EXPECT_EQ(what, crashed.what());
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

// [flat, n, (from, to, mult)...], the controller's block encoding.
net::Json encode_block(std::size_t flat, std::size_t n,
                       const core::EdgeBlock& block) {
  net::Json enc = net::Json::array();
  enc.push_back(net::Json(static_cast<std::uint64_t>(flat)));
  enc.push_back(net::Json(static_cast<std::uint64_t>(n)));
  for (const auto& e : block.edges)
    for (const std::uint32_t v : {e.from, e.to, e.multiplicity})
      enc.push_back(net::Json(static_cast<std::uint64_t>(v)));
  return enc;
}

net::Json degree_batch(std::vector<net::Json> blocks) {
  net::Json arr = net::Json::array();
  for (auto& b : blocks) arr.push_back(std::move(b));
  net::Json req = op_request("degree_block");
  req.set("blocks", std::move(arr));
  return req;
}

TEST(ProcPoolWire, DegreeBatchMatchesControllerBuiltRows) {
  const dram::Geometry geom = pipeline_geometry();
  const std::size_t width = geom.columns;
  // Two blocks on two sub-arrays; multiplicities 2..5 append duplicate
  // rows (block_adjacency_rows' extra-instance path).
  core::EdgeBlock a;
  a.edges = {{0, 3, 1}, {1, 3, 3}, {4, 0, 2}, {1, 200, 1}, {2, 255, 5}};
  core::EdgeBlock b;
  b.edges = {{0, 0, 1}, {2, 17, 4}, {2, 18, 1}};
  const std::vector<std::tuple<std::size_t, std::size_t, core::EdgeBlock>>
      blocks = {{9, 5, a}, {37, 3, b}};
  ASSERT_GT(core::block_adjacency_rows(a, 5, width).size(), 5u);

  core::ShardWorkerCore worker(core::worker_init_to_json(degree_worker_init()));
  std::vector<net::Json> encoded;
  for (const auto& [flat, n, block] : blocks)
    encoded.push_back(encode_block(flat, n, block));
  EXPECT_TRUE(worker.handle(degree_batch(std::move(encoded))).get_bool("ok"));
  EXPECT_TRUE(worker.handle(op_request("drain")).get_bool("ok"));
  const net::Json stats = worker.handle(op_request("stats"));
  const net::Json trace = worker.handle(op_request("trace"));

  dram::Device reference(geom);
  reference.enable_tracing();
  for (const auto& [flat, n, block] : blocks)
    (void)core::pim_column_sums(reference.subarray(flat),
                                core::block_adjacency_rows(block, n, width));

  const auto& entries = stats.get("subarrays").items();
  ASSERT_EQ(entries.size(), blocks.size());
  const auto& programs = trace.get("programs").items();
  ASSERT_EQ(programs.size(), blocks.size());
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
    EXPECT_EQ(programs[i].get_uint64("flat"), flat);
    EXPECT_EQ(programs[i].get_string("text"),
              dram::to_text(dram::program_from_trace(
                  reference.trace_if(flat)->entries(), flat, width)));
  }
}

TEST(ProcPoolWire, MalformedRequestsGetTypedErrors) {
  // One seeded table over every journaled verb that carries data. A valid
  // item rides ahead of each corrupted one: the worker parses a whole
  // request before anything touches the device, so a rejected request must
  // run nothing — the error is typed and the stats stay empty.
  const dram::Geometry geom = pipeline_geometry();
  const std::size_t width = geom.columns;
  const std::size_t total = geom.total_subarrays();
  const core::WorkerInit init = degree_worker_init();
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
    if (what == "kmers: not an array")
      return request("kmers", "kmers", net::Json("ACGT"));
    if (what == "kmers: string k-mer") {
      net::Json arr = uints({kmer});
      arr.push_back(net::Json("ACGT"));
      return request("kmers", "kmers", std::move(arr));
    }
    if (what == "kmers: fractional k-mer") {
      net::Json arr = uints({kmer});
      arr.push_back(net::Json(0.5 + static_cast<double>(rng() % 1000)));
      return request("kmers", "kmers", std::move(arr));
    }
    if (what == "kmers: k-mer wider than 2k bits")
      return request("kmers", "kmers",
                     uints({kmer, kmer | (std::uint64_t{1}
                                          << (kmer_bits + rng() % 8))}));
    if (what == "extract: shard out of range")
      return request("extract", "shards",
                     uints({0, init.hash_shards + rng() % 4}));
    if (what == "extract: not an array")
      return request("extract", "shards", net::Json(std::uint64_t{0}));
    if (what == "program: unparseable line") {
      dram::Instruction read;
      read.op = dram::Opcode::kRowRead;
      read.subarray = rng() % total;
      const std::string junk = rng() % 2 == 0
                                   ? "NO_SUCH_OP sa=1 size=1"
                                   : "ROW_READ sa=x" + std::to_string(rng());
      return request("program", "text",
                     net::Json(dram::to_text(dram::Program{read}) + junk +
                               "\n"));
    }
    // degree_block: corrupt one seeded block [flat, n, (from, to, mult)...].
    const std::size_t n = 1 + rng() % 40;
    std::vector<std::uint64_t> v = {rng() % total, n};
    for (std::size_t e = 1 + rng() % 6; e > 0; --e) {
      v.push_back(rng() % n);
      v.push_back(rng() % width);
      v.push_back(1 + rng() % 3);
    }
    const std::size_t triple = 2 + 3 * (rng() % ((v.size() - 2) / 3));
    if (what == "degree_block: truncated triple") v.pop_back();
    if (what == "degree_block: from >= n") v[triple] = n + rng() % 4;
    if (what == "degree_block: to >= width") v[triple + 1] = width + rng() % 4;
    if (what == "degree_block: n > columns") v[1] = width + 1 + rng() % 4;
    if (what == "degree_block: flat out of range") v[0] = total + rng() % 4;
    core::EdgeBlock good;
    good.edges = {{0, 1, 1}, {1, 2, 2}};
    return degree_batch(
        {encode_block(rng() % total, 2, good),
         what == "degree_block: not an array" ? net::Json("not a block")
                                              : uints(v)});
  };
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    std::mt19937_64 rng(seed);
    for (const char* what :
         {"kmers: not an array", "kmers: string k-mer",
          "kmers: fractional k-mer", "kmers: k-mer wider than 2k bits",
          "extract: shard out of range", "extract: not an array",
          "program: unparseable line", "degree_block: truncated triple",
          "degree_block: from >= n", "degree_block: to >= width",
          "degree_block: n > columns", "degree_block: flat out of range",
          "degree_block: not an array"}) {
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
  EXPECT_TRUE(worker.handle(request("kmers", "kmers", uints({1, 2, 1})))
                  .get_bool("ok"));
  EXPECT_TRUE(worker.handle(op_request("drain")).get_bool("ok"));
  EXPECT_EQ(worker.handle(op_request("distinct")).get_uint64("value"), 2u);
  EXPECT_FALSE(
      worker.handle(op_request("stats")).get("subarrays").items().empty());
}

TEST(ProcPoolWire, RpcAllRethrowsTheLowestDevicesTypedError) {
  runtime::ProcPoolOptions opt;
  opt.devices = 3;
  runtime::ProcSupervisor sup(opt, [](std::size_t d) {
    core::WorkerInit wi = degree_worker_init();
    wi.device = d;
    wi.devices = 3;
    return core::worker_init_to_json(wi);
  });
  sup.start();
  // An unknown verb is an InputFormatError; a block needing more rows than
  // a sub-array holds is a PreconditionError.
  core::EdgeBlock huge;
  huge.edges = {{0, 0, 100000}};
  const net::Json precondition = degree_batch({encode_block(0, 1, huge)});
  const net::Json input_format = op_request("no_such_verb");
  {
    const std::vector<net::Json> requests = {op_request("ping"), input_format,
                                             precondition};
    EXPECT_THROW((void)sup.rpc_all(requests), InputFormatError);
  }
  {
    const std::vector<net::Json> requests = {op_request("ping"), precondition,
                                             input_format};
    EXPECT_THROW((void)sup.rpc_all(requests), PreconditionError);
  }
  // Every response was consumed: the streams stay in step.
  const auto pongs =
      sup.query_all(std::vector<net::Json>(3, op_request("ping")));
  for (const auto& pong : pongs) EXPECT_TRUE(pong.get_bool("ok", false));
  EXPECT_EQ(sup.restarts_used(), 0u);
  sup.shutdown();
}

// ---- exit classification ----------------------------------------------------

TEST(ProcPoolClassify, ExitClassNamesAreStable) {
  using runtime::WorkerExitClass;
  EXPECT_STREQ(runtime::to_string(WorkerExitClass::kClean), "clean exit");
  EXPECT_STREQ(runtime::to_string(WorkerExitClass::kStalled), "engine stall");
  EXPECT_STREQ(runtime::to_string(WorkerExitClass::kCrashExit), "crash exit");
  EXPECT_STREQ(runtime::to_string(WorkerExitClass::kSignal),
               "killed by signal");
  EXPECT_STREQ(runtime::to_string(WorkerExitClass::kTorn), "torn protocol");
  EXPECT_STREQ(runtime::to_string(WorkerExitClass::kWedged),
               "wedged (liveness deadline)");
}

}  // namespace
}  // namespace pima
