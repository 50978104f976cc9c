// Assembly service: wire-protocol JSON, job model, admission control, and
// the daemon end to end over its unix socket — including the two service
// acceptance contracts: concurrent jobs are bit-identical to a standalone
// pipeline run, and a SIGKILLed daemon resumes interrupted jobs from their
// stage checkpoints on restart.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/error.hpp"
#include "core/pipeline.hpp"
#include "dna/fasta.hpp"
#include "dna/genome.hpp"
#include "net/json.hpp"
#include "net/socket.hpp"
#include "service/admission.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/job.hpp"

namespace pima::service {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

// ---------------------------------------------------------------- Json --

TEST(ServiceJson, RoundTripPreservesStructureAndOrder) {
  net::Json inner = net::Json::object();
  inner.set("b", 2).set("a", 1);
  net::Json arr = net::Json::array();
  arr.push_back(true).push_back(net::Json()).push_back("x");
  net::Json j = net::Json::object();
  j.set("num", 0.1).set("obj", inner).set("arr", std::move(arr));
  const std::string text = j.dump();
  EXPECT_EQ(net::Json::parse(text).dump(), text);  // writer is deterministic
  // Keys keep insertion order, not sorted order.
  EXPECT_LT(text.find("\"b\""), text.find("\"a\""));
}

TEST(ServiceJson, NumbersRenderRoundTripExact) {
  for (const double v : {0.1, 1e-9, 1.0, 16777217.0, -2.5e300}) {
    const net::Json parsed = net::Json::parse(net::Json(v).dump());
    EXPECT_EQ(parsed.as_number(), v);
  }
}

TEST(ServiceJson, EscapesAndUnicode) {
  const std::string raw = "line1\nline2\t\"quoted\" \\slash\x01";
  const net::Json parsed = net::Json::parse(net::Json(raw).dump());
  EXPECT_EQ(parsed.as_string(), raw);
  EXPECT_EQ(net::Json::parse("\"\\u0041\\u00e9\"").as_string(), "A\xc3\xa9");
}

TEST(ServiceJson, Uint64CountersExactAboveDoublePrecision) {
  // 2^53 + 1 is the first integer a double cannot represent; the exact
  // integer view must carry it (and everything up to 2^64 - 1) untouched.
  const std::uint64_t big = (1ULL << 53) + 1;
  EXPECT_EQ(net::Json(big).dump(), "9007199254740993");
  EXPECT_EQ(net::Json::parse(net::Json(big).dump()).as_uint64(), big);
  EXPECT_EQ(net::Json::parse("18446744073709551615").as_uint64(),
            ~std::uint64_t{0});
  // Small integers agree between the double and exact views.
  EXPECT_EQ(net::Json::parse("42").as_uint64(), 42u);
  EXPECT_EQ(net::Json::parse("42").as_number(), 42.0);
  // Fractional and negative numbers have no exact u64 view.
  EXPECT_THROW((void)net::Json(0.5).as_uint64(), InputFormatError);
  EXPECT_THROW((void)net::Json::parse("-4").as_uint64(), InputFormatError);
}

TEST(ServiceJson, MalformedInputThrowsTyped) {
  EXPECT_THROW((void)net::Json::parse("{"), InputFormatError);
  EXPECT_THROW((void)net::Json::parse("{\"a\":1} trailing"), InputFormatError);
  EXPECT_THROW((void)net::Json::parse("nul"), InputFormatError);
  // Type mismatch.
  EXPECT_THROW((void)net::Json(1.0).as_string(), InputFormatError);
}

// ----------------------------------------------------------- job model --

TEST(ServiceJob, SpecValidationNamesTheBadField) {
  JobSpec spec;
  spec.reads_path = "/tmp/reads.fa";
  // Below the documented range, and above Kmer::kMaxK (the pipeline's
  // own limit, so a spec the daemon admits is one the pipeline can run).
  for (const std::size_t bad_k : {std::size_t{3}, std::size_t{33}}) {
    spec.k = bad_k;
    try {
      spec.validate();
      FAIL() << "expected InputFormatError for k = " << bad_k;
    } catch (const InputFormatError& e) {
      EXPECT_NE(std::string(e.what()).find("k must be"), std::string::npos);
    }
  }
  spec.k = 17;
  spec.channels = 0;
  EXPECT_THROW(spec.validate(), InputFormatError);
}

TEST(ServiceJob, SpecJsonRoundTrip) {
  JobSpec spec;
  spec.reads_path = "/data/reads.fa";
  spec.k = 21;
  spec.hash_shards = 64;
  spec.channels = 4;
  spec.euler = true;
  spec.priority = -2;
  spec.stall_timeout_ms = 1500.0;
  EXPECT_EQ(JobSpec::from_json(spec.to_json()), spec);
}

TEST(ServiceJob, RecordPersistsAtomically) {
  const fs::path dir = fs::temp_directory_path() / "pima_svc_record";
  fs::remove_all(dir);
  fs::create_directories(dir);
  JobRecord rec;
  rec.id = "j0042";
  rec.spec.reads_path = "/data/reads.fa";
  rec.spec.k = 19;
  rec.state = JobState::kFailed;
  rec.seq = 7;
  rec.stages_done = 2;
  rec.error_type = "EngineStalledError";
  rec.error_message = "channel 1 stalled";
  save_job_record(dir.string(), rec);
  const JobRecord loaded = load_job_record(dir.string());
  EXPECT_EQ(loaded.id, rec.id);
  EXPECT_EQ(loaded.spec, rec.spec);
  EXPECT_EQ(loaded.state, rec.state);
  EXPECT_EQ(loaded.seq, rec.seq);
  EXPECT_EQ(loaded.stages_done, rec.stages_done);
  EXPECT_EQ(loaded.error_type, rec.error_type);
  EXPECT_EQ(loaded.error_message, rec.error_message);
  fs::remove_all(dir);
}

TEST(ServiceJob, RecordU64CountersSurviveAboveDoublePrecision) {
  // total_length / distinct_kmers on large inputs can exceed 2^53; the
  // persisted record must not round them through a double.
  const fs::path dir = fs::temp_directory_path() / "pima_svc_record_u64";
  fs::remove_all(dir);
  fs::create_directories(dir);
  JobRecord rec;
  rec.id = "j9000";
  rec.spec.reads_path = "/data/reads.fa";
  rec.state = JobState::kDone;
  rec.seq = (1ULL << 60) + 7;
  rec.stages_done = 3;
  rec.contigs = 12;
  rec.n50 = (1ULL << 53) + 1;
  rec.total_length = (1ULL << 53) + 3;
  rec.distinct_kmers = (1ULL << 62) + 9;
  save_job_record(dir.string(), rec);
  const JobRecord loaded = load_job_record(dir.string());
  EXPECT_EQ(loaded.seq, rec.seq);
  EXPECT_EQ(loaded.n50, rec.n50);
  EXPECT_EQ(loaded.total_length, rec.total_length);
  EXPECT_EQ(loaded.distinct_kmers, rec.distinct_kmers);
  fs::remove_all(dir);
}

TEST(ServiceJob, StateNamesRoundTrip) {
  for (const JobState s :
       {JobState::kQueued, JobState::kAdmitted, JobState::kRunning,
        JobState::kDone, JobState::kFailed, JobState::kCancelled})
    EXPECT_EQ(parse_job_state(to_string(s)), s);
  EXPECT_THROW((void)parse_job_state("limbo"), InputFormatError);
}

// ------------------------------------------------------------ admission --

AdmissionPolicy policy(std::size_t depth, std::size_t jobs,
                       std::size_t budget) {
  AdmissionPolicy p;
  p.queue_depth = depth;
  p.max_jobs = jobs;
  p.channel_budget = budget;
  return p;
}

TEST(ServiceAdmission, PriorityFirstFifoWithin) {
  AdmissionQueue q(policy(8, 8, 64));
  q.push("a", 0, 0, 1);
  q.push("b", 1, 1, 1);
  q.push("c", 1, 2, 1);
  q.push("d", 0, 3, 1);
  EXPECT_EQ(q.pop_admissible(0, 0), "b");
  EXPECT_EQ(q.pop_admissible(0, 0), "c");
  EXPECT_EQ(q.pop_admissible(0, 0), "a");
  EXPECT_EQ(q.pop_admissible(0, 0), "d");
  EXPECT_TRUE(q.empty());
}

TEST(ServiceAdmission, DepthBoundRejectsSynchronously) {
  AdmissionQueue q(policy(2, 1, 8));
  q.push("a", 0, 0, 1);
  q.push("b", 0, 1, 1);
  EXPECT_THROW(q.push("c", 0, 2, 1), AdmissionRejectedError);
  EXPECT_EQ(q.size(), 2u);
}

TEST(ServiceAdmission, BudgetAndJobBoundsGateDispatch) {
  AdmissionQueue q(policy(8, 2, 4));
  q.push("wide", 0, 0, 4);
  q.push("narrow", 0, 1, 1);
  // Channel budget partly used: the wide head does not fit, and strict
  // ordering means the narrow job behind it must NOT be backfilled.
  EXPECT_EQ(q.pop_admissible(1, 2), "");
  // max_jobs reached: nothing dispatches even with budget to spare.
  EXPECT_EQ(q.pop_admissible(2, 0), "");
  // Budget free again: the head goes first.
  EXPECT_EQ(q.pop_admissible(0, 0), "wide");
  EXPECT_EQ(q.pop_admissible(1, 4), "");  // narrow blocked by budget now
  EXPECT_EQ(q.pop_admissible(0, 0), "narrow");
}

TEST(ServiceAdmission, QuotaWiderThanBudgetRejected) {
  AdmissionQueue q(policy(8, 2, 4));
  EXPECT_THROW(q.push("hog", 0, 0, 5), AdmissionRejectedError);
}

TEST(ServiceAdmission, RestoreBypassesDepthNotBudget) {
  AdmissionQueue q(policy(1, 1, 4));
  q.push("a", 0, 0, 1);
  q.restore("recovered", 0, 1, 1);  // depth bound waived for recovery
  EXPECT_EQ(q.size(), 2u);
  // ...but a quota that can never fit is still rejected.
  EXPECT_THROW(q.restore("hog", 0, 2, 5), AdmissionRejectedError);
}

TEST(ServiceAdmission, RemoveCancelsQueuedEntry) {
  AdmissionQueue q(policy(8, 1, 8));
  q.push("a", 0, 0, 1);
  EXPECT_TRUE(q.remove("a"));
  EXPECT_FALSE(q.remove("a"));
  EXPECT_TRUE(q.empty());
}

// ------------------------------------------------------ daemon (e2e) ----

dram::Geometry service_geometry() {
  dram::Geometry g;
  g.rows = 512;
  g.compute_rows = 8;
  g.columns = 256;
  g.subarrays_per_mat = 16;
  g.mats_per_bank = 4;
  g.banks = 2;
  return g;
}

// Small workload: jobs finish in well under a second.
void write_small_reads(const std::string& path) {
  dna::GenomeParams gp;
  gp.length = 700;
  gp.repeat_count = 0;
  dna::ReadSamplerParams rp;
  rp.coverage = 6.0;
  rp.read_length = 70;
  const auto reads = dna::sample_reads(dna::generate_genome(gp), rp);
  std::vector<dna::Record> records;
  records.reserve(reads.size());
  for (std::size_t i = 0; i < reads.size(); ++i)
    records.push_back({"read_" + std::to_string(i), reads[i]});
  dna::write_fasta_file(path, records);
}

// Medium workload: long enough (hundreds of ms) that a test can reliably
// observe/interrupt a job mid-run.
void write_medium_reads(const std::string& path) {
  dna::GenomeParams gp;
  gp.length = 6'000;
  gp.repeat_count = 2;
  gp.repeat_length = 150;
  dna::ReadSamplerParams rp;
  rp.coverage = 10.0;
  rp.read_length = 101;
  const auto reads = dna::sample_reads(dna::generate_genome(gp), rp);
  std::vector<dna::Record> records;
  records.reserve(reads.size());
  for (std::size_t i = 0; i < reads.size(); ++i)
    records.push_back({"read_" + std::to_string(i), reads[i]});
  dna::write_fasta_file(path, records);
}

// What the daemon's contigs.fa must contain for `spec`: a standalone
// in-process pipeline run (no daemon, no checkpointing) through the same
// FASTA writer. This is the acceptance bar — service output bit-identical
// to `pima_asm pim-run`.
std::string golden_fasta(const std::string& reads_path, const JobSpec& spec) {
  const auto records = dna::read_fasta_file(reads_path);
  std::vector<dna::Sequence> reads;
  reads.reserve(records.size());
  for (const auto& r : records) reads.push_back(r.seq);
  core::PipelineOptions opt;
  opt.k = spec.k;
  opt.hash_shards = spec.hash_shards;
  opt.threads = spec.channels;
  opt.euler_contigs = spec.euler;
  dram::Device device(service_geometry());
  const auto result = core::run_pipeline(device, reads, opt);
  std::vector<dna::Record> contigs;
  contigs.reserve(result.contigs.size());
  for (std::size_t i = 0; i < result.contigs.size(); ++i)
    contigs.push_back({"contig_" + std::to_string(i), result.contigs[i]});
  std::ostringstream out;
  dna::write_fasta(out, contigs);
  return out.str();
}

// In-process daemon running on its own thread, serving a throwaway state
// dir. stop() is idempotent; the destructor always joins.
class DaemonHarness {
 public:
  explicit DaemonHarness(const std::string& name, AdmissionPolicy admission,
                         std::size_t max_connections = 64,
                         std::uint16_t http_port = 0) {
    state_dir_ = (fs::temp_directory_path() / ("pima_svc_" + name)).string();
    fs::remove_all(state_dir_);
    fs::create_directories(state_dir_);
    DaemonOptions opt;
    opt.state_dir = state_dir_;
    opt.socket_path = state_dir_ + "/pima.sock";
    opt.admission = admission;
    opt.max_connections = max_connections;
    opt.http_port = http_port;
    opt.geometry = service_geometry();
    daemon_ = std::make_unique<Daemon>(std::move(opt));
    thread_ = std::thread([this] { daemon_->run(); });
    wait_until_serving();
  }

  ~DaemonHarness() {
    stop();
    fs::remove_all(state_dir_);
  }

  const std::string& state_dir() const { return state_dir_; }
  const std::string& socket() const { return daemon_->options().socket_path; }
  Daemon& daemon() { return *daemon_; }

  void stop() {
    if (thread_.joinable()) {
      daemon_->request_shutdown();
      thread_.join();
    }
  }

  /// Waits for run() to return on its own (drain/shutdown verb paths).
  void join() {
    if (thread_.joinable()) thread_.join();
  }

  Client connect() { return Client::connect_unix_socket(socket()); }

  net::Json request(net::Json req) { return connect().request(req); }

  std::string submit(const std::string& reads_path, std::size_t k,
                     std::size_t shards, std::size_t threads,
                     int priority = 0) {
    net::Json req = net::Json::object();
    req.set("verb", "submit")
        .set("reads", reads_path)
        .set("k", k)
        .set("shards", shards)
        .set("threads", threads)
        .set("priority", priority);
    const net::Json resp = request(std::move(req));
    EXPECT_TRUE(resp.get_bool("ok")) << resp.dump();
    return resp.get_string("job");
  }

  net::Json status(const std::string& id) {
    net::Json req = net::Json::object();
    req.set("verb", "status").set("job", id);
    return request(std::move(req));
  }

  net::Json wait_terminal(const std::string& id,
                     std::chrono::seconds timeout = 120s) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      const net::Json resp = status(id);
      if (resp.get_bool("ok") &&
          is_terminal(parse_job_state(resp.get_string("state"))))
        return resp;
      std::this_thread::sleep_for(20ms);
    }
    ADD_FAILURE() << "job " << id << " did not reach a terminal state";
    return status(id);
  }

  std::string fetch_fasta(const std::string& id) {
    net::Json req = net::Json::object();
    req.set("verb", "result").set("job", id).set("fetch", true);
    const net::Json resp = request(std::move(req));
    EXPECT_TRUE(resp.get_bool("ok")) << resp.dump();
    return resp.get_string("fasta");
  }

 private:
  void wait_until_serving() {
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (std::chrono::steady_clock::now() < deadline) {
      try {
        net::Json req = net::Json::object();
        req.set("verb", "ping");
        (void)Client::connect_unix_socket(socket()).request(req);
        return;
      } catch (const IoError&) {
        std::this_thread::sleep_for(5ms);
      }
    }
    FAIL() << "daemon never started serving on " << socket();
  }

  std::string state_dir_;
  std::unique_ptr<Daemon> daemon_;
  std::thread thread_;
};

/// One blocking HTTP GET against loopback `port`; returns the raw
/// response (head + body). The daemon closes after each response, so
/// read-to-EOF frames it.
std::string http_get(std::uint16_t port, const std::string& target) {
  net::ScopedFd fd = net::connect_tcp(port);
  const std::string req =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  std::size_t off = 0;
  while (off < req.size()) {
    const ssize_t n =
        ::send(fd.get(), req.data() + off, req.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError("http test send failed");
    }
    off += static_cast<std::size_t>(n);
  }
  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd.get(), chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError("http test read failed");
    }
    if (n == 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  return response;
}

std::string http_body(const std::string& response) {
  const std::size_t head_end = response.find("\r\n\r\n");
  return head_end == std::string::npos ? std::string()
                                       : response.substr(head_end + 4);
}

TEST(ServiceDaemon, HttpPlaneServesMetricsHealthzAndJobs) {
  const auto port =
      static_cast<std::uint16_t>(21000 + (::getpid() % 20000));
  DaemonHarness h("http", policy(8, 2, 6), 64, port);
  const std::string reads = h.state_dir() + "/reads.fa";
  write_small_reads(reads);
  const std::string id = h.submit(reads, 15, 8, 2);
  h.wait_terminal(id);

  const std::string health = http_get(port, "/healthz");
  EXPECT_EQ(health.substr(0, 15), "HTTP/1.1 200 OK");
  EXPECT_NE(health.find("Connection: close"), std::string::npos);
  EXPECT_EQ(http_body(health), "ok\n");

  // /metrics must be byte-identical to the NDJSON `metrics` verb — both
  // run the same deterministic fold over the same registries.
  const std::string http_metrics = http_body(http_get(port, "/metrics"));
  net::Json req = net::Json::object();
  req.set("verb", "metrics");
  const net::Json verb_resp = h.request(std::move(req));
  ASSERT_TRUE(verb_resp.get_bool("ok")) << verb_resp.dump();
  EXPECT_EQ(http_metrics, verb_resp.get_string("body"));
  EXPECT_NE(http_metrics.find("pima_reads_total"), std::string::npos);

  const std::string jobs_body = http_body(http_get(port, "/jobs"));
  const net::Json jobs = net::Json::parse(jobs_body);
  ASSERT_TRUE(jobs.get_bool("ok"));
  ASSERT_TRUE(jobs.has("jobs"));
  ASSERT_EQ(jobs.get("jobs").items().size(), 1u);
  EXPECT_EQ(jobs.get("jobs").items()[0].get_string("job"), id);

  const std::string missing = http_get(port, "/nope");
  EXPECT_EQ(missing.substr(0, 12), "HTTP/1.1 404");
}

TEST(ServiceDaemon, ThreeConcurrentJobsBitIdenticalToStandalone) {
  DaemonHarness h("concurrent", policy(8, 3, 6));
  const std::string reads = h.state_dir() + "/reads.fa";
  write_small_reads(reads);

  JobSpec spec;
  spec.reads_path = reads;
  spec.k = 15;
  spec.hash_shards = 8;
  spec.channels = 2;
  const std::string golden = golden_fasta(reads, spec);

  std::vector<std::string> ids;
  for (int i = 0; i < 3; ++i)
    ids.push_back(h.submit(reads, spec.k, spec.hash_shards, spec.channels));
  for (const auto& id : ids) {
    const net::Json final_status = h.wait_terminal(id);
    ASSERT_EQ(final_status.get_string("state"), "done") << final_status.dump();
    EXPECT_EQ(final_status.get_number("stages_done"), 3.0);
    EXPECT_EQ(h.fetch_fasta(id), golden) << "job " << id
                                         << " diverged from standalone run";
  }

  // The daemon-wide metrics fold carries every job's labelled series plus
  // the service counters.
  net::Json req = net::Json::object();
  req.set("verb", "metrics").set("format", "prometheus");
  const std::string body = h.request(std::move(req)).get_string("body");
  EXPECT_NE(body.find("pima_service_jobs_submitted_total"), std::string::npos);
  EXPECT_NE(body.find("job=\"" + ids.front() + "\""), std::string::npos);
  EXPECT_NE(body.find("job=\"" + ids.back() + "\""), std::string::npos);
}

TEST(ServiceDaemon, SubmitBeyondQueueDepthRejectedTyped) {
  // One running slot, one queue slot: the third concurrent submit must be
  // rejected synchronously with the typed admission error.
  DaemonHarness h("reject", policy(1, 1, 1));
  const std::string reads = h.state_dir() + "/reads.fa";
  write_medium_reads(reads);

  const std::string running = h.submit(reads, 17, 32, 1);
  const std::string queued = h.submit(reads, 17, 32, 1);

  net::Json req = net::Json::object();
  req.set("verb", "submit").set("reads", reads).set("k", 17).set("shards", 32);
  const net::Json rejected = h.request(std::move(req));
  EXPECT_FALSE(rejected.get_bool("ok"));
  EXPECT_EQ(rejected.get_string("error"), "AdmissionRejectedError");

  // A malformed spec is the input-format class, not admission.
  net::Json bad = net::Json::object();
  bad.set("verb", "submit").set("reads", reads).set("k", 3);
  EXPECT_EQ(h.request(std::move(bad)).get_string("error"), "InputFormatError");

  // Cancelling the queued job frees the slot and the next submit lands.
  net::Json cancel = net::Json::object();
  cancel.set("verb", "cancel").set("job", queued);
  const net::Json cancelled = h.request(std::move(cancel));
  EXPECT_TRUE(cancelled.get_bool("ok")) << cancelled.dump();
  EXPECT_EQ(cancelled.get_string("state"), "cancelled");
  const std::string retry = h.submit(reads, 17, 32, 1);
  EXPECT_FALSE(retry.empty());
  (void)running;
}

TEST(ServiceDaemon, PreconditionFailureIsNamedByTheErrorTable) {
  // The spec admits any shard count up to 4096; the pipeline needs fewer
  // hash shards than the geometry has sub-arrays. The job fails with the
  // class name the error table gives PreconditionError, the name the
  // device-worker wire uses too.
  DaemonHarness h("precondition", policy(8, 1, 2));
  const std::string reads = h.state_dir() + "/reads.fa";
  write_small_reads(reads);
  const std::string id =
      h.submit(reads, 15, service_geometry().total_subarrays(), 1);
  const net::Json final_status = h.wait_terminal(id);
  EXPECT_EQ(final_status.get_string("state"), "failed") << final_status.dump();
  EXPECT_EQ(final_status.get_string("error"), "PreconditionError")
      << final_status.dump();
}

TEST(ServiceDaemon, DrainRunsQueueDryThenStops) {
  DaemonHarness h("drain", policy(8, 1, 2));
  const std::string reads = h.state_dir() + "/reads.fa";
  write_small_reads(reads);
  const std::string a = h.submit(reads, 15, 8, 1);
  const std::string b = h.submit(reads, 15, 8, 1);

  net::Json req = net::Json::object();
  req.set("verb", "drain");
  const net::Json resp = h.request(std::move(req));
  EXPECT_TRUE(resp.get_bool("ok")) << resp.dump();
  EXPECT_TRUE(resp.get_bool("drained"));
  EXPECT_EQ(resp.get_number("done"), 2.0) << resp.dump();
  h.join();  // drain shuts the daemon down; run() must return by itself

  // Both jobs' results are durable in the state dir.
  for (const auto& id : {a, b}) {
    const JobRecord rec = load_job_record(h.state_dir() + "/jobs/" + id);
    EXPECT_EQ(rec.state, JobState::kDone);
    EXPECT_TRUE(fs::exists(h.state_dir() + "/jobs/" + id + "/contigs.fa"));
  }
}

TEST(ServiceDaemon, FollowStreamsChangesAndSurvivesEarlyHangup) {
  DaemonHarness h("follow", policy(8, 1, 2));
  const std::string reads = h.state_dir() + "/reads.fa";
  write_small_reads(reads);

  // A follower that hangs up after the first line must not wedge the
  // daemon: status writes happen with the daemon lock released, and a
  // failed write ends the follow loop.
  const std::string id = h.submit(reads, 15, 8, 1);
  {
    net::Json req = net::Json::object();
    req.set("verb", "status").set("job", id).set("follow", true);
    Client quitter = h.connect();
    (void)quitter.stream(req, [](const net::Json&) { return false; });
  }
  EXPECT_TRUE(h.status(id).get_bool("ok"));  // daemon still answering

  // A patient follower streams every observed change through to the
  // terminal state, then the daemon closes the stream.
  const std::string id2 = h.submit(reads, 15, 8, 1);
  net::Json req = net::Json::object();
  req.set("verb", "status").set("job", id2).set("follow", true);
  std::vector<std::string> states;
  const net::Json last = h.connect().stream(req, [&](const net::Json& line) {
    states.push_back(line.get_string("state"));
    return true;
  });
  EXPECT_EQ(last.get_string("state"), "done") << last.dump();
  EXPECT_EQ(last.get_number("stages_done"), 3.0);
  ASSERT_FALSE(states.empty());
  EXPECT_EQ(states.back(), "done");
}

TEST(ServiceDaemon, ConnectionCapRefusesThenReapsClosedSlots) {
  DaemonHarness h("conncap", policy(8, 1, 2), /*max_connections=*/2);
  net::Json ping = net::Json::object();
  ping.set("verb", "ping");
  {
    // Two live connections fill the cap (a completed request proves each
    // handler thread is registered, not just queued in the backlog).
    // Earlier short-lived connections — the harness's own startup ping —
    // may not be reaped yet, so retry until both clients hold slots
    // simultaneously.
    std::optional<Client> a;
    std::optional<Client> b;
    const auto setup_deadline = std::chrono::steady_clock::now() + 10s;
    for (;;) {
      try {
        a.emplace(h.connect());
        b.emplace(h.connect());
        if (a->request(ping).get_bool("ok") &&
            b->request(ping).get_bool("ok"))
          break;
      } catch (const IoError&) {
      }
      a.reset();
      b.reset();
      ASSERT_LT(std::chrono::steady_clock::now(), setup_deadline)
          << "could not occupy both connection slots";
      std::this_thread::sleep_for(5ms);
    }
    // The third is refused with the typed transport-admission error —
    // written unprompted, so read it without sending a request.
    net::ScopedFd raw = net::connect_unix(h.socket());
    net::LineChannel refused_channel(raw.get());
    std::string line;
    ASSERT_TRUE(refused_channel.read_line(line));
    const net::Json refused = net::Json::parse(line);
    EXPECT_FALSE(refused.get_bool("ok"));
    EXPECT_EQ(refused.get_string("error"), "AdmissionRejectedError");
  }
  // Both slots hung up; the accept loop reaps them (the daemon may not
  // have observed the EOFs yet, so allow a grace window) and then a
  // sequential churn of connections through the 2-slot cap all succeed —
  // slots are reclaimed, not accumulated.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  for (;;) {
    try {
      if (h.request(ping).get_bool("ok")) break;
    } catch (const IoError&) {
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "daemon never reclaimed closed connection slots";
    std::this_thread::sleep_for(5ms);
  }
  for (int i = 0; i < 10; ++i) {
    const auto retry_deadline = std::chrono::steady_clock::now() + 10s;
    for (;;) {
      bool ok = false;
      try {
        ok = h.request(ping).get_bool("ok");
      } catch (const IoError&) {
      }
      if (ok) break;
      ASSERT_LT(std::chrono::steady_clock::now(), retry_deadline)
          << "connection churn iteration " << i << " starved out";
      std::this_thread::sleep_for(5ms);
    }
  }
}

TEST(ServiceDaemon, KilledDaemonRestartResumesFromStageCheckpoint) {
  // The hardest crash: SIGKILL the whole daemon process mid-job (no
  // destructors, no flushes), restart on the same state dir, and demand
  // the job finish bit-identical to an uninterrupted standalone run.
  const std::string state_dir =
      (fs::temp_directory_path() / "pima_svc_kill").string();
  fs::remove_all(state_dir);
  fs::create_directories(state_dir);
  const std::string socket_path = state_dir + "/pima.sock";
  const std::string reads = state_dir + "/reads.fa";
  write_medium_reads(reads);

  JobSpec spec;
  spec.reads_path = reads;
  spec.k = 17;
  spec.hash_shards = 32;
  spec.channels = 2;
  const std::string golden = golden_fasta(reads, spec);

  DaemonOptions opt;
  opt.state_dir = state_dir;
  opt.socket_path = socket_path;
  opt.admission = policy(8, 1, 2);
  opt.geometry = service_geometry();

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    try {
      Daemon daemon(opt);
      daemon.run();
    } catch (...) {
    }
    _exit(42);  // only reached if the parent's SIGKILL never lands
  }

  // Submit over the socket (retry until the child daemon is up), then
  // watch the persisted record until the first stage checkpoint is
  // durable.
  std::string id;
  {
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    for (;;) {
      try {
        net::Json req = net::Json::object();
        req.set("verb", "submit")
            .set("reads", reads)
            .set("k", spec.k)
            .set("shards", spec.hash_shards)
            .set("threads", spec.channels);
        const net::Json resp =
            Client::connect_unix_socket(socket_path).request(req);
        ASSERT_TRUE(resp.get_bool("ok")) << resp.dump();
        id = resp.get_string("job");
        break;
      } catch (const IoError&) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "child daemon never came up";
        std::this_thread::sleep_for(5ms);
      }
    }
  }
  const std::string job_dir = state_dir + "/jobs/" + id;
  {
    const auto deadline = std::chrono::steady_clock::now() + 60s;
    for (;;) {
      try {
        if (load_job_record(job_dir).stages_done >= 1) break;
      } catch (const std::exception&) {
        // job.json mid-rename — retry
      }
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "job never reached its first stage checkpoint";
      std::this_thread::sleep_for(2ms);
    }
  }
  ASSERT_EQ(kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  // The record on disk must show an interrupted, non-terminal job.
  const JobRecord at_kill = load_job_record(job_dir);
  ASSERT_FALSE(is_terminal(at_kill.state))
      << "job finished before the kill — state " << to_string(at_kill.state);
  ASSERT_GE(at_kill.stages_done, 1u);

  // Restart in-process on the same state dir: recovery must re-queue the
  // job and the pipeline must resume from the snapshot, not start over.
  Daemon daemon(opt);
  std::thread runner([&] { daemon.run(); });
  std::string fasta;
  {
    const auto deadline = std::chrono::steady_clock::now() + 120s;
    for (;;) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "recovered job never finished";
      try {
        net::Json req = net::Json::object();
        req.set("verb", "status").set("job", id);
        const net::Json resp =
            Client::connect_unix_socket(socket_path).request(req);
        if (resp.get_bool("ok") &&
            is_terminal(parse_job_state(resp.get_string("state")))) {
          ASSERT_EQ(resp.get_string("state"), "done") << resp.dump();
          net::Json fetch = net::Json::object();
          fetch.set("verb", "result").set("job", id).set("fetch", true);
          fasta = Client::connect_unix_socket(socket_path)
                      .request(fetch)
                      .get_string("fasta");
          break;
        }
      } catch (const IoError&) {
        // restarted daemon still binding
      }
      std::this_thread::sleep_for(20ms);
    }
  }
  daemon.request_shutdown();
  runner.join();

  EXPECT_EQ(fasta, golden)
      << "resumed job diverged from the uninterrupted standalone run";
  fs::remove_all(state_dir);
}

}  // namespace
}  // namespace pima::service
