#include "service/daemon.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/fsio.hpp"
#include "core/pipeline.hpp"
#include "dna/fasta.hpp"
#include "dram/device.hpp"
#include "net/http.hpp"
#include "telemetry/log.hpp"
#include "telemetry/session.hpp"

namespace pima::service {

using net::HttpRequest;
using net::http_response;
using net::read_http_request;

namespace fs = std::filesystem;

namespace {

constexpr const char* kContigsFile = "contigs.fa";

/// What a job charges against the daemon's --channel-budget: a sharded job
/// runs `devices` engines of `channels` workers each, so it occupies the
/// full product while running.
std::size_t channel_cost(const JobSpec& spec) {
  return spec.devices * spec.channels;
}

/// Idempotency keys travel in JSON and become part of job.json; keep them
/// to a safe charset and a sane length so a hostile key cannot smuggle
/// structure into logs or filenames.
void validate_idempotency_key(const std::string& key) {
  if (key.size() > 128)
    throw InputFormatError("idempotency_key exceeds 128 bytes");
  for (const char c : key) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    if (!ok)
      throw InputFormatError(
          "idempotency_key may only contain [A-Za-z0-9._-]");
  }
}

net::Json error_response(const char* type, const std::string& message) {
  net::Json j = net::Json::object();
  j.set("ok", false);
  j.set("error", std::string(type));
  j.set("message", message);
  return j;
}

}  // namespace

Daemon::Daemon(DaemonOptions options)
    : options_(std::move(options)), queue_(options_.admission) {
  if (options_.socket_path.empty())
    throw InputFormatError("daemon: socket path must not be empty");
  if (options_.state_dir.empty())
    throw InputFormatError("daemon: state dir must not be empty");
  if (options_.max_connections == 0)
    throw InputFormatError("daemon: max connections must be positive");
  options_.geometry.validate();
}

Daemon::~Daemon() {
  // run() joins everything before returning; nothing left to do here
  // unless run() was never called.
  for (auto& [id, entry] : jobs_)
    if (entry->runner.joinable()) entry->runner.join();
  // The wake pipe outlives run(): the caller detaches its signal-handler
  // pointer to this daemon after run() returns, and only then is closing
  // the fd request_shutdown() writes to safe. Swap to -1 first so a
  // handler that still fires observes an invalid fd, never a closed one.
  const int wake_write = wake_write_.exchange(-1, std::memory_order_acq_rel);
  if (wake_write >= 0) ::close(wake_write);
  if (wake_read_ >= 0) ::close(wake_read_);
}

std::string Daemon::job_dir(const std::string& id) const {
  return options_.state_dir + "/jobs/" + id;
}

void Daemon::persist(const JobEntry& entry) const {
  save_job_record(job_dir(entry.record.id), entry.record);
}

void Daemon::recover_jobs() {
  const fs::path jobs_root = fs::path(options_.state_dir) / "jobs";
  std::error_code ec;
  fs::create_directories(jobs_root, ec);
  if (ec) throw IoError("cannot create " + jobs_root.string());

  // Deterministic recovery order: sorted job ids (== submission order,
  // ids are zero-padded monotonics).
  std::vector<std::string> ids;
  for (const auto& dirent : fs::directory_iterator(jobs_root)) {
    if (!dirent.is_directory()) continue;
    if (fs::exists(dirent.path() / "job.json"))
      ids.push_back(dirent.path().filename().string());
  }
  std::sort(ids.begin(), ids.end());

  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::string& id : ids) {
    JobRecord record;
    try {
      record = load_job_record(job_dir(id));
    } catch (const std::exception& e) {
      telemetry::log_event(telemetry::LogLevel::kWarn, "job.unreadable",
                           "skipping unreadable job " + id + ": " + e.what(),
                           {telemetry::LogField::str("job", id)});
      continue;
    }
    auto entry = std::make_unique<JobEntry>();
    entry->record = std::move(record);
    entry->registry.set_default_labels({{"job", id}});
    next_seq_ = std::max(next_seq_, entry->record.seq + 1);
    if (id.size() > 1 && id[0] == 'j') {
      const std::uint64_t n = std::strtoull(id.c_str() + 1, nullptr, 10);
      next_id_ = std::max(next_id_, n + 1);
    }
    if (!is_terminal(entry->record.state)) {
      // The daemon died (or was SIGKILLed) with this job in flight. Its
      // stage checkpoints are durable; re-queue it and the pipeline's
      // resume path continues from the last snapshot.
      try {
        queue_.restore(id, entry->record.spec.priority, entry->record.seq,
                       channel_cost(entry->record.spec));
        entry->record.state = JobState::kQueued;
        service_registry_
            .counter("pima_service_jobs_recovered_total",
                     "jobs re-queued after a daemon restart", {},
                     telemetry::MetricClass::kHost)
            .increment();
      } catch (const AdmissionRejectedError& e) {
        // Daemon restarted with a smaller channel budget than this job's
        // quota: it can never run here. Typed terminal failure.
        entry->record.state = JobState::kFailed;
        entry->record.error_type = error_name(e);
        entry->record.error_message = e.what();
      }
      persist(*entry);
    }
    // Rebuild the idempotency index from the persisted records (emplace
    // keeps the first — lowest-id — job if a key somehow appears twice).
    if (!entry->record.idempotency_key.empty())
      idem_index_.emplace(entry->record.idempotency_key, id);
    jobs_.emplace(id, std::move(entry));
  }
  update_service_gauges();
}

void Daemon::update_service_gauges() {
  service_registry_
      .gauge("pima_service_queue_depth", "jobs waiting for admission", {},
             telemetry::MetricClass::kHost)
      .set(static_cast<double>(queue_.size()));
  service_registry_
      .gauge("pima_service_jobs_running", "jobs currently executing", {},
             telemetry::MetricClass::kHost)
      .set(static_cast<double>(running_jobs_));
  service_registry_
      .gauge("pima_service_channels_in_use",
             "sum of running jobs' channel quotas", {},
             telemetry::MetricClass::kHost)
      .set(static_cast<double>(used_channels_));
}

void Daemon::maybe_dispatch() {
  // Note: draining_ does NOT stop dispatch — drain means "run the queue
  // dry, then stop", so already-accepted jobs keep starting; only new
  // submits are refused. Shutdown is the opposite: stop starting work.
  while (!stopping()) {
    const std::string id = queue_.pop_admissible(running_jobs_, used_channels_);
    if (id.empty()) break;
    JobEntry& entry = *jobs_.at(id);
    entry.record.state = JobState::kAdmitted;
    persist(entry);
    ++running_jobs_;
    used_channels_ += channel_cost(entry.record.spec);
    if (entry.runner.joinable()) entry.runner.join();  // prior incarnation
    entry.runner = std::thread([this, &entry] { run_job(entry); });
  }
  update_service_gauges();
  cv_.notify_all();
}

void Daemon::run_job(JobEntry& entry) {
  const std::string dir = job_dir(entry.record.id);
  JobSpec spec;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    entry.record.state = JobState::kRunning;
    persist(entry);
    spec = entry.record.spec;
    cv_.notify_all();
  }

  try {
    // Every metric the pipeline/engine registers from this thread (and
    // from the engine's worker/watchdog threads, which inherit the
    // override) lands in the job's own registry, tagged {job="<id>"}.
    telemetry::ScopedMetricsRegistry scope(&entry.registry);

    const auto reads = [&] {
      const auto records = dna::read_fasta_file(spec.reads_path);
      std::vector<dna::Sequence> seqs;
      seqs.reserve(records.size());
      for (const auto& r : records) seqs.push_back(r.seq);
      return seqs;
    }();

    dram::Device device(options_.geometry);
    core::PipelineOptions opt;
    opt.k = spec.k;
    opt.hash_shards = spec.hash_shards;
    opt.euler_contigs = spec.euler;
    opt.threads = spec.channels;
    opt.devices = spec.devices;
    // "process" isolation: the job's device shards run in pima_devd
    // children of the daemon; a crashing shard is restarted (or the job
    // degrades to in-process) instead of taking the daemon down.
    opt.isolate = spec.isolation == "process";
    opt.stall_timeout_ms = spec.stall_timeout_ms;
    opt.checkpoint_dir = dir;
    opt.resume = true;  // continue from any durable stage snapshot
    opt.cancel = &entry.cancel;
    opt.on_checkpoint = [this, &entry](std::uint32_t stage,
                                       const std::string&) {
      std::lock_guard<std::mutex> lock(mutex_);
      entry.record.stages_done = std::max(entry.record.stages_done, stage);
      persist(entry);
      cv_.notify_all();
    };

    const auto result = core::run_pipeline(device, reads, opt);

    std::vector<dna::Record> records;
    records.reserve(result.contigs.size());
    for (std::size_t i = 0; i < result.contigs.size(); ++i)
      records.push_back({"contig_" + std::to_string(i), result.contigs[i]});
    dna::write_fasta_file(dir + "/" + kContigsFile, records);

    std::lock_guard<std::mutex> lock(mutex_);
    entry.record.state = JobState::kDone;
    entry.record.stages_done = 3;
    entry.record.contigs = result.contig_stats.count;
    entry.record.n50 = result.contig_stats.n50;
    entry.record.total_length = result.contig_stats.total_length;
    entry.record.distinct_kmers = result.distinct_kmers;
    persist(entry);
  } catch (const CancelledError&) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (entry.requeue_on_cancel) {
      // Shutdown-path cancellation: the job did nothing wrong. Back to
      // queued; the next daemon start resumes it from its checkpoints.
      entry.record.state = JobState::kQueued;
    } else {
      entry.record.state = JobState::kCancelled;
    }
    persist(entry);
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(mutex_);
    entry.record.state = JobState::kFailed;
    entry.record.error_type = error_name(e);
    entry.record.error_message = e.what();
    persist(entry);
  }

  std::lock_guard<std::mutex> lock(mutex_);
  service_registry_
      .counter("pima_service_jobs_finished_total",
               "jobs that reached a terminal state (or were re-queued by "
               "shutdown), by state",
               {{"state", to_string(entry.record.state)}},
               telemetry::MetricClass::kHost)
      .increment();
  --running_jobs_;
  used_channels_ -= channel_cost(entry.record.spec);
  maybe_dispatch();  // a finished job may unblock the queue head
}

net::Json Daemon::status_json(const JobEntry& entry) const {
  net::Json j = net::Json::object();
  j.set("ok", true);
  j.set("job", entry.record.id);
  j.set("state", std::string(to_string(entry.record.state)));
  j.set("stage", std::string(entry.record.current_stage()));
  j.set("stages_done", static_cast<std::uint64_t>(entry.record.stages_done));
  j.set("priority", entry.record.spec.priority);
  if (entry.record.state == JobState::kFailed) {
    j.set("error", entry.record.error_type);
    j.set("message", entry.record.error_message);
  }
  if (entry.record.state == JobState::kDone) {
    j.set("contigs", entry.record.contigs);
    j.set("n50", entry.record.n50);
    j.set("total_length", entry.record.total_length);
    j.set("distinct_kmers", entry.record.distinct_kmers);
  }
  return j;
}

net::Json Daemon::verb_submit(const net::Json& request) {
  const JobSpec spec = JobSpec::from_json(request);  // validates
  const std::string idem_key = request.get_string("idempotency_key");
  validate_idempotency_key(idem_key);
  std::lock_guard<std::mutex> lock(mutex_);
  service_registry_
      .counter("pima_service_jobs_submitted_total", "submit verbs received",
               {}, telemetry::MetricClass::kHost)
      .increment();
  if (!idem_key.empty()) {
    // Idempotent submit: a key the daemon has already accepted (this
    // incarnation or a recovered one) returns the original job instead of
    // creating a duplicate — even while draining, since the work was
    // already admitted. The client's retry loop relies on this.
    const auto hit = idem_index_.find(idem_key);
    if (hit != idem_index_.end()) {
      service_registry_
          .counter("pima_service_submits_deduped_total",
                   "submits answered by an existing job via idempotency_key",
                   {}, telemetry::MetricClass::kHost)
          .increment();
      net::Json response = status_json(*jobs_.at(hit->second));
      response.set("deduped", true);
      return response;
    }
  }
  const auto reject = [this](const std::string& message) {
    service_registry_
        .counter("pima_service_jobs_rejected_total",
                 "submits refused by admission control", {},
                 telemetry::MetricClass::kHost)
        .increment();
    throw AdmissionRejectedError(message);
  };
  if (draining_ || stopping()) reject("daemon is draining; not accepting jobs");

  char id_buf[16];
  std::snprintf(id_buf, sizeof(id_buf), "j%04llu",
                static_cast<unsigned long long>(next_id_));
  const std::string id = id_buf;
  const std::uint64_t seq = next_seq_;
  try {
    queue_.push(id, spec.priority, seq, channel_cost(spec));
  } catch (const AdmissionRejectedError& e) {
    reject(e.what());
  }
  ++next_id_;
  ++next_seq_;

  auto entry = std::make_unique<JobEntry>();
  entry->record.id = id;
  entry->record.spec = spec;
  entry->record.state = JobState::kQueued;
  entry->record.seq = seq;
  entry->record.idempotency_key = idem_key;
  entry->registry.set_default_labels({{"job", id}});

  std::error_code ec;
  fs::create_directories(job_dir(id), ec);
  if (ec) {
    queue_.remove(id);
    throw IoError("cannot create job dir " + job_dir(id));
  }
  persist(*entry);  // key lands in job.json BEFORE the index — crash-safe
  if (!idem_key.empty()) idem_index_.emplace(idem_key, id);
  net::Json response = status_json(*entry);
  jobs_.emplace(id, std::move(entry));
  maybe_dispatch();
  return response;
}

net::Json Daemon::verb_status(const net::Json& request,
                              net::LineChannel& channel, bool& close) {
  const std::string id = request.get_string("job");
  const bool follow = request.get_bool("follow", false);
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end())
    return error_response("NotFound", "no such job: " + id);
  if (!follow) return status_json(*it->second);

  // Streaming status: one line per observed change, final line is the
  // terminal state (or the latest state if the daemon stops first), then
  // the connection closes — a client can `submit` + `status --follow` and
  // block until completion.
  //
  // Every write happens with mutex_ RELEASED: write_line blocks when the
  // peer stops draining its socket, and a slow follow client must not be
  // able to wedge the daemon-wide lock (every verb, job state transition,
  // and graceful shutdown acquires it). The snapshot is taken under the
  // lock, the bytes go out without it. A failed write means the client is
  // gone; stop following. Entry pointers are stable (jobs_ never erases),
  // so holding `entry` across the unlock window is safe.
  JobEntry& entry = *it->second;
  const auto send_unlocked = [&](const std::string& snapshot) {
    lock.unlock();
    bool sent = true;
    try {
      channel.write_line(snapshot);
    } catch (const std::exception&) {
      sent = false;
    }
    lock.lock();
    return sent;
  };
  JobState last_state = entry.record.state;
  std::uint32_t last_stages = entry.record.stages_done;
  bool client_alive = send_unlocked(status_json(entry).dump());
  while (client_alive && !is_terminal(entry.record.state) && !stopping()) {
    cv_.wait_for(lock, std::chrono::milliseconds(200));
    if (entry.record.state != last_state ||
        entry.record.stages_done != last_stages) {
      last_state = entry.record.state;
      last_stages = entry.record.stages_done;
      client_alive = send_unlocked(status_json(entry).dump());
    }
  }
  if (client_alive && (entry.record.state != last_state ||
                       entry.record.stages_done != last_stages))
    send_unlocked(status_json(entry).dump());
  close = true;
  return net::Json();  // null sentinel: responses already streamed
}

net::Json Daemon::verb_result(const net::Json& request) {
  const std::string id = request.get_string("job");
  const bool fetch = request.get_bool("fetch", false);
  std::string contigs_path;
  net::Json response;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
      return error_response("NotFound", "no such job: " + id);
    const JobEntry& entry = *it->second;
    if (entry.record.state != JobState::kDone) {
      net::Json err = error_response(
          "JobNotDone", "job " + id + " is " + to_string(entry.record.state));
      err.set("state", std::string(to_string(entry.record.state)));
      return err;
    }
    response = status_json(entry);
    contigs_path = job_dir(id) + "/" + kContigsFile;
    response.set("contigs_path", contigs_path);
  }
  if (fetch) {
    std::ifstream in(contigs_path, std::ios::binary);
    if (!in) throw IoError("cannot open " + contigs_path);
    std::ostringstream buf;
    buf << in.rdbuf();
    response.set("fasta", buf.str());
  }
  return response;
}

net::Json Daemon::verb_cancel(const net::Json& request) {
  const std::string id = request.get_string("job");
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end())
    return error_response("NotFound", "no such job: " + id);
  JobEntry& entry = *it->second;
  if (queue_.remove(id)) {
    entry.record.state = JobState::kCancelled;
    persist(entry);
    service_registry_
        .counter("pima_service_jobs_finished_total",
                 "jobs that reached a terminal state (or were re-queued by "
                 "shutdown), by state",
                 {{"state", to_string(entry.record.state)}},
                 telemetry::MetricClass::kHost)
        .increment();
    update_service_gauges();
    cv_.notify_all();
  } else if (!is_terminal(entry.record.state)) {
    // Running (or admitted): cooperative — the pipeline raises
    // CancelledError at its next cancellation point.
    entry.cancel.request("cancel verb");
  }
  return status_json(entry);
}

net::Json Daemon::verb_list() const {
  std::lock_guard<std::mutex> lock(mutex_);
  net::Json arr = net::Json::array();
  for (const auto& [id, entry] : jobs_) arr.push_back(status_json(*entry));
  net::Json j = net::Json::object();
  j.set("ok", true);
  j.set("jobs", arr);
  return j;
}

std::string Daemon::aggregate_metrics(bool as_json) {
  telemetry::MetricsRegistry aggregate;
  std::lock_guard<std::mutex> lock(mutex_);
  aggregate.merge_from(service_registry_);
  for (const auto& [id, entry] : jobs_) aggregate.merge_from(entry->registry);
  // Fold the fsio shim's process-wide injection counters. common/ sits
  // below telemetry/, so fsio keeps plain atomics; publishing absolute
  // snapshots into this per-call fresh registry preserves counter
  // semantics. dirsync_failed also counts REAL failures (filesystems that
  // reject directory fsync), plan or no plan — satellite 3.
  const fsio::Counters io = fsio::counters();
  const auto fold = [&](const char* name, const char* help,
                        std::uint64_t value) {
    aggregate
        .counter(name, help, {}, telemetry::MetricClass::kHost)
        .add(static_cast<double>(value));
  };
  fold("pima_io_fault_injected_total",
       "syscall faults injected by the fsio shim (all kinds)",
       io.injected_total);
  fold("pima_io_fault_errno_total", "injected hard errno failures",
       io.errno_injected);
  fold("pima_io_fault_eintr_total", "injected EINTR interruptions",
       io.eintr_injected);
  fold("pima_io_fault_short_total", "injected short reads/writes",
       io.short_injected);
  fold("pima_io_fault_crash_points_total",
       "torn-write crash points taken (counted just before _exit)",
       io.crash_points);
  fold("pima_io_fault_dirsync_failed_total",
       "directory fsyncs that failed after a rename (real or injected)",
       io.dirsync_failed);
  return as_json ? aggregate.json_snapshot() : aggregate.prometheus_text();
}

net::Json Daemon::verb_metrics(const net::Json& request) {
  const std::string format = request.get_string("format", "prometheus");
  net::Json j = net::Json::object();
  j.set("ok", true);
  j.set("format", format);
  if (format == "prometheus") {
    j.set("body", aggregate_metrics(false));
  } else if (format == "json") {
    j.set("body", aggregate_metrics(true));
  } else {
    throw InputFormatError("unknown metrics format '" + format +
                           "' (prometheus|json)");
  }
  return j;
}

net::Json Daemon::verb_drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  draining_ = true;
  cv_.wait(lock, [this] {
    return (queue_.empty() && running_jobs_ == 0) || stopping();
  });
  net::Json j = net::Json::object();
  j.set("ok", true);
  j.set("drained", queue_.empty() && running_jobs_ == 0);
  std::uint64_t done = 0, failed = 0, cancelled = 0;
  for (const auto& [id, entry] : jobs_) {
    switch (entry->record.state) {
      case JobState::kDone: ++done; break;
      case JobState::kFailed: ++failed; break;
      case JobState::kCancelled: ++cancelled; break;
      default: break;
    }
  }
  j.set("done", done);
  j.set("failed", failed);
  j.set("cancelled", cancelled);
  return j;
}

bool Daemon::dispatch_verb(const net::Json& request,
                           net::LineChannel& channel) {
  std::string verb;
  net::Json response;
  bool close = false;
  try {
    verb = request.get_string("verb");
    if (verb.empty())
      throw InputFormatError("request is missing the 'verb' field");
    if (verb == "ping") {
      response = net::Json::object();
      response.set("ok", true);
      response.set("service", std::string("pima_asm"));
      response.set("protocol", static_cast<std::int64_t>(1));
    } else if (verb == "submit") {
      response = verb_submit(request);
    } else if (verb == "status") {
      response = verb_status(request, channel, close);
    } else if (verb == "result") {
      response = verb_result(request);
    } else if (verb == "cancel") {
      response = verb_cancel(request);
    } else if (verb == "list") {
      response = verb_list();
    } else if (verb == "metrics") {
      response = verb_metrics(request);
    } else if (verb == "drain") {
      // Reply before signaling shutdown — the shutdown path SHUT_RDWRs
      // every connection, and the client must still see this response.
      channel.write_line(verb_drain().dump());
      request_shutdown();
      return false;
    } else if (verb == "shutdown") {
      response = net::Json::object();
      response.set("ok", true);
      response.set("stopping", true);
      channel.write_line(response.dump());
      request_shutdown();
      return false;
    } else {
      throw InputFormatError("unknown verb '" + verb + "'");
    }
  } catch (const std::exception& e) {
    response = error_response(error_name(e), e.what());
  }
  if (response.type() != net::Json::Type::kNull)
    channel.write_line(response.dump());
  return !close;
}

void Daemon::handle_connection(ConnSlot* slot) {
  net::LineChannel channel(slot->fd.load(std::memory_order_acquire));
  std::string line;
  try {
    while (channel.read_line(line)) {
      if (line.empty()) continue;
      net::Json request;
      try {
        request = net::Json::parse(line);
      } catch (const std::exception& e) {
        channel.write_line(
            error_response("InputFormatError", e.what()).dump());
        continue;
      }
      if (!dispatch_verb(request, channel)) break;
    }
  } catch (const std::exception&) {
    // Peer vanished mid-write or abused the protocol; drop the connection.
  }
  // The slot owns the fd; retract it and close under conn_mutex_ so the
  // shutdown sweep's ::shutdown() can never race this close and hit a
  // recycled descriptor.
  std::lock_guard<std::mutex> lock(conn_mutex_);
  const int fd = slot->fd.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::close(fd);
}

void Daemon::handle_http(ConnSlot* slot) {
  const int conn_fd = slot->fd.load(std::memory_order_acquire);
  try {
    HttpRequest request;
    // A scraper that connects and stalls must not pin a slot forever.
    if (read_http_request(conn_fd, request, /*timeout_s=*/10.0)) {
      std::string response;
      if (request.method != "GET" && request.method != "HEAD") {
        response = http_response(405, "text/plain; charset=utf-8",
                                 "only GET is served here\n");
      } else if (request.target == "/metrics") {
        // Byte-identical to the `metrics` verb's prometheus body: both
        // call the same deterministic fold.
        response = http_response(200,
                                 "text/plain; version=0.0.4; charset=utf-8",
                                 aggregate_metrics(/*as_json=*/false));
      } else if (request.target == "/healthz") {
        response = http_response(200, "text/plain; charset=utf-8",
                                 stopping() ? "draining\n" : "ok\n");
      } else if (request.target == "/jobs") {
        response = http_response(200, "application/json",
                                 verb_list().dump() + "\n");
      } else {
        response = http_response(404, "text/plain; charset=utf-8",
                                 "not found (try /metrics, /healthz, "
                                 "/jobs)\n");
      }
      if (request.method == "HEAD") {
        const std::size_t head_end = response.find("\r\n\r\n");
        if (head_end != std::string::npos) response.resize(head_end + 4);
      }
      std::size_t off = 0;
      while (off < response.size()) {
        const ssize_t n = fsio::send(conn_fd, response.data() + off,
                                     response.size() - off, MSG_NOSIGNAL,
                                     "http");
        if (n < 0) {
          if (errno == EINTR) continue;
          break;  // peer gone; nothing to salvage
        }
        off += static_cast<std::size_t>(n);
      }
    }
  } catch (const std::exception&) {
    // Malformed request, deadline, or a vanished peer: drop it.
  }
  std::lock_guard<std::mutex> lock(conn_mutex_);
  const int fd = slot->fd.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::close(fd);
}

void Daemon::reap_connections() {
  // Harvest slots whose connection thread is done (fd already retracted
  // to -1 under conn_mutex_, so nothing but the thread's return remains);
  // join outside the lock. Called from the accept loop, keeping the live
  // slot count bounded by the actual number of open connections.
  std::vector<std::unique_ptr<ConnSlot>> finished;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    auto it = connections_.begin();
    while (it != connections_.end()) {
      if ((*it)->fd.load(std::memory_order_acquire) < 0) {
        finished.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& slot : finished)
    if (slot->thread.joinable()) slot->thread.join();
}

void Daemon::request_shutdown() {
  // Async-signal-safe: errno save/restore, atomic ops, write(2) — nothing
  // else. wake_write_ stays valid until the destructor, after the caller
  // has detached any signal-handler pointer to this daemon.
  const int saved_errno = errno;
  shutdown_requested_.store(true, std::memory_order_release);
  const int fd = wake_write_.load(std::memory_order_acquire);
  if (fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
  errno = saved_errno;
}

void Daemon::run() {
  // Metric recording is gated process-wide; the daemon always collects
  // (that's half its point — a /metrics endpoint over every job). Which
  // registry a sample lands in is per-thread (ScopedMetricsRegistry).
  telemetry::TelemetrySession::instance().enable_metrics();
  recover_jobs();

  int wake_pipe[2] = {-1, -1};
  if (::pipe(wake_pipe) != 0) throw IoError("cannot create wake pipe");
  wake_read_ = wake_pipe[0];
  wake_write_.store(wake_pipe[1], std::memory_order_release);

  net::ScopedFd unix_listener = net::listen_unix(options_.socket_path);
  net::ScopedFd tcp_listener;
  if (options_.tcp_port != 0) tcp_listener = net::listen_tcp(options_.tcp_port);
  net::ScopedFd http_listener;
  if (options_.http_port != 0)
    http_listener = net::listen_tcp(options_.http_port);

  {
    // Recovered jobs may start immediately.
    std::lock_guard<std::mutex> lock(mutex_);
    maybe_dispatch();
  }

  while (!stopping()) {
    struct pollfd fds[4];
    fds[0] = {wake_read_, POLLIN, 0};
    fds[1] = {unix_listener.get(), POLLIN, 0};
    nfds_t nfds = 2;
    if (tcp_listener.valid()) fds[nfds++] = {tcp_listener.get(), POLLIN, 0};
    if (http_listener.valid()) fds[nfds++] = {http_listener.get(), POLLIN, 0};

    if (::poll(fds, nfds, -1) < 0) {
      if (errno == EINTR) continue;
      throw IoError("poll failed on the daemon listeners");
    }
    if ((fds[0].revents & POLLIN) != 0) break;  // request_shutdown woke us

    for (nfds_t i = 1; i < nfds; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      net::ScopedFd conn = net::accept_connection(fds[i].fd);
      if (!conn.valid()) continue;
      reap_connections();
      bool at_cap = false;
      {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        at_cap = connections_.size() >= options_.max_connections;
      }
      if (at_cap) {
        // Transport-level admission control: refuse with a typed error
        // line (best effort — the peer may already be gone) and close.
        try {
          net::LineChannel refuse(conn.get());
          refuse.write_line(
              error_response("AdmissionRejectedError",
                             "too many concurrent connections")
                  .dump());
        } catch (const std::exception&) {
        }
        continue;
      }
      auto slot = std::make_unique<ConnSlot>();
      ConnSlot* raw = slot.get();
      raw->fd.store(conn.release(), std::memory_order_release);
      {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        connections_.push_back(std::move(slot));
      }
      // HTTP connections share the slot machinery (cap, shutdown sweep,
      // reaping) with NDJSON ones; only the protocol handler differs.
      const bool is_http =
          http_listener.valid() && fds[i].fd == http_listener.get();
      raw->thread = std::thread([this, raw, is_http] {
        is_http ? handle_http(raw) : handle_connection(raw);
      });
    }
  }

  // ---- graceful shutdown ----
  // 1. Stop accepting; wake every waiter (follow watchers, drain).
  unix_listener = net::ScopedFd();
  tcp_listener = net::ScopedFd();
  http_listener = net::ScopedFd();
  cv_.notify_all();

  // 2. Cancel running jobs in shutdown mode: they persist back to
  //    `queued` and resume from their stage checkpoints on next start.
  //    Entry pointers are stable (map of unique_ptr, never erased), so the
  //    join loop can run unlocked — run_job itself needs the mutex to
  //    finish. No new runners start after the flag (maybe_dispatch checks
  //    stopping() under the same lock).
  std::vector<JobEntry*> to_join;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [id, entry] : jobs_) {
      if (entry->record.state == JobState::kAdmitted ||
          entry->record.state == JobState::kRunning) {
        entry->requeue_on_cancel = true;
        entry->cancel.request("daemon shutdown");
      }
      to_join.push_back(entry.get());
    }
  }
  for (JobEntry* entry : to_join)
    if (entry->runner.joinable()) entry->runner.join();

  // 3. Unblock idle connections (blocked in read) and join their threads.
  //    The shutdown() runs under conn_mutex_, the same lock each thread
  //    closes its fd under — it can never hit a closed/recycled fd.
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (auto& slot : connections_) {
      const int fd = slot->fd.load(std::memory_order_acquire);
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    }
  }
  for (auto& slot : connections_)
    if (slot->thread.joinable()) slot->thread.join();

  // The wake pipe deliberately stays open (the destructor closes it): a
  // signal handler may still call request_shutdown() until the caller
  // detaches its pointer to this daemon, which only happens after run()
  // returns.
  ::unlink(options_.socket_path.c_str());
}

}  // namespace pima::service
