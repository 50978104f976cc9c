#include "service/job.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "assembly/kmer.hpp"
#include "common/error.hpp"
#include "common/fsio.hpp"

namespace pima::service {

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kAdmitted: return "admitted";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "?";
}

JobState parse_job_state(const std::string& name) {
  for (const JobState s :
       {JobState::kQueued, JobState::kAdmitted, JobState::kRunning,
        JobState::kDone, JobState::kFailed, JobState::kCancelled})
    if (name == to_string(s)) return s;
  throw InputFormatError("unknown job state '" + name + "'");
}

namespace {

// Shared clamp helper: the same bounds the CLI's typed flag validation
// enforces, so a value that passes `pima_asm submit` also passes the
// daemon and vice versa.
void check_range(const char* field, double value, double min, double max,
                 bool integral) {
  if (!std::isfinite(value) || value < min || value > max ||
      (integral && value != std::floor(value)))
    throw InputFormatError(
        std::string(field) + " must be " + (integral ? "an integer " : "") +
        "in [" + std::to_string(static_cast<long long>(min)) + ", " +
        std::to_string(static_cast<long long>(max)) + "], got " +
        std::to_string(value));
}

}  // namespace

void JobSpec::validate() const {
  if (reads_path.empty())
    throw InputFormatError("job spec: reads path must not be empty");
  check_range("k", static_cast<double>(k), 4,
              static_cast<double>(assembly::Kmer::kMaxK), true);
  check_range("shards", static_cast<double>(hash_shards), 1, 4096, true);
  check_range("threads", static_cast<double>(channels), 1, 1024, true);
  check_range("devices", static_cast<double>(devices), 1, 64, true);
  check_range("priority", priority, -1000, 1000, true);
  check_range("stall-timeout", stall_timeout_ms, 0.0, 86'400'000.0, false);
  if (isolation != "none" && isolation != "process")
    throw InputFormatError("job spec: isolation must be \"none\" or "
                           "\"process\", got \"" +
                           isolation + "\"");
}

net::Json JobSpec::to_json() const {
  net::Json j = net::Json::object();
  j.set("reads", reads_path);
  j.set("k", k);
  j.set("shards", hash_shards);
  j.set("threads", channels);
  j.set("devices", devices);
  j.set("euler", euler);
  j.set("priority", priority);
  j.set("stall_timeout_ms", stall_timeout_ms);
  j.set("isolation", isolation);
  return j;
}

JobSpec JobSpec::from_json(const net::Json& j) {
  JobSpec spec;
  spec.reads_path = j.get_string("reads");
  spec.k = static_cast<std::size_t>(j.get_number("k", 17));
  spec.hash_shards = static_cast<std::size_t>(j.get_number("shards", 16));
  spec.channels = static_cast<std::size_t>(j.get_number("threads", 1));
  spec.devices = static_cast<std::size_t>(j.get_number("devices", 1));
  spec.euler = j.get_bool("euler", false);
  spec.priority = static_cast<int>(j.get_number("priority", 0));
  spec.stall_timeout_ms = j.get_number("stall_timeout_ms", 0.0);
  // Missing (pre-isolation clients and persisted pre-isolation records)
  // defaults to in-process; a non-string value falls back the same way,
  // but a present string must name a known mode (validate below).
  spec.isolation = j.get_string("isolation", "none");
  spec.validate();
  return spec;
}

const char* JobRecord::current_stage() const {
  if (is_terminal(state)) return to_string(state);
  switch (stages_done) {
    case 0: return "hashmap";
    case 1: return "debruijn";
    case 2: return "traverse";
    default: return "finalize";
  }
}

net::Json JobRecord::to_json() const {
  net::Json j = net::Json::object();
  j.set("id", id);
  j.set("spec", spec.to_json());
  j.set("state", to_string(state));
  j.set("seq", seq);
  j.set("stages_done", static_cast<std::uint64_t>(stages_done));
  if (!idempotency_key.empty()) j.set("idempotency_key", idempotency_key);
  if (state == JobState::kFailed) {
    j.set("error_type", error_type);
    j.set("error_message", error_message);
  }
  if (state == JobState::kDone) {
    j.set("contigs", contigs);
    j.set("n50", n50);
    j.set("total_length", total_length);
    j.set("distinct_kmers", distinct_kmers);
  }
  return j;
}

JobRecord JobRecord::from_json(const net::Json& j) {
  JobRecord r;
  r.id = j.get_string("id");
  if (r.id.empty()) throw InputFormatError("job record: missing id");
  r.spec = JobSpec::from_json(j.get("spec"));
  r.state = parse_job_state(j.get_string("state"));
  // u64 counters use the exact integer accessor: total_length /
  // distinct_kmers on large inputs can exceed 2^53, where the double view
  // would silently round.
  r.seq = j.get_uint64("seq", 0);
  r.stages_done = static_cast<std::uint32_t>(j.get_uint64("stages_done", 0));
  r.idempotency_key = j.get_string("idempotency_key");
  r.error_type = j.get_string("error_type");
  r.error_message = j.get_string("error_message");
  r.contigs = j.get_uint64("contigs", 0);
  r.n50 = j.get_uint64("n50", 0);
  r.total_length = j.get_uint64("total_length", 0);
  r.distinct_kmers = j.get_uint64("distinct_kmers", 0);
  return r;
}

void save_job_record(const std::string& dir, const JobRecord& record) {
  // Torn-write-safe (tmp + fsync + rename + dir fsync) and fault-injectable:
  // chaos tests target the "job.json" site to tear state transitions.
  fsio::atomic_write_file(dir + "/job.json", record.to_json().dump() + "\n",
                          "job.json");
}

JobRecord load_job_record(const std::string& dir) {
  const std::string path = dir + "/job.json";
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return JobRecord::from_json(net::Json::parse(buf.str()));
}

}  // namespace pima::service
