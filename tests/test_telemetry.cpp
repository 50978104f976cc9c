// Tests of the telemetry subsystem: metric semantics (Prometheus
// upper-inclusive buckets, quantiles, deterministic merges), trace
// recording and Chrome JSON export well-formedness, session flush sinks,
// and the headline contract — the model-class metrics snapshot is
// bit-identical for any --threads.
#include <gtest/gtest.h>

#include <csignal>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/pipeline.hpp"
#include "dna/genome.hpp"
#include "runtime/engine.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/log.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/session.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace pima::telemetry {
namespace {

// ---- minimal JSON validator ----
//
// Recursive-descent checker for RFC 8259 structure: objects, arrays,
// strings with escapes, numbers, literals. Enough to prove the exporters
// emit well-formed JSON without an external parser.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') return ++pos_, true;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(s_[pos_])) return false;
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character
      }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() && std::isdigit(s_[pos_])) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (pos_ < s_.size() && std::isdigit(s_[pos_])) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (pos_ < s_.size() && std::isdigit(s_[pos_])) ++pos_;
    }
    return pos_ > start && std::isdigit(s_[pos_ - 1]);
  }
  bool literal(const char* word) {
    const std::size_t n = std::char_traits<char>::length(word);
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

bool json_ok(const std::string& text) { return JsonChecker(text).valid(); }

std::string temp_path(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir ? dir : "/tmp") + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(JsonChecker, SelfTest) {
  EXPECT_TRUE(json_ok(R"({"a":[1,2.5,-3e8],"b":"x\né","c":null})"));
  EXPECT_FALSE(json_ok(R"({"a":1)"));
  EXPECT_FALSE(json_ok(R"({"a":1}trailing)"));
  EXPECT_FALSE(json_ok(R"({"a":01x})"));
  EXPECT_FALSE(json_ok("{\"a\":\"\x01\"}"));
}

// ---- metrics ----

TEST(Metrics, CounterAndGaugeBasics) {
  MetricsRegistry reg;
  auto& c = reg.counter("pima_test_total", "help");
  c.increment();
  c.add(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  // Same (name, labels) returns the same handle.
  EXPECT_EQ(&reg.counter("pima_test_total", "help"), &c);
  // Different labels are a distinct instance.
  auto& c2 = reg.counter("pima_test_total", "help", {{"stage", "hashmap"}});
  EXPECT_NE(&c2, &c);
  EXPECT_DOUBLE_EQ(c2.value(), 0.0);

  auto& g = reg.gauge("pima_test_gauge", "help");
  g.set(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
  EXPECT_EQ(reg.size(), 3u);
  reg.clear();
  EXPECT_EQ(reg.size(), 0u);
}

TEST(Metrics, HistogramBucketsAreUpperInclusive) {
  Histogram h({1.0, 10.0, 100.0});
  // Prometheus `le` semantics: a value equal to a bound lands in that
  // bound's bucket, not the next one.
  h.observe(1.0);
  h.observe(10.0);
  h.observe(10.0001);
  h.observe(100.0);
  h.observe(1000.0);  // +Inf overflow bucket
  EXPECT_EQ(h.bucket_count(0), 1u);  // le=1
  EXPECT_EQ(h.bucket_count(1), 1u);  // le=10
  EXPECT_EQ(h.bucket_count(2), 2u);  // le=100
  EXPECT_EQ(h.bucket_count(3), 1u);  // +Inf
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 1.0 + 10.0 + 10.0001 + 100.0 + 1000.0);
}

TEST(Metrics, HistogramQuantiles) {
  Histogram h({10.0, 20.0, 30.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty
  for (int i = 0; i < 10; ++i) h.observe(5.0);    // le=10
  for (int i = 0; i < 10; ++i) h.observe(15.0);   // le=20
  // Median sits at the boundary of the first bucket.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);
  // Quantiles interpolate linearly inside the covering bucket.
  EXPECT_GT(h.quantile(0.75), 10.0);
  EXPECT_LT(h.quantile(0.75), 20.0);
  // +Inf bucket clamps to the largest finite bound.
  h.observe(1e9);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 30.0);
}

TEST(Metrics, MergeIsDeterministicFold) {
  // Shards folded in index order must reproduce the serial registry
  // bit-for-bit — same discipline as runtime::reduce_parallel.
  MetricsRegistry serial;
  serial.counter("pima_x_total", "h").add(6.0);
  serial.gauge("pima_g", "h").set(5.0);
  auto& sh = serial.histogram("pima_h_ns", "h", {1.0, 2.0});
  sh.observe(0.5);
  sh.observe(1.5);
  sh.observe(9.0);

  MetricsRegistry a, b, merged;
  a.counter("pima_x_total", "h").add(2.0);
  b.counter("pima_x_total", "h").add(4.0);
  a.gauge("pima_g", "h").set(5.0);
  b.gauge("pima_g", "h").set(3.0);  // merge takes the max
  a.histogram("pima_h_ns", "h", {1.0, 2.0}).observe(0.5);
  auto& bh = b.histogram("pima_h_ns", "h", {1.0, 2.0});
  bh.observe(1.5);
  bh.observe(9.0);
  merged.merge_from(a);
  merged.merge_from(b);
  EXPECT_EQ(merged.json_snapshot(), serial.json_snapshot());
  EXPECT_EQ(merged.prometheus_text(), serial.prometheus_text());
}

TEST(Metrics, PrometheusTextExposition) {
  MetricsRegistry reg;
  reg.counter("pima_cmds_total", "Commands issued", {{"stage", "hashmap"}})
      .add(3.0);
  reg.gauge("pima_depth", "Queue depth").set(2.0);
  auto& h = reg.histogram("pima_lat_ns", "Latency", {10.0, 100.0});
  h.observe(5.0);
  h.observe(50.0);
  h.observe(500.0);
  const auto text = reg.prometheus_text();
  EXPECT_NE(text.find("# HELP pima_cmds_total Commands issued"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE pima_cmds_total counter"), std::string::npos);
  EXPECT_NE(text.find("pima_cmds_total{stage=\"hashmap\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE pima_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pima_lat_ns histogram"), std::string::npos);
  // Buckets are cumulative and end with +Inf == _count. Bounds render via
  // the shortest-precision %g probe, so 10 is "1e+01".
  EXPECT_NE(text.find("pima_lat_ns_bucket{le=\"1e+01\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("pima_lat_ns_bucket{le=\"1e+02\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("pima_lat_ns_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("pima_lat_ns_count 3"), std::string::npos);
  EXPECT_NE(text.find("pima_lat_ns_sum 555"), std::string::npos);
}

TEST(Metrics, JsonSnapshotIsWellFormedAndClassFiltered) {
  MetricsRegistry reg;
  reg.counter("pima_model_total", "m", {}, MetricClass::kModel).add(1.0);
  reg.counter("pima_host_total", "h", {}, MetricClass::kHost).add(1.0);
  reg.histogram("pima_hist_ns", "h", {1.0}, {{"channel", "0"}}).observe(0.5);
  const auto full = reg.json_snapshot();
  const auto model = reg.json_snapshot(/*model_only=*/true);
  EXPECT_TRUE(json_ok(full)) << full;
  EXPECT_TRUE(json_ok(model)) << model;
  EXPECT_NE(full.find("pima_host_total"), std::string::npos);
  EXPECT_EQ(model.find("pima_host_total"), std::string::npos);
  EXPECT_NE(model.find("pima_model_total"), std::string::npos);
}

TEST(Metrics, BreakdownMetricsMatchBreakdownExactly) {
  dram::CommandStats stats;
  stats.counts[static_cast<std::size_t>(dram::CommandKind::kAapCopy)] = 7;
  stats.counts[static_cast<std::size_t>(dram::CommandKind::kRowWrite)] = 3;
  const auto tech = circuit::default_technology();
  const auto breakdown = dram::breakdown_from_stats(stats, 256, tech);
  MetricsRegistry reg;
  add_breakdown_metrics(reg, breakdown);
  double energy = 0.0, time_ns = 0.0, count = 0.0;
  for (const auto& row : breakdown.rows) {
    const Labels labels = {{"kind", std::string(to_string(row.kind))}};
    count += reg.counter("pima_dram_commands_total", "", labels).value();
    energy += reg.counter("pima_dram_energy_pj_total", "", labels).value();
    time_ns += reg.counter("pima_dram_time_ns_total", "", labels).value();
  }
  EXPECT_DOUBLE_EQ(count, 10.0);
  EXPECT_DOUBLE_EQ(energy, breakdown.total_energy_pj);
  EXPECT_DOUBLE_EQ(time_ns, breakdown.total_time_ns);
}

// ---- tracer ----

TEST(Tracer, RecordsSpansInstantsAndCounters) {
  Tracer t;
  t.enable();
  t.set_thread_track(0);
  t.set_track_name(0, "main");
  t.set_track_name(1, "channel 1");
  const auto start = t.now_ns();
  t.record_complete("stage:hashmap", start, 1000, "shards", 8.0);
  t.record_instant("fault:detected");
  t.record_instant("stall", 1);  // cross-track: watchdog marks a channel
  t.record_counter("queue depth", 3.0, 1);
  t.disable();
  EXPECT_EQ(t.event_count(), 4u);
  const auto json = t.chrome_json();
  EXPECT_TRUE(json_ok(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("stage:hashmap"), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  // Counter tracks are disambiguated per channel.
  EXPECT_NE(json.find("queue depth [channel 1]"), std::string::npos);
  // Thread-name metadata for Perfetto track labels.
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"main\""), std::string::npos);
}

TEST(Tracer, DisabledRecordingIsANoOp) {
  Tracer t;
  t.record_complete("x", 0, 1);
  t.record_instant("y");
  t.record_counter("z", 1.0, 0);
  EXPECT_EQ(t.event_count(), 0u);
  EXPECT_TRUE(json_ok(t.chrome_json()));
}

TEST(Tracer, OverflowDropsNewestAndCounts) {
  Tracer t;
  t.enable(/*events_per_thread=*/4);
  for (int i = 0; i < 10; ++i) t.record_instant("e");
  t.disable();
  EXPECT_EQ(t.event_count(), 4u);
  EXPECT_EQ(t.dropped_count(), 6u);
  EXPECT_TRUE(json_ok(t.chrome_json()));
}

TEST(Tracer, ClearSurvivesReuse) {
  Tracer t;
  t.enable();
  t.record_instant("first");
  t.clear();
  EXPECT_EQ(t.event_count(), 0u);
  // The thread-local buffer pointer from before clear() must not be
  // reused: re-enabling re-registers via the generation counter.
  t.enable();
  t.record_instant("second");
  EXPECT_EQ(t.event_count(), 1u);
  EXPECT_NE(t.chrome_json().find("second"), std::string::npos);
  t.disable();
  t.clear();
}

TEST(Tracer, EventsFromWorkerThreadsAreMerged) {
  Tracer t;
  t.enable();
  std::vector<std::thread> workers;
  for (std::uint32_t w = 0; w < 4; ++w) {
    workers.emplace_back([&t, w] {
      t.set_thread_track(w + 1);
      for (int i = 0; i < 100; ++i) t.record_instant("tick");
    });
  }
  for (auto& th : workers) th.join();
  t.disable();
  EXPECT_EQ(t.event_count(), 400u);
  EXPECT_EQ(t.dropped_count(), 0u);
  EXPECT_TRUE(json_ok(t.chrome_json()));
}

TEST(Tracer, ScopedSpanRecordsOnDestruction) {
  auto& session = TelemetrySession::instance();
  session.reset();
  session.tracer().enable();
  { ScopedSpan span("scoped:work", "items", 3.0); }
  session.tracer().disable();
  EXPECT_EQ(session.tracer().event_count(), 1u);
  const auto json = session.tracer().chrome_json();
  EXPECT_NE(json.find("scoped:work"), std::string::npos);
  EXPECT_NE(json.find("\"items\""), std::string::npos);
  session.reset();
}

// ---- session ----

TEST(Session, FlushWritesAllConfiguredSinks) {
  auto& session = TelemetrySession::instance();
  session.reset();
  const auto trace_path = temp_path("tel_trace.json");
  const auto metrics_path = temp_path("tel_metrics.prom");
  session.set_trace_path(trace_path);
  session.set_metrics_path(metrics_path);
  session.tracer().enable();
  session.enable_metrics();
  // Direct API, not PIMA_TEL_INSTANT: the sinks must work even when the
  // hot-path instrumentation macros are compiled out.
  session.tracer().record_instant("flush:test");
  session.metrics().counter("pima_flush_total", "h").increment();
  session.tracer().disable();
  session.flush();

  const auto trace = slurp(trace_path);
  EXPECT_TRUE(json_ok(trace)) << trace;
  EXPECT_NE(trace.find("flush:test"), std::string::npos);
  const auto prom = slurp(metrics_path);
  EXPECT_NE(prom.find("pima_flush_total 1"), std::string::npos);
  const auto json = slurp(metrics_path + ".json");
  EXPECT_TRUE(json_ok(json)) << json;
  EXPECT_NE(json.find("pima_flush_total"), std::string::npos);
  session.reset();
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
  std::remove((metrics_path + ".json").c_str());
}

// ---- engine stall leaves a readable trace behind ----

TEST(EngineTelemetry, StallFlushesTraceWithStallEvent) {
#if !PIMA_TELEMETRY
  GTEST_SKIP() << "engine instrumentation compiled out (PIMA_TELEMETRY=OFF)";
#endif
  auto& session = TelemetrySession::instance();
  session.reset();
  const auto trace_path = temp_path("tel_stall_trace.json");
  session.set_trace_path(trace_path);
  session.tracer().enable();

  dram::Geometry g;
  g.rows = 512;
  g.compute_rows = 8;
  g.columns = 256;
  g.subarrays_per_mat = 16;
  g.mats_per_bank = 4;
  g.banks = 2;
  dram::Device device(g);
  runtime::EngineOptions opt;
  opt.channels = 2;
  opt.queue_capacity = 4;
  opt.stall_timeout_ms = 50.0;
  std::atomic<bool> release{false};
  std::atomic<bool> task_done{false};
  {
    runtime::Engine engine(device, opt);
    engine.submit_to_subarray(1, [&] {
      while (!release.load()) std::this_thread::yield();
      task_done = true;
    });
    EXPECT_THROW(engine.drain(), EngineStalledError);
    // The watchdog flushed before drain() rethrew: the trace on disk
    // already carries the stall marker even though the process would
    // normally die on this exception.
    const auto trace = slurp(trace_path);
    EXPECT_TRUE(json_ok(trace)) << trace;
    EXPECT_NE(trace.find("\"stall\""), std::string::npos);
    release = true;
    while (!task_done.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  session.reset();
  std::remove(trace_path.c_str());
}

// ---- pipeline metrics determinism ----

std::string model_snapshot_for_threads(std::size_t threads) {
  auto& session = TelemetrySession::instance();
  session.reset();
  session.enable_metrics();

  dna::GenomeParams gp;
  gp.length = 900;
  gp.repeat_count = 0;
  const auto genome = dna::generate_genome(gp);
  dna::ReadSamplerParams rp;
  rp.coverage = 6.0;
  rp.read_length = 70;
  const auto reads = dna::sample_reads(genome, rp);

  dram::Geometry g;
  g.rows = 512;
  g.compute_rows = 8;
  g.columns = 256;
  g.subarrays_per_mat = 16;
  g.mats_per_bank = 4;
  g.banks = 2;
  dram::Device device(g);
  core::PipelineOptions opt;
  opt.k = 15;
  opt.hash_shards = 8;
  opt.threads = threads;
  (void)core::run_pipeline(device, reads, opt);

  auto snapshot = session.metrics().json_snapshot(/*model_only=*/true);
  session.reset();
  return snapshot;
}

TEST(PipelineTelemetry, ModelMetricsBitIdenticalAcrossThreadCounts) {
  const auto serial = model_snapshot_for_threads(1);
  const auto parallel = model_snapshot_for_threads(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_TRUE(json_ok(serial)) << serial;
  // Model-class metrics derive only from simulated state, so the snapshot
  // is a determinism oracle: any thread count must produce these bytes.
  EXPECT_EQ(serial, parallel);
  // The interesting families actually showed up.
  EXPECT_NE(serial.find("pima_stage_commands_total"), std::string::npos);
  EXPECT_NE(serial.find("pima_dram_energy_pj_total"), std::string::npos);
  EXPECT_NE(serial.find("pima_reads_total"), std::string::npos);
}

// ---- histogram quantile edges ----

TEST(Metrics, QuantileEdgeCases) {
  // Empty histogram: every quantile (including out-of-range q) is 0.
  Histogram empty({10.0, 20.0});
  EXPECT_DOUBLE_EQ(empty.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(-3.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(42.0), 0.0);

  // Single finite bucket: linear interpolation from 0 to the bound.
  Histogram single({100.0});
  for (int i = 0; i < 4; ++i) single.observe(50.0);
  EXPECT_DOUBLE_EQ(single.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(single.quantile(1.0), 100.0);
  // q clamps: 5.0 behaves like 1.0, -1.0 like 0.0.
  EXPECT_DOUBLE_EQ(single.quantile(5.0), single.quantile(1.0));
  EXPECT_DOUBLE_EQ(single.quantile(-1.0), single.quantile(0.0));

  // All mass in the +Inf bucket: clamps to the largest finite bound.
  Histogram overflow({10.0});
  overflow.observe(1e12);
  EXPECT_DOUBLE_EQ(overflow.quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(overflow.quantile(1.0), 10.0);

  // No finite bounds at all: only the +Inf bucket exists, quantile 0.
  Histogram unbounded({});
  unbounded.observe(7.0);
  EXPECT_DOUBLE_EQ(unbounded.quantile(0.5), 0.0);
}

// ---- progress reporter ----

TEST(Progress, FormatLineRatesAndEta) {
  ProgressSnapshot s;
  s.reads = 50.0;
  s.expected = 100.0;
  s.kmers = 500.0;
  // 50 reads and 500 k-mers in 10 s → 5/s and 50/s; 50 reads left at
  // 5/s → eta 10.0s.
  EXPECT_EQ(format_progress_line(s, 0.0, 0.0, 10.0),
            "[pima] reads 50/100 (5/s) kmers 500 (50/s) eta 10.0s "
            "faults det=0 retry=0 host=0");
  // No progress this tick → rate 0 → no eta estimate.
  EXPECT_EQ(format_progress_line(s, 50.0, 500.0, 10.0),
            "[pima] reads 50/100 (0/s) kmers 500 (0/s) eta -- "
            "faults det=0 retry=0 host=0");
  // Counters behind the last tick (a registry swap) clamp to rate 0, not
  // a negative rate.
  EXPECT_EQ(format_progress_line(s, 80.0, 900.0, 10.0),
            "[pima] reads 50/100 (0/s) kmers 500 (0/s) eta -- "
            "faults det=0 retry=0 host=0");
  // Caught up: eta flips to done regardless of rate.
  s.reads = 100.0;
  s.kmers = 1000.0;
  s.detected = 3.0;
  s.retried = 2.0;
  s.fallbacks = 1.0;
  EXPECT_EQ(format_progress_line(s, 50.0, 500.0, 10.0),
            "[pima] reads 100/100 (5/s) kmers 1000 (50/s) eta done "
            "faults det=3 retry=2 host=1");
  // Unknown stream size: eta stays "--".
  s.expected = 0.0;
  EXPECT_EQ(format_progress_line(s, 50.0, 500.0, 10.0),
            "[pima] reads 100/0 (5/s) kmers 1000 (50/s) eta -- "
            "faults det=3 retry=2 host=1");
}

TEST(Progress, ReporterWritesFinalLineOnDestruction) {
  MetricsRegistry registry;
  registry.counter(kReadsTotal, "reads").add(42.0);
  registry.counter(kReadsExpected, "expected").add(42.0);
  registry.counter(kKmersTotal, "kmers").add(420.0);
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  {
    ProgressReporter::Options options;
    options.interval_s = 3600.0;  // never ticks; only the final flush runs
    options.out = out;
    ProgressReporter reporter(registry, options);
  }
  std::rewind(out);
  char buf[256] = {0};
  ASSERT_NE(std::fgets(buf, sizeof buf, out), nullptr);
  EXPECT_EQ(std::string(buf),
            "[pima] reads 42/42 (0/s) kmers 420 (0/s) eta done "
            "faults det=0 retry=0 host=0\n");
  std::fclose(out);
}

// ---- structured event log ----

TEST(Log, NdjsonSinkEmitsValidTypedLines) {
  auto& logger = Logger::instance();
  logger.reset_for_tests();
  logger.set_stderr_enabled(false);
  const std::string path = ::testing::TempDir() + "/pima_log_sink.ndjson";
  std::remove(path.c_str());
  logger.set_json_path(path);
  log_event(LogLevel::kWarn, "test.event", "quoted \"payload\"\nline two",
            {LogField::uint("device", 3), LogField::str("class", "torn"),
             LogField::num("backoff_ms", 12.5)});
  logger.reset_for_tests();  // closes the sink

  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_TRUE(json_ok(line)) << line;
  EXPECT_NE(line.find("\"level\": \"warn\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"code\": \"test.event\""), std::string::npos);
  EXPECT_NE(line.find("\"device\": 3"), std::string::npos);
  EXPECT_NE(line.find("\"class\": \"torn\""), std::string::npos);
  EXPECT_NE(line.find("\"backoff_ms\": 12.5"), std::string::npos);
  EXPECT_NE(line.find("\\n"), std::string::npos);  // newline escaped
  EXPECT_FALSE(std::getline(in, line));            // exactly one event
  std::remove(path.c_str());
}

TEST(Log, LevelGateIsAllocationFreeFastPath) {
  auto& logger = Logger::instance();
  logger.reset_for_tests();
  logger.set_stderr_enabled(false);
  logger.set_level(LogLevel::kError);
  EXPECT_FALSE(logger.would_log(LogLevel::kWarn));
  EXPECT_TRUE(logger.would_log(LogLevel::kError));
  const std::string path = ::testing::TempDir() + "/pima_log_gate.ndjson";
  std::remove(path.c_str());
  logger.set_json_path(path);
  log_event(LogLevel::kInfo, "test.below", "filtered");
  log_event(LogLevel::kError, "test.kept", "kept");
  logger.reset_for_tests();

  std::ifstream in(path);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(all.find("test.below"), std::string::npos);
  EXPECT_NE(all.find("test.kept"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Log, PerCodeTokenBucketSuppressesAndCounts) {
  auto& logger = Logger::instance();
  logger.reset_for_tests();
  logger.set_stderr_enabled(false);
  logger.set_rate_limit(/*tokens_per_s=*/0.0001, /*burst=*/2.0);
  const std::string path = ::testing::TempDir() + "/pima_log_rate.ndjson";
  std::remove(path.c_str());
  logger.set_json_path(path);
  for (int i = 0; i < 10; ++i)
    log_event(LogLevel::kWarn, "test.flood", "repeated failure");
  // A different code has its own bucket and still passes.
  log_event(LogLevel::kWarn, "test.other", "unrelated");
  EXPECT_EQ(logger.suppressed_total(), 8u);
  logger.reset_for_tests();

  std::ifstream in(path);
  std::string line;
  std::size_t flood = 0, other = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(json_ok(line)) << line;
    if (line.find("test.flood") != std::string::npos) ++flood;
    if (line.find("test.other") != std::string::npos) ++other;
  }
  EXPECT_EQ(flood, 2u);  // burst
  EXPECT_EQ(other, 1u);
  std::remove(path.c_str());
}

// ---- flight recorder ----

TEST(Flight, RenderIsSchemaValidAndIncludesProviders) {
  auto& flight = FlightRecorder::instance();
  flight.reset_for_tests();
  flight.note("{\"code\": \"test.one\"}", 20);
  const int good =
      flight.add_snapshot_provider("widget", [] {
        return std::string("{\"gears\": 3}");
      });
  const int bad = flight.add_snapshot_provider(
      "broken", []() -> std::string { throw std::runtime_error("boom"); });
  const std::string report = flight.render("unit_test", "just checking");
  EXPECT_TRUE(json_ok(report)) << report;
  EXPECT_NE(report.find("\"schema\": \"pima.crash_report.v1\""),
            std::string::npos);
  EXPECT_NE(report.find("\"reason\": \"unit_test\""), std::string::npos);
  EXPECT_NE(report.find("test.one"), std::string::npos);
  EXPECT_NE(report.find("\"gears\": 3"), std::string::npos);
  // A throwing provider contributes an error marker, not a dead dump.
  EXPECT_NE(report.find("\"broken\""), std::string::npos);
  EXPECT_NE(report.find("boom"), std::string::npos);
  flight.remove_snapshot_provider(good);
  flight.remove_snapshot_provider(bad);
  flight.reset_for_tests();
}

TEST(Flight, RingKeepsTheMostRecentEvents) {
  auto& flight = FlightRecorder::instance();
  flight.reset_for_tests();
  for (int i = 0; i < 300; ++i) {
    const std::string line = "{\"seq\": " + std::to_string(i) + "}";
    flight.note(line.c_str(), line.size());
  }
  const std::string report = flight.render("overflow", "");
  EXPECT_TRUE(json_ok(report)) << report;
  // 300 events through a 256-slot ring: the newest survive, the oldest
  // are gone.
  EXPECT_NE(report.find("{\"seq\": 299}"), std::string::npos);
  EXPECT_EQ(report.find("{\"seq\": 0}"), std::string::npos);
  flight.reset_for_tests();
}

TEST(Flight, OversizedEventBecomesTruncationMarker) {
  auto& flight = FlightRecorder::instance();
  flight.reset_for_tests();
  const std::string huge =
      "{\"pad\": \"" + std::string(2 * FlightRecorder::kSlotBytes, 'x') +
      "\"}";
  flight.note(huge.c_str(), huge.size());
  const std::string report = flight.render("oversized", "");
  EXPECT_TRUE(json_ok(report)) << report;
  EXPECT_NE(report.find("log.oversized"), std::string::npos);
  flight.reset_for_tests();
}

TEST(Flight, DumpWritesAtomicallyAndCounts) {
  auto& flight = FlightRecorder::instance();
  flight.reset_for_tests();
  const std::string path = ::testing::TempDir() + "/pima_crash_report.json";
  std::remove(path.c_str());
  flight.set_output_path(path);
  flight.note("{\"code\": \"test.dump\"}", 21);
  EXPECT_TRUE(flight.dump("unit_test", "dump path"));
  EXPECT_EQ(flight.dump_count(), 1u);
  std::ifstream in(path);
  std::string body((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_TRUE(json_ok(body)) << body;
  EXPECT_NE(body.find("test.dump"), std::string::npos);
  std::remove(path.c_str());
  flight.reset_for_tests();
}

TEST(Flight, SignalDumpPathWritesParseableJson) {
  auto& flight = FlightRecorder::instance();
  flight.reset_for_tests();
  const std::string path = ::testing::TempDir() + "/pima_signal_report.json";
  std::remove(path.c_str());
  flight.set_output_path(path);
  flight.note("{\"code\": \"test.signal\"}", 23);
  flight.signal_dump(SIGSEGV);  // normal-context call of the raw-write path
  std::ifstream in(path);
  std::string body((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_TRUE(json_ok(body)) << body;
  EXPECT_NE(body.find("test.signal"), std::string::npos);
  std::remove(path.c_str());
  flight.reset_for_tests();
}

// ---- cross-process trace stitching ----

TEST(Tracer, PutProcessStitchesForeignTracksAndFlows) {
  Tracer t;
  t.enable();
  t.set_thread_track(0);
  t.set_track_name(0, "main");
  const auto start = t.now_ns();
  t.record_complete("rpc:kmers", start, 1000);
  t.record_flow("rpc", 's', 42, start);

  ProcessTrace pt;
  pt.pid = 4242;
  pt.name = "pima_devd d=0";
  pt.sort_index = 1;
  pt.track_names[0] = "rpc loop";
  ExportedTraceEvent span;
  span.name = "devd:kmers";
  span.phase = 'X';
  span.track = 0;
  span.ts_ns = start + 100;
  span.dur_ns = 500;
  pt.events.push_back(span);
  ExportedTraceEvent flow;
  flow.name = "rpc";
  flow.phase = 'f';
  flow.track = 0;
  flow.ts_ns = start + 100;
  flow.flow_id = 42;
  pt.events.push_back(flow);
  t.put_process(pt);
  EXPECT_EQ(t.process_count(), 1u);
  // Cumulative harvests replace the same incarnation wholesale.
  t.put_process(pt);
  EXPECT_EQ(t.process_count(), 1u);
  t.disable();

  const std::string json = t.chrome_json();
  EXPECT_TRUE(json_ok(json)) << json;
  // Both processes present, each under its own pid with track metadata.
  EXPECT_NE(json.find("\"controller\""), std::string::npos);
  EXPECT_NE(json.find("\"pima_devd d=0\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 4242"), std::string::npos);
  EXPECT_NE(json.find("\"rpc loop\""), std::string::npos);
  EXPECT_NE(json.find("devd:kmers"), std::string::npos);
  // The rpc flow link: start on the controller, finish on the worker.
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\": \"e\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"rpc\""), std::string::npos);
  EXPECT_NE(json.find("\"id\": 42"), std::string::npos);
}

TEST(Tracer, ControllerMetadataOnlyWhenForeignProcessesExist) {
  Tracer t;
  t.enable();
  t.set_thread_track(0);
  t.record_complete("solo", t.now_ns(), 10);
  t.disable();
  // Single-process traces keep the historical shape: no process metadata.
  EXPECT_EQ(t.chrome_json().find("process_name"), std::string::npos);

  t.enable();
  t.set_thread_track(0);
  t.record_complete("solo", t.now_ns(), 10);
  ProcessTrace pt;
  pt.pid = 77;
  pt.name = "pima_devd d=1 (restart 1)";
  pt.sort_index = 2;
  t.put_process(pt);
  t.disable();
  const std::string json = t.chrome_json();
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("(restart 1)"), std::string::npos);
}

}  // namespace
}  // namespace pima::telemetry
