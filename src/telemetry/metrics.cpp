#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/error.hpp"
#include "dram/device.hpp"
#include "net/json.hpp"

namespace pima::telemetry {

namespace {

// Shortest round-trip-exact rendering: equal doubles always give equal
// strings, so deterministic values serialize bit-identically.
std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // Trim to the shortest representation that still parses back exactly.
  for (int prec = 1; prec < 17; ++prec) {
    char probe[40];
    std::snprintf(probe, sizeof probe, "%.*g", prec, v);
    double back = 0.0;
    std::sscanf(probe, "%lf", &back);
    if (back == v) return probe;
  }
  return buf;
}

std::string render_labels(const Labels& labels) {
  if (labels.empty()) return {};
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    out += labels[i].first + "=\"" + labels[i].second + "\"";
  }
  out += '}';
  return out;
}

// `le` label spliced into an existing label set for histogram buckets.
std::string render_bucket_labels(const Labels& labels, const std::string& le) {
  Labels with = labels;
  with.emplace_back("le", le);
  return render_labels(with);
}

constexpr int kCounter = 0;
constexpr int kGauge = 1;
constexpr int kHistogram = 2;

const char* kind_name(int kind) {
  switch (kind) {
    case kCounter: return "counter";
    case kGauge: return "gauge";
    case kHistogram: return "histogram";
  }
  return "?";
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  PIMA_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                 std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                     bounds_.end(),
             "histogram bounds must be strictly increasing");
}

void Histogram::observe(double v) {
  // Prometheus semantics: bucket i counts v <= bounds[i]; the last bucket
  // is +Inf and takes everything else.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto i = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(sum_, v);
}

std::uint64_t Histogram::bucket_count(std::size_t i) const {
  PIMA_CHECK(i < buckets_.size(), "histogram bucket index out of range");
  return buckets_[i].load(std::memory_order_relaxed);
}

std::uint64_t Histogram::count() const {
  std::uint64_t n = 0;
  for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
  return n;
}

void Histogram::merge_counts(const std::vector<std::uint64_t>& buckets,
                             double sum) {
  PIMA_CHECK(buckets.size() == buckets_.size(),
             "histogram merge with mismatched bucket count");
  for (std::size_t i = 0; i < buckets.size(); ++i)
    buckets_[i].fetch_add(buckets[i], std::memory_order_relaxed);
  detail::atomic_add(sum_, sum);
}

struct MetricsRegistry::Metric {
  std::string name;
  std::string help;
  Labels labels;
  MetricClass cls = MetricClass::kModel;
  int kind = kCounter;
  Counter counter;
  Gauge gauge;
  std::unique_ptr<Histogram> histogram;
};

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

void MetricsRegistry::set_default_labels(Labels labels) {
  std::lock_guard lock(mutex_);
  default_labels_ = std::move(labels);
}

MetricsRegistry::Metric& MetricsRegistry::find_or_create(
    const std::string& name, const std::string& help, const Labels& given,
    MetricClass cls, int kind, const std::vector<double>* bounds) {
  std::lock_guard lock(mutex_);
  Labels labels = given;
  for (const auto& d : default_labels_) labels.push_back(d);
  // '\x1f' cannot occur in names/labels, so the key sorts by family name
  // first and keeps a family's instances contiguous in export order.
  const std::string key = name + '\x1f' + render_labels(labels);
  auto it = metrics_.find(key);
  if (it == metrics_.end()) {
    auto m = std::make_unique<Metric>();
    m->name = name;
    m->help = help;
    m->labels = labels;
    m->cls = cls;
    m->kind = kind;
    if (kind == kHistogram)
      m->histogram = std::make_unique<Histogram>(*bounds);
    it = metrics_.emplace(key, std::move(m)).first;
  }
  PIMA_CHECK(it->second->kind == kind,
             "metric '" + name + "' re-registered with a different type");
  return *it->second;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help,
                                  const Labels& labels, MetricClass cls) {
  return find_or_create(name, help, labels, cls, kCounter, nullptr).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help,
                              const Labels& labels, MetricClass cls) {
  return find_or_create(name, help, labels, cls, kGauge, nullptr).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      std::vector<double> bounds,
                                      const Labels& labels, MetricClass cls) {
  return *find_or_create(name, help, labels, cls, kHistogram, &bounds)
              .histogram;
}

std::string MetricsRegistry::prometheus_text() const {
  std::lock_guard lock(mutex_);
  std::ostringstream out;
  std::string family;
  for (const auto& [key, m] : metrics_) {
    if (m->name != family) {
      family = m->name;
      out << "# HELP " << m->name << ' ' << m->help << '\n';
      out << "# TYPE " << m->name << ' ' << kind_name(m->kind) << '\n';
    }
    const std::string labels = render_labels(m->labels);
    switch (m->kind) {
      case kCounter:
        out << m->name << labels << ' ' << format_double(m->counter.value())
            << '\n';
        break;
      case kGauge:
        out << m->name << labels << ' ' << format_double(m->gauge.value())
            << '\n';
        break;
      case kHistogram: {
        const Histogram& h = *m->histogram;
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.bounds().size(); ++i) {
          cumulative += h.bucket_count(i);
          out << m->name << "_bucket"
              << render_bucket_labels(m->labels, format_double(h.bounds()[i]))
              << ' ' << cumulative << '\n';
        }
        cumulative += h.bucket_count(h.bounds().size());
        out << m->name << "_bucket"
            << render_bucket_labels(m->labels, "+Inf") << ' ' << cumulative
            << '\n';
        out << m->name << "_sum" << labels << ' ' << format_double(h.sum())
            << '\n';
        out << m->name << "_count" << labels << ' ' << cumulative << '\n';
        break;
      }
    }
  }
  return out.str();
}

std::string MetricsRegistry::json_snapshot(bool model_only) const {
  std::lock_guard lock(mutex_);
  std::ostringstream out;
  out << "{\n  \"metrics\": [";
  bool first = true;
  for (const auto& [key, m] : metrics_) {
    if (model_only && m->cls != MetricClass::kModel) continue;
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    {\"name\": \"" << net::Json::escape(m->name)
        << "\", \"type\": \"" << kind_name(m->kind) << "\", \"class\": \""
        << (m->cls == MetricClass::kModel ? "model" : "host") << "\"";
    if (!m->labels.empty()) {
      out << ", \"labels\": {";
      for (std::size_t i = 0; i < m->labels.size(); ++i) {
        if (i > 0) out << ", ";
        out << '"' << net::Json::escape(m->labels[i].first) << "\": \""
            << net::Json::escape(m->labels[i].second) << '"';
      }
      out << '}';
    }
    switch (m->kind) {
      case kCounter:
        out << ", \"value\": " << format_double(m->counter.value());
        break;
      case kGauge:
        out << ", \"value\": " << format_double(m->gauge.value());
        break;
      case kHistogram: {
        const Histogram& h = *m->histogram;
        out << ", \"buckets\": [";
        for (std::size_t i = 0; i <= h.bounds().size(); ++i) {
          if (i > 0) out << ", ";
          out << "{\"le\": ";
          if (i < h.bounds().size())
            out << format_double(h.bounds()[i]);
          else
            out << "\"+Inf\"";
          out << ", \"count\": " << h.bucket_count(i) << '}';
        }
        out << "], \"sum\": " << format_double(h.sum())
            << ", \"count\": " << h.count();
        break;
      }
    }
    out << '}';
  }
  out << "\n  ]\n}\n";
  return out.str();
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  // Snapshot the other registry's shape under its lock, then fold without
  // holding both locks at once.
  struct Shard {
    std::string name, help;
    Labels labels;
    MetricClass cls;
    int kind;
    double scalar;
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;
    double sum;
  };
  std::vector<Shard> shards;
  {
    std::lock_guard lock(other.mutex_);
    for (const auto& [key, m] : other.metrics_) {
      Shard s;
      s.name = m->name;
      s.help = m->help;
      s.labels = m->labels;
      s.cls = m->cls;
      s.kind = m->kind;
      s.scalar = m->kind == kGauge ? m->gauge.value() : m->counter.value();
      s.sum = 0.0;
      if (m->kind == kHistogram) {
        const Histogram& h = *m->histogram;
        s.bounds = h.bounds();
        for (std::size_t i = 0; i <= s.bounds.size(); ++i)
          s.buckets.push_back(h.bucket_count(i));
        s.sum = h.sum();
      }
      shards.push_back(std::move(s));
    }
  }
  for (const auto& s : shards) {
    switch (s.kind) {
      case kCounter:
        counter(s.name, s.help, s.labels, s.cls).add(s.scalar);
        break;
      case kGauge: {
        Gauge& g = gauge(s.name, s.help, s.labels, s.cls);
        g.set(std::max(g.value(), s.scalar));
        break;
      }
      case kHistogram: {
        Histogram& h = histogram(s.name, s.help, s.bounds, s.labels, s.cls);
        PIMA_CHECK(h.bounds() == s.bounds,
                   "histogram '" + s.name + "' merged with different buckets");
        h.merge_counts(s.buckets, s.sum);
        break;
      }
    }
  }
}

void add_breakdown_metrics(MetricsRegistry& registry,
                           const dram::EnergyBreakdown& breakdown) {
  for (const auto& row : breakdown.rows) {
    const Labels labels = {{"kind", std::string(dram::to_string(row.kind))}};
    registry
        .counter("pima_dram_commands_total",
                 "DRAM commands by command kind", labels)
        .add(static_cast<double>(row.count));
    registry
        .counter("pima_dram_energy_pj_total",
                 "simulated energy by command kind (pJ)", labels)
        .add(row.energy_pj);
    registry
        .counter("pima_dram_time_ns_total",
                 "simulated serialized time by command kind (ns)", labels)
        .add(row.time_ns);
  }
}

}  // namespace pima::telemetry
