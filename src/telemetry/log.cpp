#include "telemetry/log.hpp"

#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>

#include "common/error.hpp"
#include "common/fsio.hpp"
#include "net/json.hpp"
#include "telemetry/flight.hpp"

namespace pima::telemetry {

namespace {

std::int64_t wall_us_now() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

void fsio_log_forward(fsio::LogSeverity severity, const char* code,
                      const char* message) {
  LogLevel level = LogLevel::kInfo;
  if (severity == fsio::LogSeverity::kWarn) level = LogLevel::kWarn;
  if (severity == fsio::LogSeverity::kError) level = LogLevel::kError;
  Logger::instance().log(level, code, message);
}

}  // namespace

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
  }
  return "info";
}

LogField LogField::str(std::string key, std::string value) {
  LogField f;
  f.key = std::move(key);
  f.value = std::move(value);
  return f;
}

LogField LogField::num(std::string key, double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  LogField f;
  f.key = std::move(key);
  f.value = buf;
  f.numeric = true;
  return f;
}

LogField LogField::uint(std::string key, std::uint64_t value) {
  LogField f;
  f.key = std::move(key);
  f.value = std::to_string(value);
  f.numeric = true;
  return f;
}

// The per-code token bucket: tokens per second, and bucket capacity.
constexpr double kRatePerS = 10.0;
constexpr double kBurst = 20.0;

struct Logger::Impl {
  std::mutex mutex;
  std::FILE* json = nullptr;  // owned unless json_is_stdout
  bool json_is_stdout = false;
  std::string json_path;
  struct Bucket {
    double tokens = 0.0;
    std::int64_t last_ns = 0;
    std::uint64_t suppressed = 0;
    bool primed = false;
  };
  std::map<std::string, Bucket> buckets;
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();

  std::int64_t mono_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
  }

  void close_json() {
    if (json != nullptr && !json_is_stdout) std::fclose(json);
    json = nullptr;
    json_is_stdout = false;
    json_path.clear();
  }
};

Logger::Logger() : impl_(new Impl) {
  // Route the common layer's diagnostics through the same sinks.
  fsio::set_log_fn(&fsio_log_forward);
}

Logger& Logger::instance() {
  static Logger* logger = new Logger();  // leaked by design
  return *logger;
}

void Logger::set_json_path(const std::string& path) {
  std::lock_guard lock(impl_->mutex);
  impl_->close_json();
  if (path.empty()) return;
  if (path == "-") {
    impl_->json = stdout;
    impl_->json_is_stdout = true;
    impl_->json_path = path;
    return;
  }
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) throw IoError("cannot open log file " + path);
  impl_->json = f;
  impl_->json_path = path;
}

void Logger::log(LogLevel level, const char* code, const std::string& message,
                 std::vector<LogField> fields) {
  if (!would_log(level)) return;  // the allocation-free fast path
  std::lock_guard lock(impl_->mutex);
  const std::int64_t mono = impl_->mono_ns();

  // Per-code token bucket. Suppressed events vanish from every sink (and
  // the flight ring); the count rides on the next event that passes.
  auto& b = impl_->buckets[code];
  if (!b.primed) {
    b.tokens = kBurst;
    b.last_ns = mono;
    b.primed = true;
  }
  b.tokens += static_cast<double>(mono - b.last_ns) * 1e-9 * kRatePerS;
  if (b.tokens > kBurst) b.tokens = kBurst;
  b.last_ns = mono;
  if (b.tokens < 1.0) {
    ++b.suppressed;
    suppressed_total_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  b.tokens -= 1.0;
  const std::uint64_t suppressed_here = b.suppressed;
  b.suppressed = 0;

  // NDJSON rendering — built unconditionally: the flight-recorder ring
  // stores the same preformatted line the JSON sink writes.
  std::string line;
  line.reserve(160 + message.size());
  line += "{\"t_mono_ns\": ";
  line += std::to_string(mono);
  line += ", \"t_wall_us\": ";
  line += std::to_string(wall_us_now());
  line += ", \"level\": \"";
  line += to_string(level);
  line += "\", \"code\": \"";
  line += net::Json::escape(code);
  line += "\", \"msg\": \"";
  line += net::Json::escape(message);
  line += '"';
  if (suppressed_here > 0) {
    line += ", \"suppressed\": ";
    line += std::to_string(suppressed_here);
  }
  for (const auto& f : fields) {
    line += ", \"";
    line += net::Json::escape(f.key);
    line += "\": ";
    if (f.numeric) {
      line += f.value;
    } else {
      line += '"';
      line += net::Json::escape(f.value);
      line += '"';
    }
  }
  line += '}';

  FlightRecorder::instance().note(line.c_str(), line.size());

  std::string human;
  human.reserve(64 + message.size());
  human += "pima[";
  human += to_string(level);
  human += "] ";
  human += code;
  human += ": ";
  human += message;
  if (!fields.empty()) {
    human += " (";
    bool first = true;
    for (const auto& f : fields) {
      if (!first) human += ' ';
      first = false;
      human += f.key;
      human += '=';
      human += f.value;
    }
    human += ')';
  }
  if (suppressed_here > 0) {
    human += " [suppressed ";
    human += std::to_string(suppressed_here);
    human += " similar]";
  }
  human += '\n';
  std::fputs(human.c_str(), stderr);
  if (impl_->json != nullptr) {
    std::fputs(line.c_str(), impl_->json);
    std::fputc('\n', impl_->json);
    std::fflush(impl_->json);
  }
}

void Logger::reset_for_tests() {
  std::lock_guard lock(impl_->mutex);
  impl_->close_json();
  impl_->buckets.clear();
  level_.store(static_cast<int>(LogLevel::kInfo), std::memory_order_relaxed);
  suppressed_total_.store(0, std::memory_order_relaxed);
}

void log_event(LogLevel level, const char* code, const std::string& message,
               std::vector<LogField> fields) {
  Logger::instance().log(level, code, message, std::move(fields));
}

}  // namespace pima::telemetry
