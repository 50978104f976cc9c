#include "telemetry/flight.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <vector>

#include "common/error.hpp"
#include "common/fsio.hpp"
#include "net/json.hpp"

namespace pima::telemetry {

namespace {

// write(2) everything or give up — the signal path has no better option.
void write_fully(int fd, const char* bytes, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::write(fd, bytes + done, len - done);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;
    }
    done += static_cast<std::size_t>(n);
  }
}

extern "C" void pima_fatal_signal_handler(int signo) {
  FlightRecorder::instance().signal_dump(signo);
  ::signal(signo, SIG_DFL);
  ::raise(signo);
}

}  // namespace

struct FlightRecorder::Impl {
  mutable std::mutex mutex;
  struct Provider {
    int id;
    std::string name;
    std::function<std::string()> fn;
  };
  std::vector<Provider> providers;
  int next_id = 1;
};

FlightRecorder::FlightRecorder() : impl_(new Impl) {
  const char* def = "crash_report.json";
  std::memcpy(path_bytes_, def, std::strlen(def) + 1);
  path_len_.store(std::strlen(def), std::memory_order_release);
}

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder* recorder = new FlightRecorder();  // leaked by design
  return *recorder;
}

void FlightRecorder::set_output_path(const std::string& path) {
  PIMA_CHECK(!path.empty() && path.size() < sizeof path_bytes_,
             "crash-report path must be non-empty and fit the fixed buffer");
  std::lock_guard lock(impl_->mutex);
  std::memcpy(path_bytes_, path.c_str(), path.size() + 1);
  path_len_.store(path.size(), std::memory_order_release);
}

std::string FlightRecorder::output_path() const {
  std::lock_guard lock(impl_->mutex);
  return std::string(path_bytes_, path_len_.load(std::memory_order_acquire));
}

void FlightRecorder::note(const char* json_object, std::size_t len) {
  const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = ring_[seq % kRingSlots];
  slot.ready.store(0, std::memory_order_release);
  if (len < kSlotBytes) {
    std::memcpy(slot.bytes, json_object, len);
    slot.len = static_cast<std::uint32_t>(len);
  } else {
    // Keep the slot valid JSON rather than truncating mid-string.
    const int n = std::snprintf(slot.bytes, kSlotBytes,
                                "{\"code\": \"log.oversized\", \"len\": %zu}",
                                len);
    slot.len = n > 0 ? static_cast<std::uint32_t>(n) : 0;
  }
  slot.ready.store(seq + 1, std::memory_order_release);
}

int FlightRecorder::add_snapshot_provider(const std::string& name,
                                          std::function<std::string()> fn) {
  std::lock_guard lock(impl_->mutex);
  const int id = impl_->next_id++;
  impl_->providers.push_back({id, name, std::move(fn)});
  return id;
}

void FlightRecorder::remove_snapshot_provider(int id) {
  std::lock_guard lock(impl_->mutex);
  auto& ps = impl_->providers;
  ps.erase(std::remove_if(ps.begin(), ps.end(),
                          [id](const Impl::Provider& p) { return p.id == id; }),
           ps.end());
}

std::string FlightRecorder::render(const char* reason,
                                   const std::string& detail) const {
  // Snapshot the ring first (stamped copies, oldest first), then run the
  // providers outside any slot access.
  struct Line {
    std::uint64_t stamp;
    std::string text;
  };
  std::vector<Line> lines;
  for (std::size_t i = 0; i < kRingSlots; ++i) {
    const Slot& slot = ring_[i];
    const std::uint64_t before = slot.ready.load(std::memory_order_acquire);
    if (before == 0) continue;
    std::string text(slot.bytes, slot.len);
    if (slot.ready.load(std::memory_order_acquire) != before)
      continue;  // overwritten mid-copy; drop the torn read
    lines.push_back({before, std::move(text)});
  }
  std::sort(lines.begin(), lines.end(),
            [](const Line& a, const Line& b) { return a.stamp < b.stamp; });

  const std::int64_t wall_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  std::string out;
  out += "{\"schema\": \"";
  out += kSchema;
  out += "\",\n \"reason\": \"";
  out += net::Json::escape(reason);
  out += "\",\n \"detail\": \"";
  out += net::Json::escape(detail);
  out += "\",\n \"pid\": ";
  out += std::to_string(static_cast<long>(::getpid()));
  out += ",\n \"t_wall_us\": ";
  out += std::to_string(wall_us);
  out += ",\n \"events\": [";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out += i == 0 ? "\n  " : ",\n  ";
    out += lines[i].text;
  }
  out += "\n ],\n \"state\": {";
  std::lock_guard lock(impl_->mutex);
  bool first = true;
  for (const auto& p : impl_->providers) {
    out += first ? "\n  \"" : ",\n  \"";
    first = false;
    out += net::Json::escape(p.name);
    out += "\": ";
    try {
      out += p.fn();
    } catch (const std::exception& e) {
      out += "{\"error\": \"" + net::Json::escape(e.what()) + "\"}";
    } catch (...) {
      out += "{\"error\": \"unknown\"}";
    }
  }
  out += "\n }\n}\n";
  return out;
}

bool FlightRecorder::dump(const char* reason,
                          const std::string& detail) noexcept {
  try {
    const std::string body = render(reason, detail);
    fsio::atomic_write_file(output_path(), body, "crash_report");
    dumps_.fetch_add(1, std::memory_order_relaxed);
    return true;
  } catch (...) {
    // A crash report must never mask the failure it documents.
    return false;
  }
}

void FlightRecorder::install_fatal_signal_handlers() {
  static std::atomic<bool> installed{false};
  if (installed.exchange(true, std::memory_order_acq_rel)) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = &pima_fatal_signal_handler;
  sigemptyset(&sa.sa_mask);
  for (const int signo : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT})
    ::sigaction(signo, &sa, nullptr);
}

void FlightRecorder::signal_dump(int signo) {
  // Raw syscalls only: the ring slots are preformatted JSON and the path
  // lives in a fixed buffer, so this needs nothing but open/write/close.
  const int fd = ::open(path_bytes_, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  char head[192];
  int n = std::snprintf(head, sizeof head,
                        "{\"schema\": \"%s\",\n \"reason\": \"fatal_signal\","
                        "\n \"signal\": %d,\n \"pid\": %ld,\n \"events\": [",
                        kSchema, signo, static_cast<long>(::getpid()));
  if (n > 0) write_fully(fd, head, static_cast<std::size_t>(n));
  // Oldest-first: walk the ring starting just past the write cursor.
  const std::uint64_t cur = seq_.load(std::memory_order_acquire);
  bool first = true;
  for (std::size_t i = 0; i < kRingSlots; ++i) {
    const Slot& slot = ring_[(cur + i) % kRingSlots];
    const std::uint64_t stamp = slot.ready.load(std::memory_order_acquire);
    if (stamp == 0) continue;
    write_fully(fd, first ? "\n  " : ",\n  ", first ? 3 : 4);
    first = false;
    write_fully(fd, slot.bytes, slot.len);
  }
  write_fully(fd, "\n ],\n \"state\": {}\n}\n", 20);
  ::close(fd);
}

void FlightRecorder::reset_for_tests() {
  std::lock_guard lock(impl_->mutex);
  for (auto& slot : ring_) slot.ready.store(0, std::memory_order_release);
  seq_.store(0, std::memory_order_release);
  dumps_.store(0, std::memory_order_release);
  impl_->providers.clear();
  const char* def = "crash_report.json";
  std::memcpy(path_bytes_, def, std::strlen(def) + 1);
  path_len_.store(std::strlen(def), std::memory_order_release);
}

}  // namespace pima::telemetry
