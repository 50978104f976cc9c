#include "common/fsio.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string_view>

#include "common/error.hpp"

namespace pima::fsio {

namespace {

// ---- counters --------------------------------------------------------------

struct AtomicCounters {
  std::atomic<std::uint64_t> injected_total{0};
  std::atomic<std::uint64_t> errno_injected{0};
  std::atomic<std::uint64_t> eintr_injected{0};
  std::atomic<std::uint64_t> short_injected{0};
  std::atomic<std::uint64_t> crash_points{0};
  std::atomic<std::uint64_t> dirsync_failed{0};
};

AtomicCounters& counter_state() {
  static AtomicCounters c;
  return c;
}

void count_decision(const FaultPlan::Decision& d) {
  auto& c = counter_state();
  c.injected_total.fetch_add(1, std::memory_order_relaxed);
  switch (d.kind) {
    case FaultPlan::Decision::Kind::kErrno:
      if (d.err == EINTR)
        c.eintr_injected.fetch_add(1, std::memory_order_relaxed);
      else
        c.errno_injected.fetch_add(1, std::memory_order_relaxed);
      break;
    case FaultPlan::Decision::Kind::kShort:
      c.short_injected.fetch_add(1, std::memory_order_relaxed);
      break;
    case FaultPlan::Decision::Kind::kCrash:
      c.crash_points.fetch_add(1, std::memory_order_relaxed);
      break;
    case FaultPlan::Decision::Kind::kNone: break;
  }
}

// ---- spec parsing ----------------------------------------------------------

[[noreturn]] void bad_spec(const std::string& token, const std::string& why) {
  throw InputFormatError("PIMA_IOFAULT: bad token '" + token + "': " + why);
}

Op parse_op(const std::string& name) {
  if (name == "open") return Op::kOpen;
  if (name == "read") return Op::kRead;
  if (name == "write") return Op::kWrite;
  if (name == "fsync") return Op::kFsync;
  if (name == "rename") return Op::kRename;
  if (name == "send") return Op::kSend;
  if (name == "connect") return Op::kConnect;
  if (name == "socketpair") return Op::kSocketpair;
  if (name == "waitpid") return Op::kWaitpid;
  if (name == "kill") return Op::kKill;
  if (name == "*") return Op::kAny;
  bad_spec(name,
           "unknown op (open|read|write|fsync|rename|send|connect|"
           "socketpair|waitpid|kill|*)");
}

int parse_errno_name(const std::string& name) {
  struct Entry {
    const char* name;
    int value;
  };
  static constexpr Entry kTable[] = {
      {"ENOSPC", ENOSPC},       {"EIO", EIO},
      {"EINTR", EINTR},         {"EPIPE", EPIPE},
      {"ECONNREFUSED", ECONNREFUSED},
      {"ECONNRESET", ECONNRESET},
      {"ENOENT", ENOENT},       {"EACCES", EACCES},
      {"EBADF", EBADF},         {"EMFILE", EMFILE},
      {"ETIMEDOUT", ETIMEDOUT}, {"EAGAIN", EAGAIN},
      {"EDQUOT", EDQUOT},       {"EROFS", EROFS},
  };
  for (const auto& e : kTable)
    if (name == e.name) return e.value;
  bad_spec(name, "unknown errno name");
}

std::uint64_t parse_u64(const std::string& token, const std::string& value) {
  std::size_t pos = 0;
  unsigned long long n = 0;
  try {
    n = std::stoull(value, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != value.size() || value.empty()) bad_spec(token, "expected an integer");
  return static_cast<std::uint64_t>(n);
}

double parse_probability(const std::string& token, const std::string& value) {
  std::size_t pos = 0;
  double p = 0.0;
  try {
    p = std::stod(value, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != value.size() || !(p >= 0.0) || !(p <= 1.0))
    bad_spec(token, "expected a probability in [0, 1]");
  return p;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    const auto end = s.find(sep, start);
    if (end == std::string::npos) {
      parts.push_back(s.substr(start));
      return parts;
    }
    parts.push_back(s.substr(start, end - start));
    start = end + 1;
  }
}

// splitmix64: tiny, seedable, and stateful enough for per-call coin flips.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---- diagnostics hook ------------------------------------------------------

std::atomic<LogFn> g_log_fn{nullptr};

// ---- global plan -----------------------------------------------------------

std::atomic<FaultPlan*> g_plan{nullptr};

// Set once the environment has been consulted — by load_env_plan() from a
// tool's main(), or by active_plan()'s lazy fallback — so the plan is
// parsed, installed, and announced exactly once per process.
std::atomic<bool> g_env_consulted{false};

void install_env_plan_or_die() {
  if (g_env_consulted.exchange(true, std::memory_order_acq_rel)) return;
  const char* spec = std::getenv("PIMA_IOFAULT");
  if (spec == nullptr || spec[0] == '\0') return;
  try {
    install_plan(FaultPlan::parse(spec));
    emit_log(LogSeverity::kInfo, "iofault.active",
             (std::string("I/O fault injection ACTIVE (PIMA_IOFAULT=") +
              spec + ")")
                 .c_str());
  } catch (const std::exception& e) {
    // Surfacing a typed error from an arbitrary syscall wrapper would hand
    // callers an exception they never expected from write(2); fail the
    // whole process loudly instead. Tools that want the typed path call
    // load_env_plan() from main() first.
    emit_log(LogSeverity::kError, "iofault.bad_plan", e.what());
    std::exit(2);
  }
}

FaultPlan* active_plan() {
  // One guarded init ever; afterwards this is a flag check plus a relaxed
  // atomic load — the "no plan" passthrough cost.
  static const bool env_loaded = [] {
    install_env_plan_or_die();
    return true;
  }();
  (void)env_loaded;
  return g_plan.load(std::memory_order_acquire);
}

[[noreturn]] void crash_now() {
  counter_state().crash_points.fetch_add(1, std::memory_order_relaxed);
  counter_state().injected_total.fetch_add(1, std::memory_order_relaxed);
  // No atexit handlers, no stream flushes, no destructors: the closest
  // portable stand-in for SIGKILL-at-this-instruction.
  std::_Exit(kCrashExitCode);
}

}  // namespace

// ---- FaultPlan -------------------------------------------------------------

struct FaultPlan::Impl {
  std::mutex mutex;
};

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  plan.spec_ = spec;
  plan.impl_ = std::make_shared<Impl>();
  for (const std::string& raw : split(spec, ';')) {
    if (raw.empty()) continue;
    if (raw.rfind("seed=", 0) == 0) {
      plan.seed_ = parse_u64(raw, raw.substr(5));
      continue;
    }
    const auto fields = split(raw, ':');
    if (fields.size() != 3)
      bad_spec(raw, "expected op[@site]:trigger:action");
    Rule rule;
    // op[@site]
    const auto at = fields[0].find('@');
    rule.op = parse_op(fields[0].substr(0, at));
    if (at != std::string::npos) rule.site = fields[0].substr(at + 1);
    // trigger
    const std::string& trigger = fields[1];
    if (trigger.rfind("nth=", 0) == 0) {
      rule.nth = parse_u64(trigger, trigger.substr(4));
      if (rule.nth == 0) bad_spec(trigger, "nth is 1-based");
    } else if (trigger.rfind("p=", 0) == 0) {
      rule.probability = parse_probability(trigger, trigger.substr(2));
    } else if (trigger == "always") {
      rule.always = true;
    } else {
      bad_spec(trigger, "expected nth=K, p=F or always");
    }
    // action
    const std::string& action = fields[2];
    if (action.rfind("errno=", 0) == 0) {
      rule.action = Decision::Kind::kErrno;
      rule.err = parse_errno_name(action.substr(6));
    } else if (action.rfind("eintr=", 0) == 0) {
      rule.action = Decision::Kind::kErrno;
      rule.err = EINTR;
      rule.eintr_burst = parse_u64(action, action.substr(6));
      if (rule.eintr_burst == 0) bad_spec(action, "eintr burst must be >= 1");
    } else if (action == "short") {
      rule.action = Decision::Kind::kShort;
    } else if (action == "crash") {
      rule.action = Decision::Kind::kCrash;
    } else {
      bad_spec(action, "expected errno=NAME, eintr=K, short or crash");
    }
    plan.rules_.push_back(std::move(rule));
  }
  if (plan.rules_.empty())
    throw InputFormatError("PIMA_IOFAULT: spec contains no rules: '" + spec +
                           "'");
  plan.rng_state_ = plan.seed_;
  return plan;
}

FaultPlan::Decision FaultPlan::decide(Op op, const char* site) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (Rule& rule : rules_) {
    if (rule.op != Op::kAny && rule.op != op) continue;
    if (!rule.site.empty() &&
        (site == nullptr ||
         std::string_view(site).find(rule.site) == std::string_view::npos))
      continue;
    ++rule.calls_seen;
    // An armed EINTR storm consumes matching calls before new triggers.
    if (rule.storm_left > 0) {
      --rule.storm_left;
      return Decision{Decision::Kind::kErrno, EINTR};
    }
    bool fire = false;
    if (rule.nth > 0) {
      fire = !rule.fired && rule.calls_seen == rule.nth;
    } else if (rule.probability >= 0.0) {
      const double u =
          static_cast<double>(splitmix64(rng_state_) >> 11) * 0x1.0p-53;
      fire = u < rule.probability;
    } else {
      fire = rule.always;
    }
    if (!fire) continue;
    rule.fired = true;
    if (rule.eintr_burst > 0) {
      rule.storm_left = rule.eintr_burst - 1;  // this call is the first
      return Decision{Decision::Kind::kErrno, EINTR};
    }
    return Decision{rule.action, rule.err};
  }
  return Decision{};
}

// ---- plan installation -----------------------------------------------------

void install_plan(FaultPlan plan) {
  if (!plan.impl_) plan.impl_ = std::make_shared<FaultPlan::Impl>();
  FaultPlan* next = new FaultPlan(std::move(plan));
  FaultPlan* prev = g_plan.exchange(next, std::memory_order_acq_rel);
  delete prev;
}

void clear_plan() {
  FaultPlan* prev = g_plan.exchange(nullptr, std::memory_order_acq_rel);
  delete prev;
}

bool plan_active() { return active_plan() != nullptr; }

void set_log_fn(LogFn fn) { g_log_fn.store(fn, std::memory_order_release); }

void emit_log(LogSeverity severity, const char* code, const char* message) {
  const LogFn fn = g_log_fn.load(std::memory_order_acquire);
  if (fn != nullptr) {
    fn(severity, code, message);
    return;
  }
  std::fprintf(stderr, "fsio: %s\n", message);
}

void load_env_plan() {
  if (g_env_consulted.exchange(true, std::memory_order_acq_rel)) return;
  const char* spec = std::getenv("PIMA_IOFAULT");
  if (spec == nullptr || spec[0] == '\0') return;
  install_plan(FaultPlan::parse(spec));  // throws InputFormatError
  emit_log(LogSeverity::kInfo, "iofault.active",
           (std::string("I/O fault injection ACTIVE (PIMA_IOFAULT=") + spec +
            ")")
               .c_str());
}

Counters counters() {
  const auto& c = counter_state();
  Counters out;
  out.injected_total = c.injected_total.load(std::memory_order_relaxed);
  out.errno_injected = c.errno_injected.load(std::memory_order_relaxed);
  out.eintr_injected = c.eintr_injected.load(std::memory_order_relaxed);
  out.short_injected = c.short_injected.load(std::memory_order_relaxed);
  out.crash_points = c.crash_points.load(std::memory_order_relaxed);
  out.dirsync_failed = c.dirsync_failed.load(std::memory_order_relaxed);
  return out;
}

void reset_counters() {
  auto& c = counter_state();
  c.injected_total.store(0, std::memory_order_relaxed);
  c.errno_injected.store(0, std::memory_order_relaxed);
  c.eintr_injected.store(0, std::memory_order_relaxed);
  c.short_injected.store(0, std::memory_order_relaxed);
  c.crash_points.store(0, std::memory_order_relaxed);
  c.dirsync_failed.store(0, std::memory_order_relaxed);
}

// ---- wrapped syscalls ------------------------------------------------------

namespace {

/// Shared prologue: returns true (with *out / errno set) when the plan
/// decided this call's fate; false = execute the raw syscall.
/// `transferred` is the byte count a short transfer should report; pass 0
/// for non-transfer ops (short then degrades to EIO — a short fsync makes
/// no sense).
bool intercept(Op op, const char* site, std::size_t count,
               std::size_t* short_count, int* err) {
  FaultPlan* plan = active_plan();
  if (plan == nullptr) [[likely]]
    return false;
  const FaultPlan::Decision d = plan->decide(op, site);
  if (d.kind == FaultPlan::Decision::Kind::kNone) return false;
  if (d.kind == FaultPlan::Decision::Kind::kCrash) {
    // The caller handles the torn-write half itself for write/send (so
    // bytes genuinely land before the cut); everything else dies here,
    // just before the syscall would have happened.
    if (op == Op::kWrite || op == Op::kSend) {
      count_decision(d);
      *short_count = count / 2;
      *err = -1;  // sentinel: torn write then crash
      return true;
    }
    crash_now();
  }
  count_decision(d);
  if (d.kind == FaultPlan::Decision::Kind::kShort && count > 1) {
    *short_count = count / 2;
    *err = 0;
    return true;
  }
  *err = d.kind == FaultPlan::Decision::Kind::kErrno ? d.err : EIO;
  return true;
}

}  // namespace

int open(const char* path, int flags, unsigned mode, const char* site) {
  std::size_t short_count = 0;
  int err = 0;
  if (intercept(Op::kOpen, site, 0, &short_count, &err)) {
    errno = err;
    return -1;
  }
  return ::open(path, flags, static_cast<mode_t>(mode));
}

ssize_t read(int fd, void* buf, std::size_t count, const char* site) {
  std::size_t short_count = 0;
  int err = 0;
  if (intercept(Op::kRead, site, count, &short_count, &err)) {
    if (err == 0) return static_cast<ssize_t>(
        ::read(fd, buf, short_count));  // genuine short read
    errno = err;
    return -1;
  }
  return ::read(fd, buf, count);
}

ssize_t write(int fd, const void* buf, std::size_t count, const char* site) {
  std::size_t short_count = 0;
  int err = 0;
  if (intercept(Op::kWrite, site, count, &short_count, &err)) {
    if (err == -1) {  // torn write: land a prefix, then die
      if (short_count > 0) (void)::write(fd, buf, short_count);
      (void)::fsync(fd);  // make the torn prefix durable — worst case
      std::_Exit(kCrashExitCode);
    }
    if (err == 0) return static_cast<ssize_t>(::write(fd, buf, short_count));
    errno = err;
    return -1;
  }
  return ::write(fd, buf, count);
}

int fsync(int fd, const char* site) {
  std::size_t short_count = 0;
  int err = 0;
  if (intercept(Op::kFsync, site, 0, &short_count, &err)) {
    errno = err;
    return -1;
  }
  return ::fsync(fd);
}

int rename(const char* from, const char* to, const char* site) {
  std::size_t short_count = 0;
  int err = 0;
  if (intercept(Op::kRename, site, 0, &short_count, &err)) {
    errno = err;
    return -1;
  }
  return ::rename(from, to);
}

ssize_t send(int fd, const void* buf, std::size_t count, int flags,
             const char* site) {
  std::size_t short_count = 0;
  int err = 0;
  if (intercept(Op::kSend, site, count, &short_count, &err)) {
    if (err == -1) {  // torn send then crash
      if (short_count > 0) (void)::send(fd, buf, short_count, flags);
      std::_Exit(kCrashExitCode);
    }
    if (err == 0)
      return static_cast<ssize_t>(::send(fd, buf, short_count, flags));
    errno = err;
    return -1;
  }
  return ::send(fd, buf, count, flags);
}

int connect(int fd, const struct sockaddr* addr, socklen_t len,
            const char* site) {
  std::size_t short_count = 0;
  int err = 0;
  if (intercept(Op::kConnect, site, 0, &short_count, &err)) {
    errno = err;
    return -1;
  }
  return ::connect(fd, addr, len);
}

int socketpair(int domain, int type, int protocol, int sv[2],
               const char* site) {
  std::size_t short_count = 0;
  int err = 0;
  if (intercept(Op::kSocketpair, site, 0, &short_count, &err) && err > 0) {
    errno = err;
    return -1;
  }
  return ::socketpair(domain, type, protocol, sv);
}

pid_t waitpid(pid_t pid, int* status, int options, const char* site) {
  std::size_t short_count = 0;
  int err = 0;
  if (intercept(Op::kWaitpid, site, 0, &short_count, &err) && err > 0) {
    errno = err;
    return -1;
  }
  return ::waitpid(pid, status, options);
}

int kill(pid_t pid, int sig, const char* site) {
  std::size_t short_count = 0;
  int err = 0;
  if (intercept(Op::kKill, site, 0, &short_count, &err) && err > 0) {
    errno = err;
    return -1;
  }
  return ::kill(pid, sig);
}

// ---- hardened helpers ------------------------------------------------------

void atomic_write_file(const std::string& path, const std::string& content,
                       const char* site) {
  // The rename below would replace whatever sits at `path`: a FIFO, a
  // socket or a device node must stay what it is.
  struct stat st {};
  if (::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode))
    throw IoError("refusing to replace " + path + ": not a regular file");
  const std::string tmp = path + ".tmp";
  const int fd = fsio::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644,
                            site);
  if (fd < 0)
    throw IoError("cannot create " + tmp + ": " + std::strerror(errno));
  const char* data = content.data();
  std::size_t left = content.size();
  while (left > 0) {
    const ssize_t n = fsio::write(fd, data, left, site);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      throw IoError("write failed for " + tmp + ": " + std::strerror(err));
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  while (fsio::fsync(fd, site) != 0) {
    if (errno == EINTR) continue;
    const int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    throw IoError("fsync failed for " + tmp + ": " + std::strerror(err));
  }
  ::close(fd);
  while (fsio::rename(tmp.c_str(), path.c_str(), site) != 0) {
    if (errno == EINTR) continue;
    const int err = errno;
    ::unlink(tmp.c_str());
    throw IoError("cannot rename " + tmp + " to " + path + ": " +
                  std::strerror(err));
  }
  fsync_parent_dir(path, site);
}

void fsync_parent_dir(const std::string& path, const char* site) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  static std::atomic<bool> logged_once{false};
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0 || fsio::fsync(dfd, site) != 0) {
    counter_state().dirsync_failed.fetch_add(1, std::memory_order_relaxed);
    if (!logged_once.exchange(true, std::memory_order_acq_rel))
      emit_log(LogSeverity::kWarn, "io.dirsync_failed",
               ("directory fsync failed for " + dir + " (" +
                std::strerror(errno) +
                ") — renames are crash-atomic but their durability is not "
                "guaranteed on this filesystem (logged once; counted in "
                "pima_io_fault_dirsync_failed_total)")
                   .c_str());
  }
  if (dfd >= 0) ::close(dfd);
}

}  // namespace pima::fsio
