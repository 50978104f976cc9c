// pima_devd — the device worker of a process-isolated assembly run.
//
// Spawned by runtime::ProcSupervisor with the request socket on an
// inherited fd (`--fd N`). The process is a thin I/O loop
// around core::ShardWorkerCore: read one NDJSON request line, dispatch,
// write one response line. A wedged kernel is caught by the engine
// watchdog (`--stall-timeout`), which ends the worker with exit 6.
//
// Exit protocol (the supervisor classifies on these):
//   0   clean — shutdown handshake, or orphaned (EOF on the socket)
//   6   the engine watchdog fired (EngineStalledError; reported first)
//   86  fsio crash-point (torn-write chaos), taken by the fault shim
//   else exit_code_for() of whatever escaped main
//
// PIMA_DEVD_TEST_HOOK drives the kill-and-recover battery:
//   after=<N>:action=<sigkill|segv|exit86|torn>[:op=<verb>][:flag=<path>]
// After handling N requests the action fires, before the Nth
// response is written — once, when a flag path is given (the file is
// created before crashing, so a restarted worker survives the same
// environment). With op, only requests of that verb count, so a crash can
// target one batched request (e.g. op=degree_block:after=1).
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common/error.hpp"
#include "common/fsio.hpp"
#include "core/shard_worker.hpp"
#include "net/json.hpp"
#include "net/socket.hpp"
#include "telemetry/session.hpp"

namespace {

using pima::net::Json;
using pima::net::LineChannel;

struct TestHook {
  bool armed = false;
  std::size_t after = 0;
  std::string action;
  std::string op;    ///< only requests of this verb count; empty = all
  std::string flag;  ///< fire-once marker file; empty = fire every life
};

TestHook parse_test_hook(const char* spec) {
  TestHook hook;
  if (spec == nullptr || *spec == '\0') return hook;
  std::string s(spec);
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t colon = s.find(':', pos);
    const std::string field =
        s.substr(pos, colon == std::string::npos ? colon : colon - pos);
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos)
      throw pima::InputFormatError("PIMA_DEVD_TEST_HOOK: bad field '" + field +
                                   "'");
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "after")
      hook.after = static_cast<std::size_t>(std::stoull(value));
    else if (key == "action")
      hook.action = value;
    else if (key == "op")
      hook.op = value;
    else if (key == "flag")
      hook.flag = value;
    else
      throw pima::InputFormatError("PIMA_DEVD_TEST_HOOK: unknown key '" + key +
                                   "'");
    if (colon == std::string::npos) break;
    pos = colon + 1;
  }
  if (hook.action != "sigkill" && hook.action != "segv" &&
      hook.action != "exit86" && hook.action != "torn")
    throw pima::InputFormatError("PIMA_DEVD_TEST_HOOK: unknown action '" +
                                 hook.action + "'");
  hook.armed = true;
  return hook;
}

/// Fires the configured crash action. Creating the flag file first makes
/// the hook one-shot across restarts: the respawned worker sees the file
/// and stays healthy.
[[noreturn]] void fire_test_hook(const TestHook& hook, int fd) {
  if (!hook.flag.empty()) {
    const int flag_fd =
        ::open(hook.flag.c_str(), O_CREAT | O_WRONLY | O_CLOEXEC, 0644);
    if (flag_fd >= 0) ::close(flag_fd);
  }
  if (hook.action == "sigkill") {
    ::raise(SIGKILL);
  } else if (hook.action == "segv") {
    ::raise(SIGSEGV);
  } else if (hook.action == "exit86") {
    ::_exit(86);
  } else {  // torn: half a response line, no newline, then a "clean" exit
    const char torn[] = "{\"ok\":tr";
    (void)!::write(fd, torn, sizeof(torn) - 1);
    ::_exit(0);
  }
  ::_exit(86);  // unreachable; raise() of a fatal signal does not return
}

// The request's verb, or "" when it has none (the hook must not throw).
std::string request_op(const Json& request) {
  if (!request.is_object()) return {};
  const Json& op = request.get("op");
  return op.is_string() ? op.as_string() : std::string{};
}

bool hook_already_fired(const TestHook& hook) {
  if (hook.flag.empty()) return false;
  return ::access(hook.flag.c_str(), F_OK) == 0;
}

int run(int fd) {
#ifdef __linux__
  // Die with the supervisor: an abandoned worker must not outlive the run.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
  ::signal(SIGPIPE, SIG_IGN);
  pima::fsio::load_env_plan();
  TestHook hook = parse_test_hook(std::getenv("PIMA_DEVD_TEST_HOOK"));
  if (hook.armed && hook_already_fired(hook)) hook.armed = false;

  LineChannel channel(fd);
  std::unique_ptr<pima::core::ShardWorkerCore> core;
  std::size_t handled = 0;
  std::string line;
  while (channel.read_line(line)) {
    Json request;
    try {
      request = Json::parse(line);
    } catch (const std::exception& e) {
      channel.write_line(
          pima::core::worker_error_response(
              pima::InputFormatError(std::string("unparseable request: ") +
                                     e.what()))
              .dump());
      continue;
    }
    Json response;
    bool stalled = false;
    try {
      if (!core) {
        if (request.get_string("op") != "init")
          throw pima::InputFormatError(
              "device worker: first request must be init");
        // Span tracing must be live BEFORE the engine exists: enable()
        // clears track names, and the engine names its channel/watchdog
        // tracks from its constructor. A modest per-thread ring keeps the
        // telemetry-verb response line far below the channel's frame cap.
        if (request.get_bool("trace_spans", false)) {
          pima::telemetry::Tracer& tr = pima::telemetry::tracer();
          tr.enable(1 << 14);
          tr.set_thread_track(0);
          tr.set_track_name(0, "rpc loop");
        }
        core = std::make_unique<pima::core::ShardWorkerCore>(request);
        response = Json::object();
        response.set("ok", true);
        // Clock-sync sample: the supervisor brackets this request with its
        // own timestamps and shifts this incarnation's spans accordingly.
        if (pima::telemetry::tracer().enabled())
          response.set("now_ns", pima::telemetry::tracer().now_ns());
      } else {
        response = core->handle(request);
      }
    } catch (const pima::EngineStalledError& e) {
      response = pima::core::worker_error_response(e);
      stalled = true;
    } catch (const std::exception& e) {
      response = pima::core::worker_error_response(e);
    }
    const bool counted = hook.op.empty() || request_op(request) == hook.op;
    if (counted) ++handled;
    if (hook.armed && counted && handled >= hook.after)
      fire_test_hook(hook, fd);
    channel.write_line(response.dump());
    if (stalled) {
      // The engine is poisoned past a stall; report, then die with the
      // documented code so the supervisor's classification is typed.
      ::_exit(pima::kExitEngineStalled);
    }
    if (core && core->shutdown_requested()) return 0;
  }
  // EOF without a shutdown handshake: the parent vanished (or tore the
  // stream). Exit 0 — the supervisor classifies mid-run EOF as kTorn from
  // its own side; an orphan after shutdown is simply clean.
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int fd = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fd" && i + 1 < argc) {
      fd = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: pima_devd --fd <fd>\n"
                   "(internal worker of `pima_asm pim-run --isolate`; not "
                   "meant to be run by hand)\n");
      return pima::kExitUsage;
    }
  }
  if (fd < 0) {
    std::fprintf(stderr, "pima_devd: --fd is required\n");
    return pima::kExitUsage;
  }
  try {
    return run(fd);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pima_devd: %s\n", e.what());
    return pima::exit_code_for(e);
  }
}
