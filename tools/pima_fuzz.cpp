// pima_fuzz — AAP command-stream fuzzer against the golden model.
//
//   pima_fuzz [--seeds N] [--ops N] [--seed S] [--subarrays N]
//   pima_fuzz --replay trace.aap
//   pima_fuzz --inject-latch-flip [--ops N] [--seed S]
//
// Default mode generates one valid-by-construction random AAP program per
// seed (seeds S..S+N-1) and runs each through the differential harness:
// the production dram::Device and the naive golden model execute the same
// commands and every touched row, the carry latch and all read/reduce
// results are diffed. Any divergence is shrunk to a minimal repro and
// printed in replayable ISA text; the exit code is the number of diverging
// seeds (0 = models agree).
//
// --replay runs a captured program (`pima_asm pim-run --dump-trace`)
// through the same harness instead of generating one.
//
// --inject-latch-flip is the self-test: it flips one carry-latch bit in the
// production device only, demonstrates that the harness reports the
// resulting divergence, and that the shrinker reduces the random program
// around it to a minimal repro. Exits 0 iff the flip was caught and the
// repro is minimal.
//
// --service fuzzes the daemon's NDJSON request parser instead of the DRAM
// models: it starts an in-process daemon on a throwaway state dir, fires a
// seeded corpus of malformed/mutated request lines at it, and asserts the
// protocol invariant — every non-empty request line gets exactly one
// parseable JSON response line (or a clean hangup), and the daemon still
// answers ping afterwards. Exit code = number of violated inputs.
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/pipeline.hpp"
#include "dna/sequence.hpp"
#include "dram/isa.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "verify/fuzz.hpp"

namespace {

using namespace pima;

[[noreturn]] void fail(const std::string& msg) {
  std::fprintf(stderr, "pima_fuzz: %s\n", msg.c_str());
  std::exit(2);
}

/// Strict non-negative integer flag value: the whole token, no sign.
std::uint64_t parse_count(const std::string& flag, const std::string& text) {
  std::uint64_t n = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, n);
  if (ec != std::errc{} || ptr != end)
    fail(flag + " must be a non-negative integer, got '" + text + "'");
  return n;
}

void usage() {
  std::puts(
      "usage: pima_fuzz [--seeds N] [--ops N] [--seed S] [--subarrays N]\n"
      "       pima_fuzz --replay trace.aap [--rows N] [--columns N]\n"
      "       pima_fuzz --inject-latch-flip [--ops N] [--seed S]\n"
      "       pima_fuzz --service [--seeds N] [--seed S]\n"
      "       pima_fuzz --threads N [--seeds N] [--seed S]\n"
      "--threads runs full pipelines on an engine of N channels (random\n"
      "reads per seed), checks the capture and contigs are bit-identical\n"
      "to a 1-channel run, and replays the capture through the golden\n"
      "model; exits with the number of diverging seeds.\n"
      "--service fuzzes the daemon's NDJSON request parser (in-process\n"
      "daemon on a temp dir); exits with the number of protocol-invariant\n"
      "violations (every request line -> one parseable response, daemon\n"
      "stays healthy).\n"
      "--rows/--columns must match the geometry the trace was captured\n"
      "under (pima_asm pim-run --rows/--columns); a mismatch is reported\n"
      "as a rejection divergence, not silently accepted.");
}

void print_divergence(const verify::Divergence& d) {
  std::printf("DIVERGENCE: %s\n", d.report().c_str());
}

void print_repro(const verify::ShrinkResult& shrunk) {
  std::printf("shrunk to %zu command(s) in %zu candidate run(s):\n",
              shrunk.program.size(), shrunk.candidates_run);
  std::fputs(dram::to_text(shrunk.program).c_str(), stdout);
  print_divergence(shrunk.divergence);
}

int run_replay(const std::string& path, verify::FuzzOptions opts) {
  std::ifstream in(path);
  if (!in) fail("cannot read trace: " + path);
  const dram::Program program = dram::parse_program(in);
  std::printf("replaying %zu command(s) from %s\n", program.size(),
              path.c_str());
  // A captured trace already executed once on the production device, so
  // every command must execute here too: symmetric rejection means the
  // replay geometry (--rows/--columns) does not match the capture.
  opts.diff.accept_symmetric_rejection = false;
  if (auto d = verify::run_candidate(program, opts)) {
    print_divergence(*d);
    if (auto shrunk = verify::shrink(program, opts)) print_repro(*shrunk);
    return 1;
  }
  std::puts("replay OK: production and golden models agree");
  return 0;
}

int run_inject_demo(verify::FuzzOptions opts) {
  dram::Program program = verify::generate_program(opts);
  // A TRA or latch reset early in the random stream would overwrite the
  // flipped latch in both models before anything reads it — the flip would
  // be genuinely unobservable. Front a sum cycle that consumes the latch so
  // the corruption always propagates into a row (which is also what makes
  // the shrunk repro interesting: one command suffices).
  dram::Instruction observe;
  observe.op = dram::Opcode::kSum;
  observe.subarray = 0;
  observe.src1 = opts.geometry.data_rows();
  observe.src2 = opts.geometry.data_rows() + 1;
  observe.dst = 0;
  program.insert(program.begin(), observe);
  const verify::Prelude flip = [](dram::Device& device) {
    device.subarray(std::size_t{0}).inject_latch_flip(0);
  };
  const auto d = verify::run_candidate(program, opts, flip);
  if (!d) {
    std::puts("FAIL: injected latch flip was not detected");
    return 1;
  }
  std::printf("injected latch flip detected over %zu command(s)\n",
              program.size());
  print_divergence(*d);
  const auto shrunk = verify::shrink(program, opts, flip);
  if (!shrunk) {
    std::puts("FAIL: shrinker lost the failure");
    return 1;
  }
  print_repro(*shrunk);
  if (shrunk->program.size() > 10) {
    std::puts("FAIL: repro not minimal (> 10 commands)");
    return 1;
  }
  std::puts("inject-latch-flip self-test OK");
  return 0;
}

// ---- service protocol fuzzing ---------------------------------------------

/// Seed corpus for the daemon's NDJSON parser: valid requests, truncations,
/// wrong-typed fields, unknown verbs, duplicate keys, non-UTF8 bytes, junk.
std::vector<std::string> service_corpus() {
  return {
      R"({"verb":"ping"})",
      R"({"verb":"list"})",
      R"({"verb":"metrics","format":"json"})",
      R"({"verb":"metrics","format":"yaml"})",
      R"({"verb":"status","job":"j0001"})",
      R"({"verb":"result","job":"nope","fetch":true})",
      R"({"verb":"cancel","job":""})",
      R"({"verb":"submit","reads":"/no/such.fa","k":17})",
      R"({"verb":"submit","reads":"/no/such.fa","k":-3})",
      R"({"verb":"submit","reads":"","k":17})",
      R"({"verb":"submit","reads":"/r.fa","k":"seventeen"})",
      R"({"verb":"submit","reads":"/r.fa","idempotency_key":"bad key!"})",
      // Channel-count and process-isolation job fields: zero, over the
      // clamp and wrong-typed threads (and an old client's `devices` key,
      // ignored like any unknown key); every isolation spelling the
      // validator must accept or reject with one typed error line.
      R"({"verb":"submit","reads":"/no/such.fa","threads":4,"devices":4})",
      R"({"verb":"submit","reads":"/r.fa","threads":0})",
      R"({"verb":"submit","reads":"/r.fa","threads":1025})",
      R"({"verb":"submit","reads":"/r.fa","threads":"four"})",
      R"({"verb":"submit","reads":"/no/such.fa","isolation":"process"})",
      R"({"verb":"submit","reads":"/no/such.fa","isolation":"none"})",
      R"({"verb":"submit","reads":"/r.fa","isolation":"container"})",
      R"({"verb":"submit","reads":"/r.fa","isolation":42})",
      R"({"verb":"submit","reads":"/r.fa","isolation":null})",
      R"({"verb":"submit","reads":"/r.fa","isolation":"PROCESS"})",
      // Truncated / structurally broken JSON.
      R"({"verb":"ping")",
      R"({"verb":)",
      R"({)",
      R"(])",
      R"("just a string")",
      R"(42)",
      R"(null)",
      R"({"verb":"ping"}trailing)",
      // Missing / wrong-typed verb.
      R"({})",
      R"({"verb":42})",
      R"({"verb":null})",
      R"({"verb":["ping"]})",
      R"({"job":"j0001"})",
      // Unknown verbs.
      R"({"verb":"frobnicate"})",
      R"({"verb":""})",
      R"({"verb":"PING"})",
      // Duplicate keys (last-wins vs reject — either way: one response).
      R"({"verb":"ping","verb":"list"})",
      R"({"verb":"status","job":"a","job":"b"})",
      // Non-UTF8 bytes inside and outside strings.
      std::string("{\"verb\":\"\x80\x81\xfe\"}"),
      std::string("{\"verb\":\"ping\"\xff}"),
      // Deep nesting and a long-but-bounded string.
      R"({"verb":"status","job":{"a":{"b":{"c":[[[[1]]]]}}}})",
      "{\"verb\":\"status\",\"job\":\"" + std::string(100'000, 'x') + "\"}",
  };
}

/// Deterministic byte-level mutation. Newlines are masked to spaces so a
/// mutant stays one protocol line.
std::string mutate_line(std::string s, std::mt19937_64& rng) {
  if (s.empty()) s = "{}";
  const auto pick = [&](std::size_t n) { return std::size_t(rng() % n); };
  switch (pick(4)) {
    case 0:  // flip a byte
      s[pick(s.size())] = static_cast<char>(rng() & 0xff);
      break;
    case 1:  // truncate
      s.resize(pick(s.size()) + 1);
      break;
    case 2: {  // duplicate a slice into a random spot
      const std::size_t a = pick(s.size()), b = pick(s.size());
      const auto slice = s.substr(std::min(a, b), std::max(a, b) - std::min(a, b) + 1);
      s.insert(pick(s.size()), slice);
      break;
    }
    default: {  // splice random bytes (often non-UTF8)
      std::string junk;
      for (std::size_t i = 0, n = pick(8) + 1; i < n; ++i)
        junk += static_cast<char>(rng() & 0xff);
      s.insert(pick(s.size()), junk);
      break;
    }
  }
  for (char& c : s)
    if (c == '\n' || c == '\r' || c == '\0') c = ' ';
  return s;
}

int run_service_fuzz(std::size_t seeds, std::uint64_t seed) {
  char dir_template[] = "/tmp/pima_fuzz_svc_XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) fail("mkdtemp failed");
  const std::string state_dir = dir_template;

  service::DaemonOptions opt;
  opt.state_dir = state_dir;
  opt.socket_path = state_dir + "/fuzz.sock";
  opt.admission.max_jobs = 1;
  opt.admission.queue_depth = 4096;  // junk submits may legitimately queue
  opt.admission.channel_budget = 4;
  opt.geometry.rows = 512;
  opt.geometry.columns = 256;
  opt.geometry.subarrays_per_mat = 16;
  opt.geometry.mats_per_bank = 4;
  opt.geometry.banks = 2;
  service::Daemon daemon(opt);
  std::thread server([&] { daemon.run(); });

  const auto ping_ok = [&]() -> bool {
    try {
      auto c = service::Client::connect_unix_socket(opt.socket_path, 10.0);
      return c.request(net::Json::parse(R"({"verb":"ping"})"))
          .get_bool("ok", false);
    } catch (const std::exception&) {
      return false;
    }
  };
  for (int i = 0; i < 100 && !ping_ok(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

  const auto corpus = service_corpus();
  std::mt19937_64 rng{seed};
  int violations = 0;
  for (std::size_t s = 0; s < seeds; ++s) {
    std::string input = corpus[s % corpus.size()];
    if (s >= corpus.size()) input = mutate_line(input, rng);
    // A mutant that spells a shutdown verb would stop the daemon mid-run;
    // those paths have their own tests.
    if (input.find("drain") != std::string::npos ||
        input.find("shutdown") != std::string::npos)
      continue;
    bool ok = true;
    try {
      net::ScopedFd fd =
          net::connect_unix(opt.socket_path, 10.0);
      net::LineChannel channel(fd.get());
      channel.set_deadline(10.0);
      channel.write_line(input);
      std::string line;
      if (channel.read_line(line)) {
        net::Json response = net::Json::parse(line);  // must parse
        if (response.type() != net::Json::Type::kObject) ok = false;
      }
      // EOF without a response = clean hangup; acceptable for abuse lines.
    } catch (const std::exception& e) {
      std::printf("input %zu: transport error: %s\n", s, e.what());
      ok = false;
    }
    if (ok && !ping_ok()) {
      std::printf("input %zu: daemon unhealthy afterwards\n", s);
      ok = false;
    }
    if (!ok) {
      ++violations;
      std::printf("VIOLATION on input %zu: %.120s\n", s, input.c_str());
    }
  }

  daemon.request_shutdown();
  server.join();
  std::error_code ec;
  std::filesystem::remove_all(state_dir, ec);
  if (violations == 0)
    std::printf("service fuzz: %zu input(s), protocol invariant held\n",
                seeds);
  return violations;
}

// ---- sharded end-to-end differential ---------------------------------------

/// Deterministic random reads: a fresh genome per seed, tiled with
/// overlapping fixed-length windows (uniform ~4x coverage).
std::vector<dna::Sequence> synth_reads(std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  constexpr std::size_t kGenome = 400, kRead = 60, kStep = 15;
  std::string genome;
  genome.reserve(kGenome);
  const char bases[] = "ACGT";
  for (std::size_t i = 0; i < kGenome; ++i) genome += bases[rng() % 4];
  std::vector<dna::Sequence> reads;
  for (std::size_t pos = 0; pos + kRead <= genome.size(); pos += kStep)
    reads.push_back(dna::Sequence::from_string(
        std::string_view(genome).substr(pos, kRead)));
  return reads;
}

/// End-to-end channel differential: run the full pipeline on an engine of
/// `threads` channels with trace capture on, then (a) check the capture
/// and the contigs are bit-identical to a 1-channel run of the same reads,
/// and (b) replay the capture through the golden model. Exit code = number
/// of diverging seeds.
int run_channels_fuzz(std::size_t threads, std::size_t seeds,
                      verify::FuzzOptions opts) {
  dram::Geometry geom;  // pima_asm pim-run default geometry
  geom.rows = 512;
  geom.columns = 256;
  geom.subarrays_per_mat = 16;
  geom.mats_per_bank = 4;
  geom.banks = 2;
  opts.geometry = geom;
  // Captured traces already executed once on the production engine —
  // every command must execute in the replay too.
  opts.diff.accept_symmetric_rejection = false;

  int diverging = 0;
  for (std::size_t s = 0; s < seeds; ++s) {
    const std::uint64_t seed = opts.seed + s;
    const auto reads = synth_reads(seed);

    core::PipelineOptions popt;
    popt.k = 17;
    popt.hash_shards = 16;
    popt.capture_trace = true;

    popt.threads = threads;
    dram::Device multi_dev(geom);
    const auto multi = core::run_pipeline(multi_dev, reads, popt);

    popt.threads = 1;
    dram::Device single_dev(geom);
    const auto single = core::run_pipeline(single_dev, reads, popt);

    if (multi.trace != single.trace || multi.contigs != single.contigs) {
      std::printf(
          "seed %llu: DIVERGENCE: %zu-channel run differs from 1-channel "
          "(trace %zu vs %zu commands, %zu vs %zu contigs)\n",
          static_cast<unsigned long long>(seed), threads, multi.trace.size(),
          single.trace.size(), multi.contigs.size(), single.contigs.size());
      ++diverging;
      continue;
    }
    if (auto div = verify::run_candidate(multi.trace, opts)) {
      std::printf("seed %llu (%zu commands): ",
                  static_cast<unsigned long long>(seed), multi.trace.size());
      print_divergence(*div);
      ++diverging;
      continue;
    }
    std::printf("seed %llu: OK (%zu channels, %zu captured commands)\n",
                static_cast<unsigned long long>(seed), threads,
                multi.trace.size());
  }
  if (diverging == 0)
    std::printf(
        "all %zu seed(s): %zu-channel capture matches 1-channel and the "
        "golden model\n",
        seeds, threads);
  return diverging;
}

int run_fuzz(std::size_t seeds, const verify::FuzzOptions& base) {
  int diverging = 0;
  for (std::size_t i = 0; i < seeds; ++i) {
    verify::FuzzOptions opts = base;
    opts.seed = base.seed + i;
    const dram::Program program = verify::generate_program(opts);
    if (auto d = verify::run_candidate(program, opts)) {
      ++diverging;
      std::printf("seed %llu: ", static_cast<unsigned long long>(opts.seed));
      print_divergence(*d);
      if (auto shrunk = verify::shrink(program, opts)) print_repro(*shrunk);
    } else {
      std::printf("seed %llu: OK (%zu commands)\n",
                  static_cast<unsigned long long>(opts.seed), program.size());
    }
  }
  if (diverging == 0)
    std::printf("all %zu seed(s) agree with the golden model\n", seeds);
  return diverging;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t seeds = 8;
  verify::FuzzOptions opts;
  opts.ops = 500;
  std::optional<std::string> replay;
  bool inject = false;
  bool service = false;
  std::size_t threads = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) fail("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--seeds")
      seeds = parse_count(arg, value());
    else if (arg == "--ops")
      opts.ops = parse_count(arg, value());
    else if (arg == "--seed")
      opts.seed = parse_count(arg, value());
    else if (arg == "--subarrays")
      opts.subarrays = parse_count(arg, value());
    else if (arg == "--rows")
      opts.geometry.rows = parse_count(arg, value());
    else if (arg == "--columns")
      opts.geometry.columns = parse_count(arg, value());
    else if (arg == "--replay")
      replay = value();
    else if (arg == "--inject-latch-flip")
      inject = true;
    else if (arg == "--service")
      service = true;
    else if (arg == "--threads") {
      threads = parse_count(arg, value());
      if (threads < 1 || threads > 64) fail("--threads must be in [1, 64]");
    }
    else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      fail("unknown flag: " + arg);
    }
  }

  try {
    if (replay) return run_replay(*replay, opts);
    if (inject) return run_inject_demo(opts);
    if (service) return run_service_fuzz(seeds, opts.seed);
    if (threads > 0) return run_channels_fuzz(threads, seeds, opts);
    return run_fuzz(seeds, opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pima_fuzz: %s\n", e.what());
    return 2;
  }
}
