#!/usr/bin/env python3
"""Repo benchmark of the PIM-Assembler reproduction (the paper's Fig. 5
pipeline: hashmap -> de Bruijn -> traverse), run through the shipped
binaries and the library's public functions.

Run from the root of a checkout:

    python3 perfbench/run.py --workload traverse_serial --seed 1 \
        --seconds 20 --trace 0

The first run builds `pima_asm`, `pima_devd` and the layer probes into
.bench_build/ with the repository's own CMake files. Inputs come from
`pima_asm generate --seed <seed>` before timing starts. Every unit of work
is checked against the outputs recorded for the seed in expected.json (or,
for an unrecorded seed, against the first unit of the run). The last line
of stdout is one JSON object:
    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
with the end-to-end metrics for --trace 0 and the per-layer metrics of a
separate traced run for --trace 1. NOTES.md explains every workload and
metric. `--record SEEDS` (e.g. `--record 0-15,7919`) re-records
expected.json after a change that is meant to move model outputs.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import service
import traceagg

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
EXPECTED = os.path.join(HERE, "expected.json")

STAGES = ("hashmap", "debruijn", "traverse")
COMMAND_KINDS = ("ROW_READ", "ROW_WRITE", "AAP_COPY", "AAP_2ROW", "AAP_TRA",
                 "SUM_CYCLE", "DPU_REDUCE")
RPC_VERBS = ("kmers", "program", "degree_block", "extract", "stats")

WORKLOADS = {
    # The ROADMAP's fixed workload: one inline channel, traverse-dominated.
    "traverse_serial": {
        "generate": ["--length", "20000", "--coverage", "15",
                     "--repeats", "0"],
        "flags": ["--k", "17", "--shards", "64", "--threads", "1"],
    },
    # Deep coverage of a short genome: the hash-table probe dominates and
    # every k-mer batch crosses the two-channel engine hand-off.
    "kmer_dense": {
        "generate": ["--length", "6000", "--coverage", "600",
                     "--repeats", "0"],
        "flags": ["--k", "17", "--shards", "64", "--threads", "2"],
    },
    # Two device shards in pima_devd worker processes.
    "isolated_2dev": {
        "generate": ["--length", "10000", "--coverage", "15",
                     "--repeats", "0"],
        "flags": ["--k", "17", "--shards", "64", "--threads", "1",
                  "--devices", "2", "--isolate"],
    },
    # Small jobs in a closed loop against `pima_asm serve`.
    "service_small_jobs": {
        "generate": ["--length", "1500", "--coverage", "15",
                     "--repeats", "0"],
        "job": {"k": 17, "shards": 16, "threads": 1},
    },
}

MIN_UNITS = 3            # pipeline runs per timed phase, at least
SETUP_REPS = 9           # set-up measurements per run (median reported)
SERVICE_SETUP_REPS = 5   # daemon starts per run (plus the timed daemon)
BATCH_JOBS = 20          # service jobs per timed unit
RSS_BATCHES = 5          # service peak RSS is read after this many batches
WARMUP_JOBS = 3          # checked service jobs before timing starts
UNIT_TIMEOUT_S = 150.0

class BenchError(Exception):
    """A failure that leaves the run without a result."""


# ---- building -------------------------------------------------------------

class Binaries:
    def __init__(self, build_dir):
        self.pima_asm = os.path.join(build_dir, "pima", "tools", "pima_asm")
        self.layers = os.path.join(build_dir, "perfbench_layers")


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                   os.path.join("tools", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            raise BenchError(f"{needed} not found: run from a full checkout")
    build_dir = os.path.join(BUILD, "cmake")
    log_path = os.path.join(BUILD, "build.log")
    os.makedirs(BUILD, exist_ok=True)
    steps = [["cmake", "--build", build_dir, "-j", "4", "--target",
              "pima_asm", "pima_devd", "perfbench_layers"]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", os.path.join(HERE, "layers"), "-B",
                         build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "ab") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                raise BenchError(f"build failed: {' '.join(step)} "
                                 f"(log: {log_path})")
    return Binaries(build_dir)


# ---- processes ------------------------------------------------------------

def run_measured(cmd, log_path, timeout=UNIT_TIMEOUT_S):
    """Runs `cmd` in its own process group with stdout+stderr to log_path.

    Returns (exit code, wall s, cpu s, peak rss MB). CPU and peak RSS come
    from wait4, so they cover the process and every child it reaped (the
    pima_devd workers of an isolated run)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = threading.Timer(timeout, os.killpg, [proc.pid, signal.SIGKILL])
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            service.stop_group(proc)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def check_call(cmd, log_path):
    with open(log_path, "wb") as log:
        if subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                          timeout=UNIT_TIMEOUT_S).returncode != 0:
            raise BenchError(f"{' '.join(cmd)} failed (log: {log_path})")
    with open(log_path) as f:
        return f.read()


def generate(bins, workload, seed, rundir):
    genome = os.path.join(rundir, "genome.fa")
    reads = os.path.join(rundir, "reads.fa")
    check_call([bins.pima_asm, "generate", "--genome", genome, "--reads",
                reads, "--seed", str(seed), *WORKLOADS[workload]["generate"]],
               os.path.join(rundir, "generate.log"))
    return genome, reads


# ---- outputs and checks ---------------------------------------------------

CONTIGS_RE = re.compile(r"^contigs: (\d+), N50 (\d+) bp$", re.M)
VERIFY_RE = re.compile(r"^verify: (\d+)/(\d+) contigs match", re.M)


STAGE_FIELDS = {"pima_stage_commands_total": "commands",
                "pima_stage_time_ns_total": "time_ns",
                "pima_stage_energy_pj_total": "energy_pj"}


def fold_snapshot(metrics):
    """The parts of a JSON metrics snapshot the benchmark uses, keyed by the
    `job` label (None for a `pim-run` snapshot)."""
    per_job = {}
    for m in metrics:
        labels = m.get("labels", {})
        snap = per_job.setdefault(labels.get("job"), {
            "stages": {}, "kinds": {}, "latency_count": 0, "latency_sum": 0.0})
        if m["name"] in STAGE_FIELDS:
            field = STAGE_FIELDS[m["name"]]
            value = int(m["value"]) if field == "commands" else m["value"]
            snap["stages"].setdefault(labels["stage"], {})[field] = value
        elif m["name"] == "pima_dram_commands_total":
            snap["kinds"][labels["kind"]] = int(m["value"])
        elif m["name"] == "pima_engine_task_latency_ns":
            snap["latency_count"] += m["count"]
            snap["latency_sum"] += m["sum"]
    return per_job


def read_snapshot(path):
    with open(path) as f:
        return fold_snapshot(json.load(f)["metrics"])[None]


def parse_pim_run(stdout, snapshot):
    """Model-class outputs of one pim-run: contig count, N50, the
    --reference verify line and the exact per-stage model totals."""
    contigs = CONTIGS_RE.search(stdout)
    if not contigs:
        raise BenchError("pim-run printed no contig line")
    out = {"contigs": int(contigs[1]), "n50": int(contigs[2]),
           "stages": snapshot["stages"]}
    verify = VERIFY_RE.search(stdout)
    if verify:
        out["verify"] = f"{verify[1]}/{verify[2]}"
    return out


def check_outputs(got, expected):
    """Mismatches between a unit's outputs and the expected outputs."""
    errors = [f"{key}: got {got.get(key)!r}, expected {expected.get(key)!r}"
              for key in sorted(set(got) | set(expected))
              if got.get(key) != expected.get(key)]
    if "verify" in got:
        matching, checked = got["verify"].split("/")
        if matching != checked or checked == "0":
            errors.append(f"verify: {got['verify']} contigs match")
    return errors


def load_expected(workload, seed):
    try:
        with open(EXPECTED) as f:
            return json.load(f).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None


def sim_totals(stages):
    ordered = [stages.get(s, {}) for s in STAGES]
    return {
        "sim_time_us": sum(s.get("time_ns", 0.0) for s in ordered) / 1e3,
        "sim_energy_uj": sum(s.get("energy_pj", 0.0) for s in ordered) / 1e6,
        "sim_commands": sum(s.get("commands", 0) for s in ordered),
    }


class Ledger:
    """Counts attempted and failed units; keeps the expected outputs."""

    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def check(self, what, outputs, extra_errors=()):
        """Checks one unit. Without recorded outputs for the seed the first
        unit's outputs become the reference for the rest of the run."""
        self.attempted += 1
        errors = list(extra_errors)
        if outputs is not None:
            if self.expected is None and not errors:
                self.expected = outputs
            errors += check_outputs(outputs, self.expected or {})
        elif not errors:
            errors.append("no outputs")
        if errors:
            self.failed += 1
            print(f"perfbench: {what} failed its output check: "
                  + "; ".join(errors)[:2000], file=sys.stderr)
        return not errors


def end_to_end_metrics(walls, setup, cpus, rss_mb, latencies, stages):
    metrics = {
        "wall_s": median(walls),
        "setup_s": median(setup),
        "cpu_s": median(cpus),
        "peak_rss_mb": rss_mb,
        "job_p50_ms": 1e3 * median(latencies),
        "job_p90_ms": 1e3 * p90(latencies),
    }
    metrics.update(sim_totals(stages))
    return metrics


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# ---- pipeline workloads ---------------------------------------------------

def pim_run(bins, flags, reads, rundir, tag, reference=None, trace=False):
    """One `pim-run` process; returns its measurements and parsed outputs."""
    log = os.path.join(rundir, f"{tag}.log")
    prom = os.path.join(rundir, f"{tag}.prom")
    cmd = [bins.pima_asm, "pim-run", "--reads", reads, *flags,
           "--metrics-out", prom]
    if reference:
        cmd += ["--reference", reference]
    if trace:
        cmd += ["--trace-json", os.path.join(rundir, f"{tag}.trace.json")]
    rc, wall, cpu, rss = run_measured(cmd, log)
    unit = {"rc": rc, "wall_s": wall, "cpu_s": cpu, "rss_mb": rss,
            "outputs": None, "snapshot": None}
    if rc == 0:
        with open(log) as f:
            stdout = f.read()
        unit["snapshot"] = read_snapshot(prom + ".json")
        unit["outputs"] = parse_pim_run(stdout, unit["snapshot"])
    return unit


def check_unit(ledger, what, unit):
    errors = [] if unit["rc"] == 0 else [f"exit code {unit['rc']}"]
    return ledger.check(what, unit["outputs"], errors)


def setup_samples(bins, flags, reads, rundir):
    """Host time of a pim-run whose input is one read: process start,
    Device construction, engine workers and, isolated, the pima_devd
    spawn, init and shutdown — what every run pays before its work."""
    tiny = os.path.join(rundir, "one_read.fa")
    with open(reads) as src, open(tiny, "w") as dst:
        dst.write(src.readline() + src.readline())
    samples = []
    for i in range(SETUP_REPS):
        unit = pim_run(bins, flags, tiny, rundir, "setup")
        if unit["rc"] != 0:
            raise BenchError(f"set-up run {i} exited with {unit['rc']}")
        samples.append(unit["wall_s"])
    return samples


def pipeline_end_to_end(bins, workload, seed, seconds, rundir):
    flags = WORKLOADS[workload]["flags"]
    genome, reads = generate(bins, workload, seed, rundir)
    setup = setup_samples(bins, flags, reads, rundir)
    ledger = Ledger(load_expected(workload, seed))
    units = []
    t0 = time.perf_counter()
    while len(units) < MIN_UNITS or time.perf_counter() - t0 < seconds:
        unit = pim_run(bins, flags, reads, rundir, "unit", reference=genome)
        if check_unit(ledger, f"{workload} run {len(units)}", unit):
            units.append(unit)
        elif ledger.failed >= MIN_UNITS:
            break
    # A job here is one pim-run process.
    walls = [u["wall_s"] for u in units]
    return ledger, end_to_end_metrics(
        walls, setup, [u["cpu_s"] for u in units],
        median([u["rss_mb"] for u in units]), walls,
        ledger.expected["stages"] if ledger.expected else {})


def run_micro(bins, rundir):
    out = check_call([bins.layers, "micro"], os.path.join(rundir, "micro.log"))
    return json.loads(out.strip().splitlines()[-1])


def layer_metrics(micro, plain, traced, agg):
    """Per-layer metrics from the probes, an untraced and a traced unit of
    the same work, and the aggregated trace. Layers a workload bypasses
    read 0."""
    snap = traced["snapshot"]
    m = dict(micro)
    for kind in COMMAND_KINDS:
        m[f"cmds.{kind}"] = snap["kinds"].get(kind, 0)
    commands = sim_totals(snap["stages"])["sim_commands"]
    m["host_ns_per_cmd"] = 1e9 * plain["wall_s"] / commands if commands else 0
    m["engine.tasks_retired"] = agg["worker_tasks"]
    m["engine.inline_tasks"] = agg["inline_tasks"]
    m["engine.task_latency_mean_us"] = (
        snap["latency_sum"] / snap["latency_count"] / 1e3
        if snap["latency_count"] else 0.0)
    spans = agg["spans"]
    for stage in STAGES:
        span = spans.get(f"stage:{stage}", {})
        m[f"stage.{stage}_s"] = span.get("total_s", 0.0)
        m[f"stage.{stage}_self_s"] = span.get("self_s", 0.0)
        m[f"stage.{stage}_cmds"] = snap["stages"].get(stage, {}).get(
            "commands", 0)
    for verb in RPC_VERBS:
        rpc = agg["rpc"].get(verb, {})
        wait, busy = rpc.get("wait_s", 0.0), rpc.get("exec_s", 0.0)
        m[f"procpool.{verb}.calls"] = rpc.get("calls", 0)
        m[f"procpool.{verb}.wait_s"] = wait
        m[f"procpool.{verb}.exec_s"] = busy
        m[f"procpool.{verb}.overhead_s"] = wait - busy
    m["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return m


def traced_pair(bins, ledger, what, flags, reads, rundir, reference=None):
    """An untraced and a traced unit of the same work, both checked."""
    plain = pim_run(bins, flags, reads, rundir, "plain", reference)
    traced = pim_run(bins, flags, reads, rundir, "traced", reference,
                     trace=True)
    check_unit(ledger, f"{what} untraced", plain)
    check_unit(ledger, f"{what} traced", traced)
    if plain["rc"] != 0 or traced["rc"] != 0:
        raise BenchError(f"{what}: pim-run failed")
    agg = traceagg.aggregate_file(os.path.join(rundir, "traced.trace.json"))
    return plain, traced, agg


def pipeline_per_layer(bins, workload, seed, rundir):
    flags = WORKLOADS[workload]["flags"]
    genome, reads = generate(bins, workload, seed, rundir)
    ledger = Ledger(load_expected(workload, seed))
    plain, traced, agg = traced_pair(bins, ledger, workload, flags, reads,
                                     rundir, genome)
    metrics = layer_metrics(run_micro(bins, rundir), plain, traced, agg)
    metrics.update({f"service.{p}_ms": 0.0 for p in SERVICE_PHASES})
    return ledger, metrics


# ---- service workload -----------------------------------------------------

SERVICE_PHASES = ("submit_ack", "dispatch", "finish", "result")


def job_flags():
    """The service job's spec as pim-run flags."""
    return [arg for key, value in WORKLOADS["service_small_jobs"]["job"].items()
            for arg in (f"--{key}", str(value))]


def standalone_reference(bins, reads, rundir):
    """The job's work run through core::run_pipeline directly: its outputs
    (contig count, N50, per-stage model totals) and the contigs file a job
    must fetch byte for byte."""
    fasta = os.path.join(rundir, "standalone.fa")
    out = check_call([bins.layers, "contigs", "--reads", reads, *job_flags(),
                      "--out", fasta], os.path.join(rundir, "standalone.log"))
    with open(fasta) as f:
        return json.loads(out.strip().splitlines()[-1]), f.read()


def run_job(daemon, reads, key):
    """Closed-loop client for one job: submit, follow, fetch. Returns the
    client-timed phases (s) and the job's terminal status and contigs."""
    job = WORKLOADS["service_small_jobs"]["job"]
    t_submit = time.perf_counter()
    ack = service.request(daemon.socket, {
        "verb": "submit", "reads": reads, "idempotency_key": key, **job})
    t_ack = time.perf_counter()
    if not ack.get("ok"):
        return None, ack, None
    lines = service.stream(daemon.socket, {"verb": "status", "job": ack["job"],
                                           "follow": True})
    final = lines[-1][1] if lines else {}
    t_running = next((t for t, s in lines if s.get("state") != "queued"),
                     None)
    t_stage3 = next((t for t, s in lines if s.get("stages_done") == 3
                     and s.get("state") == "running"), None)
    t_done = lines[-1][0] if lines else None
    t_fetch = time.perf_counter()
    result = service.request(daemon.socket, {"verb": "result",
                                             "job": ack["job"], "fetch": True})
    t_result = time.perf_counter()
    phases = {
        "job": t_done - t_submit if t_done else None,
        "submit_ack": t_ack - t_submit,
        "dispatch": t_running - t_ack if t_running else None,
        "finish": t_done - t_stage3 if t_stage3 else None,
        "result": t_result - t_fetch,
    }
    return phases, final, result


class JobRunner:
    """Runs and checks service jobs against the standalone reference."""

    def __init__(self, daemon, reads, reference, fasta, ledger, seed):
        self.daemon, self.reads, self.ledger = daemon, reads, ledger
        self.reference, self.fasta = reference, fasta
        self.prefix = f"pb-{seed}-{os.getpid()}-{time.time_ns()}"
        self.count = 0
        self.jobs = []  # (job id, phases) of every job that passed

    def run(self):
        key = f"{self.prefix}-{self.count}"
        self.count += 1
        phases, final, result = run_job(self.daemon, self.reads, key)
        errors = []
        if final.get("state") != "done":
            errors.append(f"job ended {final}")
        elif not result.get("ok") or result.get("fasta") != self.fasta:
            errors.append("fetched contigs differ from the standalone run")
        outputs = {"contigs": final.get("contigs"), "n50": final.get("n50"),
                   "stages": self.reference["stages"]}
        if self.ledger.check(f"service job {key}", outputs, errors):
            self.jobs.append((final["job"], phases))
        return phases if not errors else None

    def check_model_totals(self):
        """Each passed job's per-stage model totals, read back from the
        daemon's metrics, must equal the standalone run's."""
        body = service.request(self.daemon.socket,
                               {"verb": "metrics", "format": "json"})["body"]
        per_job = fold_snapshot(json.loads(body)["metrics"])
        kinds = {}
        for snap in per_job.values():
            for kind, count in snap["kinds"].items():
                kinds[kind] = kinds.get(kind, 0) + count
        bad = [job for job, _ in self.jobs
               if per_job.get(job, {}).get("stages")
               != self.reference["stages"]]
        if bad:
            # Those jobs were counted as passed; recount them as failed.
            self.ledger.failed += len(bad)
            print(f"perfbench: {len(bad)} service jobs (first {bad[0]}) "
                  "differ from the standalone model totals", file=sys.stderr)
        return kinds


def service_setup(bins, workload, seed, rundir):
    _, reads = generate(bins, workload, seed, rundir)
    reference, fasta = standalone_reference(bins, reads, rundir)
    ledger = Ledger(load_expected(workload, seed))
    if not ledger.check("standalone reference", reference):
        raise BenchError("standalone reference differs from expected.json")
    return reads, reference, fasta, ledger


def service_end_to_end(bins, workload, seed, seconds, rundir):
    reads, reference, fasta, ledger = service_setup(bins, workload, seed,
                                                    rundir)
    setup = []
    for i in range(SERVICE_SETUP_REPS):
        with service.Daemon(bins.pima_asm, os.path.join(rundir, f"d{i}"),
                            ROOT) as daemon:
            setup.append(daemon.setup_s)
    with service.Daemon(bins.pima_asm, os.path.join(rundir, "timed"),
                        ROOT) as daemon:
        setup.append(daemon.setup_s)
        runner = JobRunner(daemon, os.path.abspath(reads), reference, fasta,
                           ledger, seed)
        for _ in range(WARMUP_JOBS):
            runner.run()
        walls, cpus, latencies = [], [], []
        t0 = time.perf_counter()
        while len(walls) < MIN_UNITS or time.perf_counter() - t0 < seconds:
            b0, c0 = time.perf_counter(), service.proc_cpu_s(daemon.proc.pid)
            for _ in range(BATCH_JOBS):
                phases = runner.run()
                if phases:
                    latencies.append(phases["job"])
            walls.append(time.perf_counter() - b0)
            cpus.append(service.proc_cpu_s(daemon.proc.pid) - c0)
            if len(walls) == RSS_BATCHES:
                # The daemon's footprint grows with the jobs it has run, so
                # its peak is read at a fixed job count, not at the end.
                peak_rss = service.proc_peak_rss_mb(daemon.proc.pid)
            if ledger.failed >= BATCH_JOBS:
                break
        if len(walls) < RSS_BATCHES:
            peak_rss = service.proc_peak_rss_mb(daemon.proc.pid)
        runner.check_model_totals()
    return ledger, end_to_end_metrics(walls, setup, cpus, peak_rss, latencies,
                                      reference["stages"])


def service_per_layer(bins, workload, seed, seconds, rundir):
    reads, reference, fasta, ledger = service_setup(bins, workload, seed,
                                                    rundir)
    phases = {p: [] for p in SERVICE_PHASES}
    with service.Daemon(bins.pima_asm, os.path.join(rundir, "traced"),
                        ROOT) as daemon:
        runner = JobRunner(daemon, os.path.abspath(reads), reference, fasta,
                           ledger, seed)
        for _ in range(WARMUP_JOBS):
            runner.run()
        t0 = time.perf_counter()
        while len(runner.jobs) < 5 * BATCH_JOBS and (
                time.perf_counter() - t0 < seconds / 2):
            timed = runner.run() or {}
            for p in SERVICE_PHASES:
                if timed.get(p) is not None:
                    phases[p].append(timed[p])
        kinds = runner.check_model_totals()
        jobs = max(1, len(runner.jobs))
    # The daemon runs no tracer: stage and engine numbers come from the
    # same work as one job, run as a standalone pim-run.
    plain, traced, agg = traced_pair(bins, ledger, "service job input",
                                     job_flags(), reads, rundir)
    metrics = layer_metrics(run_micro(bins, rundir), plain, traced, agg)
    for kind in COMMAND_KINDS:  # per job, as the daemon counted them
        metrics[f"cmds.{kind}"] = kinds.get(kind, 0) // jobs
    for p in SERVICE_PHASES:
        metrics[f"service.{p}_ms"] = 1e3 * median(phases[p])
    return ledger, metrics


# ---- entry point ----------------------------------------------------------

def metric_units():
    """Unit of every metric, as BENCHMARK.json declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def run_workload(bins, workload, seed, seconds, trace, rundir):
    if workload == "service_small_jobs":
        if trace:
            return service_per_layer(bins, workload, seed, seconds, rundir)
        return service_end_to_end(bins, workload, seed, seconds, rundir)
    if trace:
        return pipeline_per_layer(bins, workload, seed, rundir)
    return pipeline_end_to_end(bins, workload, seed, seconds, rundir)


def record(bins, seeds, workloads):
    """Re-records expected.json for the given seeds."""
    try:
        with open(EXPECTED) as f:
            expected = json.load(f)
    except FileNotFoundError:
        expected = {}
    for workload in workloads:
        for seed in seeds:
            rundir = fresh_rundir(f"record-{workload}-{seed}")
            try:
                if workload == "service_small_jobs":
                    _, reads = generate(bins, workload, seed, rundir)
                    outputs, _ = standalone_reference(bins, reads, rundir)
                else:
                    genome, reads = generate(bins, workload, seed, rundir)
                    unit = pim_run(bins, WORKLOADS[workload]["flags"], reads,
                                   rundir, "unit", reference=genome)
                    if unit["rc"] != 0:
                        raise BenchError(f"{workload} seed {seed} failed")
                    outputs = unit["outputs"]
            finally:
                shutil.rmtree(rundir, ignore_errors=True)
            expected.setdefault(workload, {})[str(seed)] = outputs
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def fresh_rundir(name):
    rundir = os.path.join(BUILD, "runs", f"{name}-{os.getpid()}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    return rundir


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="SEEDS",
                        help="re-record expected.json for these seeds")
    args = parser.parse_args()
    if not args.record and not args.workload:
        parser.error("--workload is required")
    try:
        units = metric_units()
        bins = build()
        if args.record:
            record(bins, parse_seeds(args.record),
                   [args.workload] if args.workload else sorted(WORKLOADS))
            return 0
        rundir = fresh_rundir(f"{args.workload}-{args.seed}")
        try:
            ledger, metrics = run_workload(bins, args.workload, args.seed,
                                           args.seconds, args.trace, rundir)
        finally:
            shutil.rmtree(rundir, ignore_errors=True)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    result = {
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
