"""NDJSON client and daemon lifecycle for the service_small_jobs workload.

The client speaks the daemon's line protocol directly over its unix
socket: one JSON request line per connection, one response line back
(`status` with `follow` streams lines until the job is terminal).
"""

import json
import os
import signal
import socket
import subprocess
import time

REQUEST_TIMEOUT_S = 60.0
START_TIMEOUT_S = 30.0


def request(path, req, timeout=REQUEST_TIMEOUT_S):
    """Sends one request line and returns the parsed response line."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect(path)
        sock.sendall((json.dumps(req) + "\n").encode())
        with sock.makefile("rb") as lines:
            line = lines.readline()
    if not line:
        raise ConnectionError("daemon closed the connection without a reply")
    return json.loads(line)


def stream(path, req, timeout=REQUEST_TIMEOUT_S):
    """Sends one request line; returns [(arrival time, response)] until EOF."""
    out = []
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect(path)
        sock.sendall((json.dumps(req) + "\n").encode())
        with sock.makefile("rb") as lines:
            for line in lines:
                out.append((time.perf_counter(), json.loads(line)))
    return out


def stop_group(proc, timeout=10.0):
    """SIGKILLs the process group `proc` leads, reaps `proc`, and waits
    until no member of the group is left."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def proc_cpu_s(pid):
    """User + system CPU of a live process and its reaped children."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    ticks = sum(int(v) for v in fields[11:15])  # utime stime cutime cstime
    return ticks / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Daemon:
    """`pima_asm serve` in its own process group, always torn down on exit.

    Ready means answering a `list` request: the process announces that it
    is listening before it binds the socket, so its stdout is not a
    readiness signal. `setup_s` is the host time from spawn to that answer.
    """

    def __init__(self, pima_asm, state_dir, cwd):
        self.state_dir = state_dir
        # A relative socket path keeps it under the unix socket length limit
        # however deep the checkout is; daemon and client share the cwd.
        self.socket = os.path.join(os.path.relpath(state_dir, cwd), "pima.sock")
        self.cmd = [pima_asm, "serve", "--state-dir", state_dir,
                    "--socket", self.socket, "--max-jobs", "1"]
        self.cwd = cwd
        self.proc = None
        self.setup_s = None

    def __enter__(self):
        os.makedirs(self.state_dir, exist_ok=True)
        log = open(os.path.join(self.state_dir, "serve.log"), "wb")
        t0 = time.perf_counter()
        try:
            # One malloc arena: with glibc's default, racing job and
            # connection threads create extra heaps at random, and the
            # daemon's RSS jumps by whole heaps from run to run.
            self.proc = subprocess.Popen(self.cmd, cwd=self.cwd, stdout=log,
                                         stderr=subprocess.STDOUT,
                                         start_new_session=True,
                                         env=dict(os.environ,
                                                  MALLOC_ARENA_MAX="1"))
        finally:
            log.close()
        try:
            self._wait_ready(t0)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _wait_ready(self, t0):
        while True:
            try:
                if request(self.socket, {"verb": "list"}).get("ok"):
                    self.setup_s = time.perf_counter() - t0
                    return
            except (FileNotFoundError, ConnectionRefusedError):
                pass
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve exited with {self.proc.returncode}")
            if time.perf_counter() - t0 > START_TIMEOUT_S:
                raise TimeoutError("serve did not answer `list` in time")
            time.sleep(0.001)

    def __exit__(self, *exc):
        if self.proc is None:
            return False
        try:
            if self.proc.poll() is None:
                try:
                    request(self.socket, {"verb": "shutdown"}, timeout=10.0)
                    self.proc.wait(timeout=10.0)
                except (OSError, ValueError, subprocess.TimeoutExpired):
                    pass
        finally:
            # Also stops any pima_devd worker the daemon left behind.
            stop_group(self.proc)
        return False
