"""The server under test as a subprocess: start, scrape, stop, account.

Every server runs ``python -m repro serve`` (or the same through
``traced_serve.py``) in its own process group with ``TMPDIR`` pointed
into the run's scratch directory, so tier files land inside the
checkout and a stray worker can always be killed with the group.
"""

from __future__ import annotations

import glob
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Set

from loadgen import Conn

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
SRC = ROOT / "src"

#: A server that has not answered ``ping`` by then is declared failed.
START_TIMEOUT = 120.0


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def child_env(scratch: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(scratch)
    # Hash randomisation alone moves a server's throughput by +-10 % from
    # one process to the next (measured); every server gets the same seed.
    env["PYTHONHASHSEED"] = "0"
    # glibc adapts its mmap and trim thresholds to the order of the first
    # large frees, so whether the pager's 1 MiB fault buffers are recycled
    # from the heap or mapped and page-faulted afresh each time was settled
    # per process by the request order: 0.63 or 0.97 ms a fault, 57 to 79
    # queries/s on tiered_scan from one seed to the next.  Fixed thresholds
    # switch the adaptation off; these keep freed buffers in the heap.
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(1 << 30)
    env["MALLOC_TOP_PAD_"] = str(64 << 20)
    return env


def loop_core() -> Set[int]:
    """The one core a single closed loop runs on: client and server take
    turns, so they lose nothing by sharing it, and a reply no longer waits
    for an idle virtual CPU to be woken (1100 against 700-830 requests/s
    on short_mix, depending on where the scheduler had put the two)."""
    return {max(os.sched_getaffinity(0))}


def pin(pid: int, cores: Set[int]) -> None:
    """Move every thread of *pid* onto *cores*."""
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(task), cores)
        except ProcessLookupError:  # the thread ended meanwhile
            pass


class Server:
    """One ``repro serve`` process."""

    def __init__(
        self,
        serve_args: List[str],
        scratch: Path,
        trace_out: Optional[Path] = None,
        cores: Optional[Set[int]] = None,
    ) -> None:
        self.scratch = scratch
        self.trace_out = trace_out
        self.port = free_port()
        if trace_out is None:
            head = [sys.executable, "-m", "repro"]
        else:
            head = [
                sys.executable,
                str(SUITE / "traced_serve.py"),
                "--trace-out",
                str(trace_out),
            ]
        self.log = open(scratch / f"server-{self.port}.log", "wb")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            head + ["serve", *serve_args, "--port", str(self.port)],
            env=child_env(scratch),
            cwd=str(scratch),
            stdout=self.log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
            preexec_fn=(lambda: os.sched_setaffinity(0, cores)) if cores else None,
        )
        self.pid = self.proc.pid
        self.ping_s = 0.0  # spawn -> first ping reply

    def wait_ready(self) -> Conn:
        """Connect and ping; returns the connection that got the reply."""
        deadline = self.spawned + START_TIMEOUT
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} before "
                    f"serving:\n{self.log_text()}"
                )
            try:
                conn = Conn(self.port)
                break
            except OSError:
                if time.perf_counter() > deadline:
                    raise RuntimeError("server did not start listening")
                time.sleep(0.01)
        if not conn.call({"op": "ping"}).get("pong"):
            raise RuntimeError("server did not answer ping")
        self.ping_s = time.perf_counter() - self.spawned
        return conn

    def log_text(self) -> str:
        self.log.flush()
        return Path(self.log.name).read_text(errors="replace")[-2000:]

    def read_peak_rss(self) -> float:
        """``VmHWM`` of the server process in MB (peak resident set)."""
        with open(f"/proc/{self.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line in /proc status")

    def trace_on(self) -> None:
        """Ask a traced server to install its request-path wrappers."""
        marker = Path(str(self.trace_out) + ".on")
        self.proc.send_signal(signal.SIGUSR1)
        _wait_for(marker, 10.0)

    def trace_dump(self) -> None:
        """Ask a traced server to write its spans now (before a kill)."""
        self.trace_out.unlink(missing_ok=True)
        self.proc.send_signal(signal.SIGUSR2)
        _wait_for(self.trace_out, 30.0)

    def stop(self, graceful: bool = True) -> List[str]:
        """Stop the server and its process group; returns what it leaked.

        A graceful stop (SIGTERM) lets the server unlink its shared
        memory segments and tier file, so anything of its pid still
        there is a leak.  A hard stop is the workload's own SIGKILL:
        what the dead process could not clean is swept, not reported.
        """
        if self.proc.poll() is None:
            if graceful:
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=30.0)
                except subprocess.TimeoutExpired:
                    graceful = False
            self.kill_group()
        self.log.close()
        left = self.artifacts()
        for path in left:
            try:
                os.unlink(path)
            except OSError:
                pass
        return left if graceful else []

    def kill_group(self) -> None:
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()

    def artifacts(self) -> List[str]:
        return sorted(
            glob.glob(f"/dev/shm/smc_{self.pid}_*")
            + glob.glob(str(self.scratch / f"smc_tier_{self.pid}_*"))
        )


def _wait_for(path: Path, timeout: float) -> None:
    deadline = time.perf_counter() + timeout
    while not path.exists():
        if time.perf_counter() > deadline:
            raise RuntimeError(f"traced server never wrote {path.name}")
        time.sleep(0.01)


def scrape(conn: Conn) -> Dict[str, float]:
    """The ``metrics`` op as ``{series: value}`` (labels kept in the key)."""
    out: Dict[str, float] = {}
    for line in conn.call({"op": "metrics"})["text"].splitlines():
        if line and not line.startswith("#"):
            series, __, value = line.rpartition(" ")
            out[series] = float(value)
    return out


def tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())
