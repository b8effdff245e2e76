"""Real ``repro serve`` subprocesses and the closed-loop load that drives them.

Servers run exactly as an operator starts them (``python -m repro serve
--port 0 --clusters 11`` plus the workload's flags) from the checkout's
``src``.  One benchmark process generates all load, with at most two
client threads, each holding one keep-alive connection.  A request that
fails or is refused (429) is counted as failed, never retried.
"""

from __future__ import annotations

import http.client
import os
import re
import selectors
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.serve.client import ServeClient, ServerError
from repro.serve.wire import WIRE_CONTENT_TYPE

BINARY_HEADERS = {"Content-Type": WIRE_CONTENT_TYPE, "Accept": WIRE_CONTENT_TYPE}
JSON_HEADERS = {"Content-Type": "application/json"}

_BANNER_PORT = re.compile(r"listening on http://[^\s:]+:(\d+)")


class ServeProcess:
    """One ``repro serve`` process tree (a single server or a fleet)."""

    def __init__(self, root: Path, log_path: Path, extra_args: Sequence[str] = ()) -> None:
        self.root = root
        self.log_path = log_path
        self.argv = [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--clusters", "11", *extra_args,
        ]
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> None:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                self.argv, cwd=self.root, env=env, stdout=subprocess.PIPE,
                stderr=log, stdin=subprocess.DEVNULL,
            )
        banner = self._read_banner(timeout)
        match = _BANNER_PORT.search(banner)
        if match is None:
            raise RuntimeError(f"repro serve did not announce a port: {banner!r}; see {self.log_path}")
        self.port = int(match.group(1))
        with ServeClient(port=self.port) as client:
            client.wait_healthy(timeout=timeout)

    def _read_banner(self, timeout: float) -> str:
        assert self.process is not None and self.process.stdout is not None
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            if not selector.select(timeout):
                raise RuntimeError(f"repro serve printed no banner within {timeout}s")
        return self.process.stdout.readline().decode("utf-8", "replace")

    def client(self) -> ServeClient:
        return ServeClient(port=self.port, timeout=120.0)

    def pids(self) -> List[int]:
        """The serving processes: the server, or the router plus its replicas."""
        assert self.process is not None
        with self.client() as client:
            health = client.healthz()
        replicas = [r["pid"] for r in health.get("replicas", []) if r.get("pid")]
        return [self.process.pid, *replicas]

    def peak_rss_mb(self) -> float:
        """Summed peak resident set (``VmHWM``) of every serving process."""
        total_kb = 0
        for pid in self.pids():
            with open(f"/proc/{pid}/status", encoding="utf-8") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self, timeout: float = 30.0) -> None:
        process, self.process = self.process, None
        if process is None:
            return
        if process.poll() is None:
            process.terminate()
        try:
            process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()


@dataclass
class Phase:
    """Operations one workload phase sent, and how they ended."""

    name: str
    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    rejected: int = 0
    latencies: List[float] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, seconds: Optional[float], status: Optional[int] = None) -> None:
        with self._lock:
            self.sent += 1
            if seconds is not None:
                self.succeeded += 1
                self.latencies.append(seconds)
            else:
                self.failed += 1
                self.rejected += status == 429

    def accounting(self) -> Dict[str, Any]:
        quartiles = (
            [round(1000.0 * q, 3) for q in np.percentile(self.latencies, [0, 25, 50, 75, 100])]
            if self.latencies else []
        )
        return {
            "phase": self.name, "sent": self.sent, "succeeded": self.succeeded,
            "failed": self.failed, "rejected_429": self.rejected,
            "latency_ms_min_q1_median_q3_max": quartiles,
        }


@dataclass(frozen=True)
class Job:
    """One pre-encoded ``POST /cluster`` body."""

    key: int
    body: bytes
    headers: Dict[str, str]


#: Called after each successful exchange with (job, seconds, wall start,
#: decoded envelope); runs on the client thread.
OnReply = Callable[[Job, float, float, Dict[str, Any]], None]


def send(client: ServeClient, job: Job, phase: Phase, on_reply: Optional[OnReply] = None,
         headers: Optional[Dict[str, str]] = None) -> Optional[Dict[str, Any]]:
    """One timed exchange; failures are counted, not raised."""
    wall = time.time()
    started = time.perf_counter()
    try:
        envelope = client.request("POST", "/cluster", job.body, headers or job.headers)
    except ServerError as error:
        phase.record(None, error.status)
        return None
    except (OSError, http.client.HTTPException):
        client.close()
        phase.record(None)
        return None
    seconds = time.perf_counter() - started
    phase.record(seconds)
    if on_reply is not None:
        on_reply(job, seconds, wall, envelope)
    return envelope


def closed_loop(
    port: int,
    streams: Sequence[Iterator[Job]],
    phase: Phase,
    until: Callable[[], bool],
    on_reply: Optional[OnReply] = None,
    header_factory: Optional[Callable[[Job], Dict[str, str]]] = None,
) -> None:
    """One client thread per job stream; each sends its next job only after
    the previous reply, until ``until()`` or its stream runs out."""
    errors: List[BaseException] = []

    def client_loop(stream: Iterator[Job]) -> None:
        try:
            with ServeClient(port=port, timeout=120.0) as client:
                for job in stream:
                    if until():
                        break
                    headers = header_factory(job) if header_factory else None
                    send(client, job, phase, on_reply, headers)
        except BaseException as error:  # surfaced on the main thread below
            errors.append(error)

    threads = [threading.Thread(target=client_loop, args=(s,), daemon=True) for s in streams]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170.0)
        if thread.is_alive():
            raise RuntimeError(f"client thread of phase {phase.name!r} did not finish")
    if errors:
        raise errors[0]
