"""Replica process supervision for ``repro serve --workers N``.

:class:`ReplicaSupervisor` owns N ``repro serve`` subprocesses, each a
full single-process clustering daemon on an ephemeral loopback port:

* **staggered start** — replicas launch ``stagger_seconds`` apart so N
  python interpreters do not import numpy/scipy simultaneously;
* **readiness gating** — a replica joins the routable set only after its
  startup banner published a port *and* ``GET /healthz`` answered
  ``status: ok``;
* **crash supervision** — a babysitter task per slot restarts a dead
  replica with capped exponential backoff (reset after a stable run), so
  a crash-looping replica cannot busy-spin the host while a one-off
  crash restarts quickly.  Restart counts are published to the fleet
  ``/metrics``;
* **drain** — :meth:`stop` SIGTERMs every replica (each answers all its
  admitted requests before exiting — the single-process drain contract)
  and escalates to SIGKILL only past ``drain_timeout``.

The supervisor is event-loop confined: every method is called from the
router's asyncio loop, so replica state needs no locking.
"""

from __future__ import annotations

import asyncio
import os
import re
import sys
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.serve.httpio import http_fetch

#: The startup banner the single-process server prints; the supervisor
#: parses the ephemeral port out of it.
_BANNER_PATTERN = re.compile(r"listening on http://([\d.]+):(\d+)")

#: A replica that stayed healthy this long earns a backoff reset.
_STABLE_SECONDS = 5.0


@dataclass
class ReplicaInfo:
    """The routable identity of one ready replica."""

    replica_id: str
    port: int
    pid: Optional[int]


class _ReplicaSlot:
    """One supervised replica: process handle + lifecycle bookkeeping."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.replica_id = f"replica-{index}"
        self.process: Optional[asyncio.subprocess.Process] = None
        self.port: Optional[int] = None
        self.ready = False
        self.state = "starting"  # starting | ready | restarting | stopped
        self.spawns = 0
        self.restarts = 0
        self.last_exit_code: Optional[int] = None
        self.log_tail: deque = deque(maxlen=20)

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    def status(self) -> Dict[str, Any]:
        return {
            "id": self.replica_id,
            "state": self.state,
            "port": self.port,
            "pid": self.pid,
            "spawns": self.spawns,
            "restarts": self.restarts,
            "last_exit_code": self.last_exit_code,
        }


class ReplicaSupervisor:
    """Spawn and babysit N ``repro serve`` replicas on ephemeral ports.

    Parameters
    ----------
    workers:
        Replica count (at least 1).
    replica_argv:
        Extra ``repro serve`` CLI arguments appended to every replica's
        command line (config flags, admission knobs, ``--cache-dir`` for
        the shared disk tier).  ``--host``/``--port`` are supervisor-owned.
        The literal ``{replica_id}`` in any element is replaced with the
        replica's id (``replica-0``, ...), letting file-valued flags such
        as ``--trace-log`` fan out to per-replica paths.
    host:
        Loopback address replicas bind on.
    stagger_seconds / backoff_base_seconds / backoff_cap_seconds:
        Start stagger and the restart backoff envelope.
    startup_timeout:
        Per-attempt bound on banner + ``/healthz`` readiness.
    drain_timeout:
        How long :meth:`stop` waits for SIGTERMed replicas to finish
        draining before escalating to SIGKILL.
    """

    def __init__(
        self,
        workers: int,
        replica_argv: Sequence[str] = (),
        host: str = "127.0.0.1",
        *,
        stagger_seconds: float = 0.25,
        backoff_base_seconds: float = 0.5,
        backoff_cap_seconds: float = 10.0,
        startup_timeout: float = 60.0,
        drain_timeout: float = 30.0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers
        self.replica_argv = list(replica_argv)
        self.host = host
        self.stagger_seconds = stagger_seconds
        self.backoff_base_seconds = backoff_base_seconds
        self.backoff_cap_seconds = backoff_cap_seconds
        self.startup_timeout = startup_timeout
        self.drain_timeout = drain_timeout
        self._slots = [_ReplicaSlot(index) for index in range(workers)]
        self._tasks: List[asyncio.Task] = []
        self._stopping = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Launch one babysitter task per replica slot."""
        self._stopping = False
        self._tasks = [
            asyncio.create_task(self._babysit(slot), name=f"babysit-{slot.replica_id}")
            for slot in self._slots
        ]

    async def wait_ready(self, count: Optional[int] = None, timeout: float = 120.0) -> None:
        """Block until ``count`` replicas (default: all) answer healthz."""
        needed = self.workers if count is None else count
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while loop.time() < deadline:
            if len(self.ready_replicas()) >= needed:
                return
            dead = [task for task in self._tasks if task.done() and task.exception()]
            if dead:
                raise RuntimeError("replica supervisor crashed") from dead[0].exception()
            await asyncio.sleep(0.05)
        tails = {
            slot.replica_id: list(slot.log_tail)
            for slot in self._slots
            if not slot.ready and slot.log_tail
        }
        raise TimeoutError(
            f"only {len(self.ready_replicas())}/{needed} replicas became ready "
            f"within {timeout}s; replica output: {tails!r}"
        )

    async def stop(self) -> None:
        """Drain the whole fleet: SIGTERM every replica, then reap."""
        self._stopping = True
        procs = [slot.process for slot in self._slots if slot.process is not None]
        for slot in self._slots:
            slot.ready = False
            slot.state = "stopped"
            if slot.process is not None and slot.process.returncode is None:
                try:
                    slot.process.terminate()
                except ProcessLookupError:  # pragma: no cover - exited just now
                    pass
        live = [p for p in procs if p.returncode is None]
        if live:
            waits = [asyncio.create_task(p.wait()) for p in live]
            _done, pending = await asyncio.wait(waits, timeout=self.drain_timeout)
            if pending:  # pragma: no cover - replicas refused to drain
                for process in live:
                    if process.returncode is None:
                        process.kill()
                await asyncio.wait(pending, timeout=5.0)
        for task in self._tasks:
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []

    # -- introspection -----------------------------------------------------

    def ready_replicas(self) -> List[ReplicaInfo]:
        """Replicas currently safe to route to."""
        return [
            ReplicaInfo(slot.replica_id, slot.port, slot.pid)
            for slot in self._slots
            if slot.ready and slot.port is not None
        ]

    @property
    def restarts_total(self) -> int:
        return sum(slot.restarts for slot in self._slots)

    def status(self) -> List[Dict[str, Any]]:
        return [slot.status() for slot in self._slots]

    # -- internals ---------------------------------------------------------

    def _replica_command(self, slot: _ReplicaSlot) -> List[str]:
        # The literal placeholder ``{replica_id}`` in any replica_argv
        # element is substituted with the slot's id, so per-replica file
        # arguments (e.g. ``--trace-log traces-{replica_id}.jsonl``) fan
        # out without colliding.
        return [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host",
            self.host,
            "--port",
            "0",
            *[arg.replace("{replica_id}", slot.replica_id) for arg in self.replica_argv],
        ]

    def _replica_env(self) -> Dict[str, str]:
        """The child environment, with this repro importable via -m."""
        env = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing else package_root + os.pathsep + existing
        )
        return env

    async def _babysit(self, slot: _ReplicaSlot) -> None:
        """Spawn, watch, and restart one replica until the fleet stops."""
        await asyncio.sleep(slot.index * self.stagger_seconds)
        loop = asyncio.get_running_loop()
        backoff = self.backoff_base_seconds
        while not self._stopping:
            slot.state = "starting" if slot.spawns == 0 else "restarting"
            became_ready = await self._launch(slot)
            ready_at = loop.time()
            if slot.process is not None:
                slot.last_exit_code = await slot.process.wait()
            slot.ready = False
            if self._stopping:
                slot.state = "stopped"
                return
            slot.state = "restarting"
            slot.restarts += 1
            if became_ready and loop.time() - ready_at >= _STABLE_SECONDS:
                backoff = self.backoff_base_seconds  # stable run: forgive history
            await asyncio.sleep(backoff)
            backoff = min(self.backoff_cap_seconds, backoff * 2.0)
        slot.state = "stopped"

    async def _launch(self, slot: _ReplicaSlot) -> bool:
        """One spawn attempt: subprocess + banner port + healthz gate."""
        slot.port = None
        slot.log_tail.clear()
        try:
            slot.process = await asyncio.create_subprocess_exec(
                *self._replica_command(slot),
                stdout=asyncio.subprocess.PIPE,
                stderr=asyncio.subprocess.STDOUT,
                env=self._replica_env(),
            )
        except OSError as error:  # pragma: no cover - exec failure
            slot.log_tail.append(f"spawn failed: {error!r}")
            return False
        slot.spawns += 1
        if self._stopping:
            slot.process.terminate()
            return False
        try:
            port = await asyncio.wait_for(self._read_banner(slot), self.startup_timeout)
        except (asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError):
            # No banner: the replica is broken (bad flags, port clash);
            # kill it and let the babysitter back off before retrying.  One
            # that closed its output is exiting by itself: signalling it
            # polls it first, which can reap it before asyncio's child
            # watcher does, and the watcher then reports exit code 255.
            if slot.process.returncode is None and not slot.process.stdout.at_eof():
                slot.process.terminate()
            return False
        slot.port = port
        # Keep draining the child's stdout so it can never block on a
        # full pipe; the tail is kept for crash diagnostics.
        asyncio.create_task(self._drain_stdout(slot, slot.process))
        if not await self._await_healthy(slot):
            return False
        slot.ready = True
        slot.state = "ready"
        return True

    async def _read_banner(self, slot: _ReplicaSlot) -> int:
        assert slot.process is not None and slot.process.stdout is not None
        while True:
            line = await slot.process.stdout.readline()
            if not line:
                raise ValueError("replica exited before printing its banner")
            text = line.decode("utf-8", "replace").rstrip()
            slot.log_tail.append(text)
            match = _BANNER_PATTERN.search(text)
            if match:
                return int(match.group(2))

    async def _drain_stdout(
        self, slot: _ReplicaSlot, process: asyncio.subprocess.Process
    ) -> None:
        assert process.stdout is not None
        try:
            while True:
                line = await process.stdout.readline()
                if not line:
                    return
                slot.log_tail.append(line.decode("utf-8", "replace").rstrip())
        except (asyncio.CancelledError, ValueError):  # pragma: no cover
            return

    async def _await_healthy(self, slot: _ReplicaSlot) -> bool:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.startup_timeout
        assert slot.process is not None and slot.port is not None
        while loop.time() < deadline and not self._stopping:
            if slot.process.returncode is not None:
                return False  # died while we were probing
            try:
                status, payload = await http_fetch(self.host, slot.port, "/healthz", timeout=2.0)
                if status == 200 and payload.get("status") == "ok":
                    return True
            except (OSError, asyncio.TimeoutError):
                pass  # not accepting yet, or not answering well-formed JSON
            await asyncio.sleep(0.05)
        if slot.process.returncode is None and not self._stopping:
            slot.process.terminate()
        return False
