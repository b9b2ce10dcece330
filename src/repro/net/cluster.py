"""Spawn, watch, and stop a local fleet of distance-serving workers.

:class:`Cluster` is the process-management layer under ``repro net``:
it picks ports, spawns ``--workers N`` processes via the ``spawn``
multiprocessing context (no inherited event loops or mmap handles —
each worker maps the shard manifests itself, and the OS page cache
makes the N-way mapping of one artifact nearly free), blocks until
every worker answers ``GET /healthz``, and tears the fleet down with
SIGTERM so workers drain in-flight frames before exiting.

``kill_worker`` is deliberately rude (SIGKILL): it exists so the
failover test and the chaos campaign can murder a worker mid-run and
assert the front tier re-routes with zero wrong answers.

The optional **supervisor** (``supervise=True`` or
:meth:`Cluster.start_supervisor`) closes the self-healing loop: a
background thread probes every worker's ``/healthz`` each interval,
respawns dead processes with per-worker exponential backoff, and
SIGKILLs-then-respawns *stuck* workers — alive processes whose event
loop has stalled (``stuck_after`` consecutive probe failures), which is
exactly the failure mode the chaos layer's ``stuck_worker`` fault
manufactures.  A freshly spawned worker gets a *startup grace*: until its
first 200 since the spawn (bounded by ``start_timeout``) failed probes
are not counted towards ``stuck_after`` — a spawn-context process that
is still importing numpy is starting, not stuck.  Supervision is off by
default so tests that assert on dead workers keep their semantics.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import socket
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.protocol import NetError
from repro.net.worker import worker_main
from repro.obs.metrics import publish
from repro.serve.server import ServerConfig

logger = logging.getLogger("repro.net.cluster")


def free_port(host: str = "127.0.0.1") -> int:
    """An ephemeral port the OS just proved was free.

    Racy by nature (something could grab it before the worker binds),
    but workers are spawned immediately after and localhost CI has no
    competing binders; a loser crashes fast and loudly at bind time.
    """
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind((host, 0))
        return probe.getsockname()[1]


def _http_get(host: str, port: int, path: str,
              timeout: float = 1.0) -> Optional[int]:
    """Blocking one-shot HTTP GET; returns the status code or None."""
    try:
        with socket.create_connection((host, port), timeout=timeout) as conn:
            conn.sendall(f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
                         f"Connection: close\r\n\r\n".encode("ascii"))
            conn.settimeout(timeout)
            head = b""
            while b"\r\n" not in head and len(head) < 256:
                chunk = conn.recv(256)
                if not chunk:
                    break
                head += chunk
        parts = head.split(None, 2)
        if len(parts) >= 2 and parts[0].startswith(b"HTTP/"):
            return int(parts[1])
    except (OSError, ValueError):
        pass
    return None


class Cluster:
    """A local fleet of worker processes serving the same artifacts.

    Parameters
    ----------
    artifacts:
        Artifact files / shard manifests every worker serves.
    num_workers:
        Fleet size.
    host / base_port:
        Bind address; ``base_port=0`` (default) lets :func:`free_port`
        pick an ephemeral port per worker, ``base_port=P`` binds
        ``P, P+1, ...``.
    max_batch:
        Most keys per engine gather in each worker: the one
        :class:`~repro.serve.server.ServerConfig` key a worker reads.  It
        answers through ``gather()`` alone, which never parks a request in
        the coalescing window and takes and releases its queue slot with no
        ``await`` between, so the window and queue settings cannot take
        effect there.
    capacity:
        Per-worker registry LRU capacity (resident engines).
    start_timeout:
        Seconds to wait for every worker's ``/healthz`` to answer; also
        the longest a respawned worker may take to answer its first 200
        before the supervisor counts it as stuck.
    supervise:
        Start the self-healing supervisor thread with the fleet.
    supervise_interval / stuck_after / respawn_backoff /
    respawn_max_backoff:
        Supervisor tuning: probe period, consecutive ``/healthz``
        failures before a live-but-stalled worker is declared stuck and
        SIGKILLed, and the initial/capped exponential backoff between
        respawns of the same worker slot.
    """

    # The supervisor's view of the outside world, as attributes so its
    # state machine can be stepped under a fake clock and probe.
    _clock = staticmethod(time.monotonic)
    _sleep = staticmethod(time.sleep)
    _probe = staticmethod(_http_get)

    def __init__(self, artifacts: Sequence[str], num_workers: int = 2,
                 host: str = "127.0.0.1", base_port: int = 0, *,
                 max_batch: int = ServerConfig.max_batch, capacity: int = 4,
                 start_timeout: float = 60.0, supervise: bool = False,
                 supervise_interval: float = 0.5, stuck_after: int = 3,
                 respawn_backoff: float = 0.5,
                 respawn_max_backoff: float = 30.0):
        if num_workers < 1:
            raise ValueError("a cluster needs at least one worker")
        self.artifacts = [str(path) for path in artifacts]
        self.host = host
        self.num_workers = num_workers
        self.max_batch = max_batch
        self.capacity = capacity
        self.start_timeout = start_timeout
        self.supervise = supervise
        self.supervise_interval = supervise_interval
        self.stuck_after = max(1, int(stuck_after))
        self.respawn_backoff = respawn_backoff
        self.respawn_max_backoff = respawn_max_backoff
        if base_port:
            self.ports = [base_port + index for index in range(num_workers)]
        else:
            self.ports = []
            while len(self.ports) < num_workers:
                port = free_port(host)
                if port not in self.ports:
                    self.ports.append(port)
        self._context = multiprocessing.get_context("spawn")
        self._processes: List[Optional[multiprocessing.Process]] = \
            [None] * num_workers
        # Supervisor state: last /healthz status + consecutive failures
        # per worker, the end of each slot's startup grace (0.0 = not in
        # grace), respawn backoff bookkeeping, and the thread itself.
        self.respawns = 0
        self.stuck_kills = 0
        self._last_healthz: List[Optional[int]] = [None] * num_workers
        self._healthz_failures = [0] * num_workers
        self._grace_until = [0.0] * num_workers
        self._next_respawn = [0.0] * num_workers
        self._backoff = [respawn_backoff] * num_workers
        self._supervisor: Optional[threading.Thread] = None
        self._supervisor_stop = threading.Event()
        publish(self, (
            ("repro_cluster_respawns_total", "counter",
             "Worker processes respawned by the cluster supervisor",
             lambda c: c.respawns),
            ("repro_cluster_stuck_kills_total", "counter",
             "Stuck (alive but unresponsive) workers SIGKILLed",
             lambda c: c.stuck_kills),
        ))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Cluster":
        for index in range(self.num_workers):
            self._spawn(index)
        self.wait_healthy()
        if self.supervise:
            self.start_supervisor()
        return self

    def _spawn(self, index: int) -> None:
        process = self._context.Process(
            target=worker_main,
            args=(self.artifacts, self.host, self.ports[index]),
            kwargs={"worker_id": index, "capacity": self.capacity,
                    "max_batch": self.max_batch},
            name=f"repro-net-worker-{index}",
            daemon=True,
        )
        process.start()
        self._grace_until[index] = self._clock() + self.start_timeout
        self._processes[index] = process

    def wait_healthy(self, timeout: Optional[float] = None) -> None:
        """Block until every worker answers ``/healthz`` with 200.

        A dead or missing worker fails the wait at once — unless the
        supervisor is running, in which case the slot is being respawned
        (or backing off) and the wait carries on until the replacement
        answers or the timeout expires.

        Failure messages carry the whole fleet's status — pid, port,
        liveness, exit code, and last ``/healthz`` answer per worker —
        so a dead-on-arrival fleet is diagnosable from the exception
        alone, without re-running under a debugger.
        """
        deadline = self._clock() + (timeout or self.start_timeout)
        for index, port in enumerate(self.ports):
            while True:
                process = self._processes[index]
                if process is not None and process.is_alive():
                    status = self._probe(self.host, port, "/healthz")
                    self._last_healthz[index] = status
                    if status == 200:
                        break
                elif not self._supervising():
                    raise NetError(
                        f"worker {index} (port {port}) exited during startup "
                        f"(exitcode={getattr(process, 'exitcode', None)}); "
                        f"fleet: {json.dumps(self.worker_status())}")
                if self._clock() >= deadline:
                    fleet = json.dumps(self.worker_status())
                    self.stop()
                    raise NetError(
                        f"worker {index} (port {port}) not healthy within "
                        f"{timeout or self.start_timeout:.1f}s; "
                        f"fleet: {fleet}")
                self._sleep(0.05)

    def worker_status(self) -> List[Dict[str, object]]:
        """Per-worker status (pid, port, liveness, last ``/healthz``)."""
        out: List[Dict[str, object]] = []
        for index, port in enumerate(self.ports):
            process = self._processes[index]
            out.append({
                "worker": index,
                "port": port,
                "pid": getattr(process, "pid", None),
                "alive": process is not None and process.is_alive(),
                "exitcode": getattr(process, "exitcode", None),
                "last_healthz": self._last_healthz[index],
            })
        return out

    # ------------------------------------------------------------------
    # supervision (self-healing)
    # ------------------------------------------------------------------
    def _supervising(self) -> bool:
        return self._supervisor is not None and self._supervisor.is_alive()

    def start_supervisor(self) -> None:
        """Start the background probe/respawn thread (idempotent)."""
        if self._supervising():
            return
        self._supervisor_stop.clear()
        self._supervisor = threading.Thread(
            target=self._supervise_loop, name="repro-cluster-supervisor",
            daemon=True)
        self._supervisor.start()

    def stop_supervisor(self) -> None:
        if self._supervisor is None:
            return
        self._supervisor_stop.set()
        self._supervisor.join(timeout=10.0)
        self._supervisor = None

    def _supervise_loop(self) -> None:
        while not self._supervisor_stop.wait(self.supervise_interval):
            for index in range(self.num_workers):
                if self._supervisor_stop.is_set():
                    return
                try:
                    self._check_worker(index)
                except Exception:  # noqa: BLE001 - supervisor must survive
                    logger.exception("supervisor check of worker %d failed",
                                     index)

    def _check_worker(self, index: int) -> None:
        """One supervision step: probe, declare stuck, respawn with backoff."""
        process = self._processes[index]
        dead = process is None or not process.is_alive()
        if not dead:
            status = self._probe(self.host, self.ports[index], "/healthz")
            self._last_healthz[index] = status
            if status == 200:
                # Healthy: forgive history so future faults back off fresh,
                # and end the startup grace — from here on a silent
                # worker is a stuck one.
                self._healthz_failures[index] = 0
                self._backoff[index] = self.respawn_backoff
                self._grace_until[index] = 0.0
                return
            if self._clock() < self._grace_until[index]:
                return  # still starting: no 200 yet since the spawn
            self._healthz_failures[index] += 1
            if self._healthz_failures[index] < self.stuck_after:
                return
            # Alive but unresponsive for stuck_after probes: the event
            # loop is wedged (chaos stuck_worker, runaway gather, ...).
            # SIGTERM would be ignored by a stalled loop; go straight
            # to SIGKILL and treat the slot as dead below.
            logger.warning(
                "worker %d (pid %s, port %d) stuck: %d consecutive /healthz "
                "failures; killing for respawn", index, process.pid,
                self.ports[index], self._healthz_failures[index])
            self.stuck_kills += 1
            process.kill()
            process.join(timeout=10.0)
            self._processes[index] = None
            dead = True
        if dead:
            now = self._clock()
            if now < self._next_respawn[index]:
                return  # still backing off this slot
            backoff = self._backoff[index]
            self._next_respawn[index] = now + backoff
            self._backoff[index] = min(backoff * 2.0,
                                       self.respawn_max_backoff)
            self._healthz_failures[index] = 0
            self.respawns += 1
            logger.warning(
                "respawning worker %d on port %d (respawn #%d, next backoff "
                "%.1fs)", index, self.ports[index], self.respawns,
                self._backoff[index])
            self._spawn(index)

    def kill_worker(self, index: int) -> None:
        """SIGKILL one worker — the failover experiment's chaos monkey."""
        process = self._processes[index]
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=10.0)
        self._processes[index] = None

    def restart_worker(self, index: int) -> None:
        """Bring a killed worker back on its original port."""
        self.kill_worker(index)
        self._spawn(index)

    def stop(self, timeout: float = 10.0) -> None:
        """SIGTERM the fleet (graceful drain), escalating to SIGKILL."""
        self.stop_supervisor()
        for process in self._processes:
            if process is not None and process.is_alive():
                process.terminate()
        deadline = time.monotonic() + timeout
        for index, process in enumerate(self._processes):
            if process is None:
                continue
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():  # drain hung: stop being polite
                logger.warning(
                    "worker %d (pid %s) did not drain within %.1fs; "
                    "escalating to SIGKILL", index, process.pid, timeout)
                process.kill()
                process.join(timeout=5.0)
            self._processes[index] = None

    def __enter__(self) -> "Cluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def addresses(self) -> List[Tuple[str, int]]:
        return [(self.host, port) for port in self.ports]

    def alive(self) -> List[bool]:
        return [process is not None and process.is_alive()
                for process in self._processes]

    def describe(self) -> Dict[str, object]:
        return {
            "host": self.host,
            "workers": self.num_workers,
            "ports": list(self.ports),
            "alive": self.alive(),
            "artifacts": list(self.artifacts),
            "supervised": self.supervise,
            "respawns": self.respawns,
            "stuck_kills": self.stuck_kills,
        }


__all__ = ["Cluster", "free_port"]
