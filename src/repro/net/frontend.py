"""Front tier: fan batched requests out to workers; survive worker death.

The front tier is the only address clients need.  It accepts the same
wire protocol the workers speak (binary frames + HTTP fallback on one
port), routes each request's stretch budget through its own
metadata-only :class:`~repro.serve.registry.ArtifactRegistry` (shard
manifests are cheap to read; the frontend never loads an engine), pins
the decision into the artifact hint so every worker
answers from the same table, and partitions the pair batch across the
healthy workers:

* **several shards** — each pair's affinity is the shard holding its
  canonical row (one ``searchsorted`` over the manifest row ranges), and
  shards are striped across workers, so the shards a worker opens and
  the pages it keeps warm in the page cache are a stable slice of the
  keyspace;
* **one shard** — contiguous equal chunks (affinity would send every
  pair to the same worker).

**The path of one frame** is frame -> per-owner runs -> frame, and the
fault-free case pays only for what the frame needs:

1. *Validate and partition.*  Node ids are range-checked against the
   routed artifact before anything is sent.  One grouping pass
   (:func:`repro.oracle.sharding.grouped_runs`: at most one stable sort by
   owner, then slices) turns the frame into runs, one per owning worker.
   A frame with a single owner — always the case with one healthy worker
   — is one run, "the whole frame, in order": nothing is sorted or copied.
2. *Send.*  Each run's two node columns are packed once
   (:func:`~repro.net.protocol.pack_request_columns`; for a whole-frame
   run these are the request's own columns) and the same bytes serve every
   retry and hedge.  A single run is awaited in place; only a frame that
   really splits pays an ``asyncio.gather`` (one Task per run) and the
   scatter of the sub-answers back into frame order.  A whole-frame run
   returns the worker's values as they were received.
3. *Hedge, only if it can happen.*  With one healthy worker, hedging off
   or its budget spent, an attempt is a direct await.  Otherwise the
   attempt runs as a Task beside **one** timer armed at the observed P95
   attempt latency (re-read from the window once per
   :data:`HEDGE_DELAY_REFRESH` attempts, not per sub-batch); a primary
   that answers first cancels the timer and nothing else was created.
4. *Time out.*  :class:`WorkerLink` arms one ``call_later`` handle per
   request and cancels it when the reply lands; a request still open when
   it fires fails with :class:`asyncio.TimeoutError`, which is retried
   like any other :data:`RETRYABLE` failure.

Affinity is an optimisation, not a correctness constraint: every worker
maps the full manifest, so any worker can answer any sub-batch.  That is
what makes failover simple, in the spirit of the *Two for One, One for
All* robustness framing — when a worker dies mid-request the sub-batch
is retried on the next healthy worker (``max_attempts`` sends, each under
the per-request timeout and the caller's deadline; a link whose breaker
has opened meanwhile is passed over without spending one), the dead
worker's failures open its circuit breaker, and because the partition is
computed over the *healthy* list, its shard ranges re-route to the
survivors automatically.

:class:`WorkerLink` is the persistent pipelined connection used for all
of it: request ids match responses out of order, a reader task settles
futures, and a broken link fails every in-flight request immediately
(so retries start now, not at the timeout).  :class:`NetClient` reuses
the same link machinery on the client side and parks per-pair
``await client.dist(u, v)`` callers in the same
:class:`~repro.serve.coalesce.Coalescer` the in-process server uses, so
they get the batch-native wire for free — the loadgen drives a network
tier through the exact seam it drives an in-process server.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.net.protocol import (
    ERR_BAD_FRAME,
    ERR_BAD_NODES,
    ERR_DATA_INTEGRITY,
    ERR_DEADLINE_EXCEEDED,
    ERR_INTERNAL,
    ERR_OVERLOADED,
    ERR_ROUTING,
    ERR_SHUTTING_DOWN,
    MSG_ERROR,
    MSG_PING,
    MSG_PONG,
    MSG_REQUEST,
    MSG_RESPONSE,
    NetError,
    ProtocolError,
    Request,
    encode_frame,
    pack_request,
    pack_request_columns,
    read_frame,
    unpack_error,
    unpack_response,
)
from repro.net.worker import NetServiceBase
from repro.obs.metrics import (
    LatencyRecorder,
    get_registry,
    merge_snapshots,
    publish,
    read_series,
)
from repro.oracle.sharding import ShardIntegrityError, grouped_runs
from repro.obs.tracing import (
    TraceContext,
    get_tracer,
    trace_capable_blob,
    unpack_trace_blob,
)
from repro.serve.coalesce import Coalescer
from repro.serve.registry import ArtifactEntry, build_registry
from repro.serve.router import RoutingError, StretchRouter
from repro.serve.server import DeadlineExceeded, ServerClosed, ServerOverloaded

Pair = Tuple[int, int]


def map_wire_error(error: ProtocolError) -> Exception:
    """Typed wire error -> the exception an in-process caller would see."""
    if error.code == ERR_ROUTING:
        return RoutingError(str(error))
    if error.code == ERR_OVERLOADED:
        return ServerOverloaded(str(error))
    if error.code == ERR_BAD_NODES:
        return ValueError(str(error))
    if error.code == ERR_SHUTTING_DOWN:
        return WorkerUnavailable(str(error))
    if error.code == ERR_DEADLINE_EXCEEDED:
        return DeadlineExceeded(str(error))
    if error.code == ERR_DATA_INTEGRITY:
        return ShardIntegrityError(str(error))
    if error.code == ERR_INTERNAL:
        return NetError(str(error))
    return error


class WorkerUnavailable(ConnectionError):
    """The far end is draining or gone; safe to retry on another worker."""


class MiscountedReply(ProtocolError):
    """A reply that does not carry one distance per pair asked.

    ``ERR_BAD_FRAME`` raised on the receiving side: the far end answered,
    but not this request.  Another worker can, so it fails over.
    """


def checked_reply(values: np.ndarray, count: int, who: str) -> np.ndarray:
    """``values`` if it answers ``count`` pairs, else :class:`MiscountedReply`."""
    if len(values) != count:
        raise MiscountedReply(
            ERR_BAD_FRAME, f"{who} answered {len(values)} distance(s) to a "
            f"request of {count} pair(s)")
    return values


#: Failures that justify retrying the same sub-batch on another worker.
RETRYABLE = (ConnectionError, asyncio.TimeoutError, asyncio.IncompleteReadError)

#: Everything the fan-out path treats as "this worker attempt failed, move
#: on": transport failures plus typed remote errors that another worker can
#: answer correctly — ERR_INTERNAL (that worker is broken, the request is
#: fine), ERR_DATA_INTEGRITY (that worker's copy of a shard is rotten;
#: requests are idempotent reads, so re-asking elsewhere is always safe)
#: and a reply with the wrong number of distances.
FAILOVER_ERRORS = RETRYABLE + (NetError, ShardIntegrityError, MiscountedReply)

#: Most attempts the hedge delay's P95 may lag the latency window by.
HEDGE_DELAY_REFRESH = 64

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


class CircuitBreaker:
    """Per-worker circuit breaker: closed -> open -> half-open -> closed.

    Replaces the blunt consecutive-failure ejection with the standard
    three-state machine.  The circuit opens on either ``consecutive_after``
    consecutive failures *or* a failure rate above ``rate_threshold``
    across the last ``window`` outcomes (only once ``rate_min_samples``
    outcomes exist, so one blip on a quiet link cannot open it).  While
    open, :meth:`allow` is False and no requests are routed to the
    worker.  After ``cooldown`` seconds :meth:`ready_to_probe` turns
    true; the owner sends a single probe (half-open state admits exactly
    one).  A successful probe closes the circuit and resets the
    cooldown; a failed one re-opens it with the cooldown doubled, capped
    at ``max_cooldown`` — a flapping worker gets probed geometrically
    less often.
    """

    def __init__(self, *, consecutive_after: int = 3,
                 rate_threshold: float = 0.5, window: int = 20,
                 rate_min_samples: int = 10, cooldown: float = 1.0,
                 max_cooldown: float = 30.0):
        self.consecutive_after = max(1, int(consecutive_after))
        self.rate_threshold = float(rate_threshold)
        self.rate_min_samples = max(1, int(rate_min_samples))
        self.cooldown = float(cooldown)
        self.max_cooldown = float(max_cooldown)
        self.state = BREAKER_CLOSED
        self.consecutive = 0
        self.opens = 0       # every transition into OPEN (incl. re-opens)
        self.probing = False
        self._outcomes: List[bool] = []
        self._window = max(1, int(window))
        self._opened_at = 0.0
        self._next_cooldown = self.cooldown

    def allow(self) -> bool:
        """May regular traffic be routed to this worker right now?"""
        return self.state == BREAKER_CLOSED

    def ready_to_probe(self) -> bool:
        """Open, cooled down, and no probe already in flight?"""
        return (self.state == BREAKER_OPEN and not self.probing
                and time.monotonic() - self._opened_at >= self._next_cooldown)

    def begin_probe(self) -> None:
        """Move open -> half-open and claim the single probe slot."""
        self.state = BREAKER_HALF_OPEN
        self.probing = True

    def record_success(self) -> bool:
        """A request (or probe) succeeded; True if the circuit re-closed."""
        self._push(True)
        self.consecutive = 0
        if self.state == BREAKER_CLOSED:
            return False
        self.force_close()
        return True

    def record_failure(self) -> bool:
        """A request (or probe) failed; True if the circuit opened."""
        self._push(False)
        self.consecutive += 1
        if self.state == BREAKER_HALF_OPEN:
            # Failed probe: back off harder before the next one.
            self.probing = False
            self._open(self._next_cooldown * 2.0)
            return True
        if self.state == BREAKER_CLOSED and (
                self.consecutive >= self.consecutive_after
                or self._rate_tripped()):
            self._open(self.cooldown)
            return True
        return False

    def force_close(self) -> None:
        """Close the circuit and reset the backoff (probe success path)."""
        self.state = BREAKER_CLOSED
        self.probing = False
        self.consecutive = 0
        self._next_cooldown = self.cooldown

    def force_open(self) -> None:
        """Open the circuit by fiat (operator/test hook)."""
        self._open(self.cooldown)

    def _open(self, next_cooldown: float) -> None:
        self.state = BREAKER_OPEN
        self.opens += 1
        self._opened_at = time.monotonic()
        self._next_cooldown = min(next_cooldown, self.max_cooldown)

    def _rate_tripped(self) -> bool:
        if len(self._outcomes) < self.rate_min_samples:
            return False
        failures = self._outcomes.count(False)
        return failures / len(self._outcomes) > self.rate_threshold

    def _push(self, ok: bool) -> None:
        self._outcomes.append(ok)
        if len(self._outcomes) > self._window:
            del self._outcomes[0]


def _expire(future: asyncio.Future) -> None:
    """Timer callback: fail a request still unanswered at its timeout."""
    if not future.done():
        future.set_exception(asyncio.TimeoutError())


class WorkerLink:
    """One persistent, pipelined connection to a worker (or front tier).

    Many requests may be in flight at once; the 4-byte request id in the
    frame header matches responses back to futures, so a slow sub-batch
    never head-of-line-blocks a fast one.  A dead connection fails every
    pending future with :class:`WorkerUnavailable` and the next request
    reconnects lazily.
    """

    def __init__(self, host: str, port: int, name: str = "",
                 connect_timeout: float = 3.0):
        self.host = host
        self.port = port
        self.name = name or f"{host}:{port}"
        self.connect_timeout = connect_timeout
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._read_task: Optional[asyncio.Task] = None
        self._pending: Dict[int, asyncio.Future] = {}
        self._req_ids = itertools.count(1)
        self._connect_lock = asyncio.Lock()
        self.requests = 0
        # Health (the Frontend's failover path charges it).
        self.breaker = CircuitBreaker()
        self.trace_sink: Optional[Callable[[Dict[str, Any]], None]] = None

    @property
    def connected(self) -> bool:
        return self._writer is not None

    async def _ensure_connected(self) -> None:
        if self._writer is not None:
            return
        async with self._connect_lock:
            if self._writer is not None:
                return
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port),
                self.connect_timeout)
            self._reader, self._writer = reader, writer
            self._read_task = asyncio.get_running_loop().create_task(
                self._read_loop(reader), name=f"repro-net-link-{self.name}")

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                ftype, req_id, payload = frame
                if ftype == MSG_RESPONSE and frame.trace is not None \
                        and self.trace_sink is not None:
                    remote = unpack_trace_blob(frame.trace)
                    if remote is not None:
                        try:
                            self.trace_sink(remote)
                        except Exception:
                            pass  # tracing must never break the data path
                future = self._pending.pop(req_id, None)
                if future is None or future.done():
                    continue  # timed-out request answering late
                try:
                    if ftype == MSG_RESPONSE:
                        future.set_result(unpack_response(payload, req_id))
                    elif ftype == MSG_ERROR:
                        future.set_exception(
                            map_wire_error(unpack_error(payload, req_id)))
                    elif ftype == MSG_PONG:
                        future.set_result(None)
                    else:
                        future.set_exception(ProtocolError(
                            0, f"unexpected frame type {ftype}", req_id))
                except Exception as exc:
                    # A popped future must always settle — a decode crash
                    # here would otherwise strand its caller until timeout.
                    if not future.done():
                        future.set_exception(exc)
        except (ProtocolError, ConnectionError, OSError):
            pass
        finally:
            self._teardown(WorkerUnavailable(
                f"connection to {self.name} closed"))

    def _teardown(self, exc: Exception) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        task, self._read_task = self._read_task, None
        if task is not None and task is not asyncio.current_task():
            task.cancel()
        if writer is not None:
            writer.close()
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)

    async def request(self, pairs, multiplicative: float = math.inf,
                      additive: float = math.inf, artifact: str = "",
                      timeout: Optional[float] = None,
                      trace: Optional[bytes] = None,
                      deadline: Optional[float] = None) -> np.ndarray:
        """Send one batched request; returns the distance array.

        ``deadline`` is an absolute ``time.monotonic()`` instant; the
        remaining budget is computed at send time and travels as the
        frame's relative-seconds FLAG_DEADLINE field, so the receiving
        worker can stop working the moment nobody is waiting.
        """
        return await self.request_packed(
            pack_request(pairs, multiplicative, additive, artifact),
            timeout=timeout, trace=trace, deadline=deadline)

    async def request_packed(self, payload: bytes,
                             timeout: Optional[float] = None,
                             trace: Optional[bytes] = None,
                             deadline: Optional[float] = None) -> np.ndarray:
        """:meth:`request` for an already-packed MSG_REQUEST payload.

        The front tier packs a sub-batch once and sends the same bytes on
        every retry and hedge.
        """
        budget = None
        if deadline is not None:
            budget = max(0.0, deadline - time.monotonic())
        return await self._roundtrip(MSG_REQUEST, payload, timeout,
                                     trace=trace, deadline=budget)

    async def ping(self, timeout: Optional[float] = None) -> bool:
        try:
            await self._roundtrip(MSG_PING, b"", timeout)
            return True
        except RETRYABLE:
            return False

    async def _roundtrip(self, ftype: int, payload: bytes,
                         timeout: Optional[float],
                         trace: Optional[bytes] = None,
                         deadline: Optional[float] = None) -> np.ndarray:
        await self._ensure_connected()
        req_id = next(self._req_ids) & 0xFFFFFFFF
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._pending[req_id] = future
        self.requests += 1
        expiry: Optional[asyncio.TimerHandle] = None
        try:
            self._writer.write(encode_frame(ftype, req_id, payload,
                                            trace=trace, deadline=deadline))
            await self._writer.drain()
            if timeout is not None:
                # One timer per request, cancelled below in the common
                # case; a reply landing after it fired finds no pending
                # future and is dropped by the read loop.
                expiry = loop.call_later(timeout, _expire, future)
            return await future
        except asyncio.TimeoutError:
            raise  # an OSError since 3.11, but not a dead connection
        except (ConnectionError, OSError) as exc:
            raise WorkerUnavailable(f"{self.name}: {exc}") from exc
        finally:
            if expiry is not None:
                expiry.cancel()
            self._pending.pop(req_id, None)

    async def close(self) -> None:
        task = self._read_task
        self._teardown(WorkerUnavailable(f"link to {self.name} closed"))
        if task is not None and task is not asyncio.current_task():
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass


class Frontend(NetServiceBase):
    """Accept client connections; partition, fan out, retry, eject.

    Parameters
    ----------
    artifacts:
        The same artifact files/manifests the workers serve — read for
        metadata only (routing and shard ranges), never loaded.
    workers:
        ``(host, port)`` of every worker in the fleet.
    request_timeout:
        Per-sub-batch timeout for one worker attempt.
    max_attempts:
        Worker attempts per sub-batch (1 primary + retries on fallback
        workers) before the request fails with :class:`NetError`.
    eject_after:
        Consecutive failures after which a worker's circuit breaker
        opens and it leaves the rotation; its shard affinity re-routes
        to the survivors.  An open breaker is probed after a cooldown
        (half-open) and re-closes on a successful probe — readmission is
        automatic, not an operator action.
    failure_rate_threshold / failure_window:
        Second breaker trigger: failure rate above the threshold across
        the last ``failure_window`` outcomes opens the circuit even when
        successes keep resetting the consecutive counter.
    breaker_cooldown / breaker_max_cooldown:
        Seconds before an open breaker is probed; doubles per failed
        probe up to the cap.
    hedge_ratio:
        Hedged-request budget as a fraction of sub-batches sent (0
        disables hedging).  When a primary attempt is slower than the
        observed P95 attempt latency, one duplicate is sent to the next
        healthy worker and the first answer wins — tail latency is
        traded for bounded duplicate work.
    hedge_min_delay:
        Floor (seconds) for the hedge delay, so a cold latency window
        cannot cause hedge storms.
    """

    role = "frontend"

    #: What the front tier counts: published on the obs registry, read
    #: flat by :meth:`stats`.
    SERIES = (
        ("repro_frontend_retries_total", "counter",
         "Sub-batch retries after a worker attempt failed",
         lambda f: f.retries),
        ("repro_frontend_failovers_total", "counter",
         "Sub-batches moved to a different worker", lambda f: f.failovers),
        ("repro_frontend_ejections_total", "counter",
         "Workers ejected from the rotation", lambda f: f.ejections),
        ("repro_frontend_readmits_total", "counter",
         "Ejected workers probed healthy and readmitted",
         lambda f: f.readmits),
        ("repro_frontend_hedges_total", "counter",
         "Duplicate sub-batches sent after the hedge delay",
         lambda f: f.hedges),
        ("repro_frontend_hedge_wins_total", "counter",
         "Hedged requests whose duplicate answered first",
         lambda f: f.hedge_wins),
        ("repro_frontend_deadline_rejections_total", "counter",
         "Requests rejected because their deadline had expired",
         lambda f: f.deadline_rejections),
        ("repro_frontend_breaker_opens_total", "counter",
         "Circuit-breaker transitions into the open state",
         lambda f: sum(link.breaker.opens for link in f._links)),
        ("repro_frontend_healthy_workers", "gauge",
         "Workers currently in the rotation",
         lambda f: len(f.healthy_links())),
    )

    def __init__(self, artifacts: Sequence[str],
                 workers: Sequence[Tuple[str, int]],
                 host: str = "127.0.0.1", port: int = 0, *,
                 request_timeout: float = 5.0, max_attempts: int = 3,
                 eject_after: int = 3,
                 failure_rate_threshold: float = 0.5,
                 failure_window: int = 20,
                 breaker_cooldown: float = 1.0,
                 breaker_max_cooldown: float = 30.0,
                 hedge_ratio: float = 0.1,
                 hedge_min_delay: float = 0.05):
        super().__init__(host=host, port=port)
        if not workers:
            raise ValueError("frontend needs at least one worker address")
        self._router = StretchRouter(build_registry(artifacts))
        self._links = [
            WorkerLink(worker_host, worker_port, name=f"worker-{index}")
            for index, (worker_host, worker_port) in enumerate(workers)
        ]
        self.request_timeout = request_timeout
        self.max_attempts = max(1, int(max_attempts))
        self.eject_after = max(1, int(eject_after))
        for link in self._links:
            link.breaker = CircuitBreaker(
                consecutive_after=self.eject_after,
                rate_threshold=failure_rate_threshold,
                window=failure_window,
                cooldown=breaker_cooldown,
                max_cooldown=breaker_max_cooldown)
        self.hedge_ratio = float(hedge_ratio)
        self.hedge_min_delay = float(hedge_min_delay)
        self.retries = 0
        self.failovers = 0
        self.ejections = 0
        self.readmits = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.deadline_rejections = 0
        self._subbatches = 0
        # Attempt latency window feeding the hedge delay (P95), and the
        # last P95 read from it (see :meth:`_hedge_delay`).
        self._attempt_latency = LatencyRecorder(window=512)
        self._hedge_p95_us: Optional[float] = None
        self._hedge_delay_due = 0
        self._probe_tasks: set = set()
        # Sampled traces in flight: trace id -> context.  Worker reply
        # blobs arriving on any link are folded into the matching context.
        self._live_traces: Dict[str, TraceContext] = {}
        for link in self._links:
            link.trace_sink = self._ingest_worker_trace
        publish(self, self.SERIES)

    def _ingest_worker_trace(self, payload: Dict[str, Any]) -> None:
        context = self._live_traces.get(str(payload.get("id", "")))
        if context is not None:
            context.ingest(payload)

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    async def handle_request(self, request: Request,
                             trace: Optional[TraceContext] = None,
                             deadline: Optional[float] = None,
                             ) -> np.ndarray:
        if self._draining:
            raise ServerClosed("frontend is draining")
        if deadline is not None and time.monotonic() >= deadline:
            # Admission check: don't fan out work nobody is waiting for.
            self.deadline_rejections += 1
            raise DeadlineExceeded(
                "request deadline expired at frontend admission")
        self._maybe_probe()
        if trace is not None:
            self._live_traces[trace.trace_id] = trace
        try:
            route_wall = time.time()
            route_tick = time.perf_counter_ns()
            entry = self._router.resolve(
                request.multiplicative, request.additive, request.artifact)
            count = len(request)
            if count == 0:
                return np.zeros(0, dtype=np.float64)
            u, v = request.u, request.v
            if (int(u.min()) < 0 or int(u.max()) >= entry.n
                    or int(v.min()) < 0 or int(v.max()) >= entry.n):
                raise ValueError(
                    f"request contains node ids outside [0, {entry.n})")
            healthy = self.healthy_links()
            if not healthy:
                raise NetError("no healthy workers remain in the fleet")
            runs = self._partition(entry, u, v, len(healthy))
            if trace is not None:
                trace.add("frontend.route", route_wall,
                          (time.perf_counter_ns() - route_tick) / 1000.0)
            trace_blob = (trace_capable_blob(trace.trace_id)
                          if trace is not None else None)
            # A run that is the whole frame slices nothing: ``u[0:count]``
            # is the request's own column, packed as it arrived.
            sends = []
            for owner, where in runs:
                run_u = u[where]
                sends.append(self._fan_out(
                    healthy, owner, pack_request_columns(
                        run_u, v[where], request.multiplicative,
                        request.additive, entry.name), len(run_u),
                    trace_blob=trace_blob, deadline=deadline))
            fanout_wall = time.time()
            fanout_tick = time.perf_counter_ns()
            if len(sends) == 1:
                # One owner: no Task, no gather, and the worker's values
                # go back as they were received.
                out = await sends[0]
            else:
                out = np.empty(count, dtype=np.float64)
                for (_owner, where), values in zip(
                        runs, await asyncio.gather(*sends)):
                    out[where] = values
            if trace is not None:
                trace.add("frontend.fanout", fanout_wall,
                          (time.perf_counter_ns() - fanout_tick) / 1000.0)
            return out
        finally:
            if trace is not None:
                self._live_traces.pop(trace.trace_id, None)

    def _partition(self, entry: ArtifactEntry, u: np.ndarray, v: np.ndarray,
                   num_workers: int) -> List[Tuple[int, Union[slice, np.ndarray]]]:
        """One frame as per-owner runs: ``[(healthy-worker index, where)]``.

        Shard affinity when the artifact has several shards, else
        contiguous even chunks.
        ``where`` selects a run's pairs within the frame (and their slots
        in the answer): a slice when the owners were already grouped —
        always so for a single owner, whose run is the whole frame in
        order — else a piece of one stable sort by owner.
        """
        count = len(u)
        if num_workers == 1:
            return [(0, slice(0, count))]
        if len(entry.row_ranges) > 1:
            starts = np.asarray([start for start, _stop in entry.row_ranges])
            rows = np.minimum(u, v)  # the canonical row the gather reads
            owners = (np.searchsorted(starts, rows, side="right") - 1) \
                % num_workers
        else:
            owners = (np.arange(count) * num_workers) // count
        return grouped_runs(owners)

    async def _fan_out(self, healthy: List[WorkerLink], start: int,
                       payload: bytes, count: int,
                       trace_blob: Optional[bytes] = None,
                       deadline: Optional[float] = None) -> np.ndarray:
        """One sub-batch: primary worker, then bounded budget-aware failover.

        ``payload`` is the packed sub-batch, the same bytes for every
        attempt, and ``count`` the number of pairs in it — the number of
        distances a reply must carry to count as an answer.  Each
        attempt's timeout is the smaller of ``request_timeout`` and the
        remaining deadline budget, so retries never outlive the caller's
        patience.  Transport failures and
        failover-safe remote errors (see :data:`FAILOVER_ERRORS`) move the
        sub-batch to the next healthy worker; if every attempt fails with a
        data-integrity error, that typed error propagates (the data, not
        the fleet, is the problem).

        The attempt budget is ``max_attempts`` *sends*, even when fewer
        workers are in rotation: with one survivor, a transient drop on it
        is retried on the same link rather than failing the caller — the
        degraded fleet is exactly when retry slack matters most.  A link
        whose breaker opened after ``healthy`` was taken is passed over
        without spending an attempt; the scan stops once a whole lap of
        the rotation admits nothing.
        """
        attempts = 0
        refused = 0  # consecutive links passed over: a full lap ends the scan
        cursor = start
        last_link: Optional[WorkerLink] = None
        last_exc: Optional[Exception] = None
        while attempts < self.max_attempts and refused < len(healthy):
            index = cursor % len(healthy)
            cursor += 1
            link = healthy[index]
            if not link.breaker.allow():
                refused += 1
                continue
            refused = 0
            timeout = self.request_timeout
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self.deadline_rejections += 1
                    raise DeadlineExceeded(
                        f"deadline expired after {attempts} worker attempt(s)"
                    ) from last_exc
                timeout = min(timeout, remaining)
            if attempts:
                self.retries += 1
                if link is not last_link:  # same-link retry ≠ failover
                    self.failovers += 1
            attempts += 1
            last_link = link
            hedge_link = self._hedge_candidate(healthy, index)
            self._subbatches += 1
            try:
                return await self._request_hedged(
                    link, hedge_link, payload, count, trace_blob, timeout,
                    deadline)
            except FAILOVER_ERRORS as exc:
                last_exc = exc
        if last_exc is None:
            raise NetError(
                f"no worker admits this sub-batch of {count} pairs: every "
                f"breaker in the rotation opened before it could be sent")
        if isinstance(last_exc, ShardIntegrityError):
            raise ShardIntegrityError(
                f"sub-batch of {count} pairs hit persistent data "
                f"corruption after {attempts} attempt(s): {last_exc}"
            ) from last_exc
        raise NetError(
            f"sub-batch of {count} pairs failed after {attempts} "
            f"attempt(s): {last_exc}") from last_exc

    def _hedge_candidate(self, healthy: List[WorkerLink],
                         primary: int) -> Optional[WorkerLink]:
        """The link a hedge would go to, or None when hedging is off-budget.

        The hedge budget is ``hedge_ratio`` of all sub-batches sent, so
        tail-chasing can never double the fleet's load; the candidate is
        the next breaker-closed link after ``healthy[primary]``.
        """
        if len(healthy) < 2 or self.hedge_ratio <= 0:
            return None
        if self.hedges >= self.hedge_ratio * max(1, self._subbatches):
            return None
        for offset in range(1, len(healthy)):
            candidate = healthy[(primary + offset) % len(healthy)]
            if candidate.breaker.allow():
                return candidate
        return None

    def _hedge_delay(self) -> float:
        """Seconds before a slow attempt is hedged: observed P95, clamped.

        Reading the P95 sorts the latency window, so it is re-read only
        once the window has taken in as many attempts again as it had at
        the last read, at most :data:`HEDGE_DELAY_REFRESH` — every attempt
        while the window is cold, once per 64 on a warm fleet.
        """
        recorded = self._attempt_latency.count
        if recorded >= self._hedge_delay_due:
            self._hedge_delay_due = recorded + min(max(recorded, 1),
                                                   HEDGE_DELAY_REFRESH)
            self._hedge_p95_us = self._attempt_latency.percentile(95.0)
        if not self._hedge_p95_us:
            return self.request_timeout  # cold window: never hedge blind
        return min(max(self._hedge_p95_us / 1e6, self.hedge_min_delay),
                   self.request_timeout)

    async def _request_hedged(self, link: WorkerLink,
                              hedge_link: Optional[WorkerLink],
                              payload: bytes, count: int,
                              trace_blob: Optional[bytes], timeout: float,
                              deadline: Optional[float]) -> np.ndarray:
        """One worker attempt, optionally raced against a hedged duplicate.

        Without a hedge candidate (one healthy worker, hedging off or over
        budget) or with a hedge delay no shorter than the attempt's
        timeout, this is the attempt itself, awaited in place.  Otherwise
        the primary runs as a Task next to one timer: the duplicate goes
        out only if the primary is still unanswered when the timer fires;
        the first clean answer wins and the loser is cancelled/consumed.
        Requests are idempotent reads, so the duplicate is always safe.
        """
        delay = self._hedge_delay() if hedge_link is not None else timeout
        if delay >= timeout:
            return await self._timed_request(link, payload, count, trace_blob,
                                             timeout, deadline)
        loop = asyncio.get_running_loop()
        outcome: asyncio.Future = loop.create_future()
        racers: List[asyncio.Task] = []

        def enter(target: WorkerLink) -> None:
            racer = loop.create_task(self._timed_request(
                target, payload, count, trace_blob, timeout, deadline))
            racers.append(racer)
            racer.add_done_callback(settle)

        def settle(racer: asyncio.Task) -> None:
            if racer.cancelled():
                return
            failed = racer.exception() is not None  # read: never "unretrieved"
            if outcome.done():
                return
            if not failed:
                outcome.set_result(racer)
            elif all(other.done() for other in racers):
                # Nobody left to win: the primary's error stands (a timer
                # still armed is cancelled below, so no hedge follows it).
                outcome.set_exception(racers[0].exception())

        def hedge() -> None:
            if not outcome.done():  # decided in this very loop turn
                self.hedges += 1
                enter(hedge_link)

        enter(link)
        timer = loop.call_later(delay, hedge)
        try:
            winner = await outcome
        finally:
            timer.cancel()
            for racer in racers:
                if not racer.done():
                    racer.cancel()
                    try:
                        await racer
                    except (asyncio.CancelledError, Exception):
                        pass  # the loser's outcome is nobody's business
        if winner is not racers[0]:
            self.hedge_wins += 1
        return winner.result()

    async def _timed_request(self, link: WorkerLink, payload: bytes,
                             count: int, trace_blob: Optional[bytes],
                             timeout: float,
                             deadline: Optional[float]) -> np.ndarray:
        """One wire attempt with breaker + latency-window bookkeeping.

        A reply that is not ``count`` distances long is a failed attempt
        like any other: the breaker is charged and the sub-batch moves on.
        """
        tick = time.perf_counter_ns()
        try:
            values = checked_reply(await link.request_packed(
                payload, timeout=timeout, trace=trace_blob,
                deadline=deadline), count, link.name)
        except FAILOVER_ERRORS:
            self._mark_failure(link)
            raise
        self._attempt_latency.record(time.perf_counter_ns() - tick)
        link.breaker.record_success()
        return values

    def _mark_failure(self, link: WorkerLink) -> None:
        was_closed = link.breaker.state == BREAKER_CLOSED
        if link.breaker.record_failure() and was_closed:
            self.ejections += 1

    def _maybe_probe(self) -> None:
        """Kick off a background readmission probe per cooled-down breaker."""
        for index, link in enumerate(self._links):
            if link.breaker.ready_to_probe():
                link.breaker.begin_probe()
                task = asyncio.get_running_loop().create_task(
                    self._probe(index),
                    name=f"repro-net-probe-{link.name}")
                self._probe_tasks.add(task)
                task.add_done_callback(self._probe_tasks.discard)

    async def _probe(self, index: int) -> None:
        """Half-open single probe: PING the worker, close or re-open."""
        link = self._links[index]
        if await link.ping(timeout=self.request_timeout):
            self.readmits += 1
            link.breaker.force_close()
        else:
            link.breaker.record_failure()  # re-opens with doubled cooldown

    # ------------------------------------------------------------------
    # fleet health
    # ------------------------------------------------------------------
    def healthy_links(self) -> List[WorkerLink]:
        return [link for link in self._links if link.breaker.allow()]

    def links(self) -> List[WorkerLink]:
        return list(self._links)

    async def stop(self, drain_timeout: float = 5.0) -> None:
        await super().stop(drain_timeout)
        for task in list(self._probe_tasks):
            task.cancel()
        if self._probe_tasks:
            await asyncio.gather(*self._probe_tasks, return_exceptions=True)
        for link in self._links:
            await link.close()

    def health(self) -> Dict[str, object]:
        health = super().health()
        health["workers"] = len(self._links)
        health["healthy_workers"] = len(self.healthy_links())
        return health

    def stats(self) -> Dict[str, float]:
        """The values of :attr:`SERIES`, flat: ``retries``,
        ``failovers``, ``ejections``, ``readmits``, ``hedges``,
        ``hedge_wins``, ``deadline_rejections``, ``breaker_opens`` and
        ``healthy_workers``.  A read: it leaves the hedge delay's memo
        alone."""
        return read_series(self, self.SERIES)

    # ------------------------------------------------------------------
    # fleet metrics aggregation
    # ------------------------------------------------------------------
    async def _metrics_snapshot(self) -> Dict[str, Any]:
        """Local registry merged with every reachable worker's registry.

        Workers run in their own processes, so the frontend's in-process
        registry only sees the frontend tier.  Scraping each worker's
        ``/metricsz?format=json`` and merging makes the frontend's
        endpoint a one-stop fleet view.
        """
        local = get_registry().snapshot()
        remote = await asyncio.gather(
            *(self._scrape_worker(link.host, link.port)
              for link in self._links))
        scraped = [snap for snap in remote if snap is not None]
        merged = merge_snapshots([local] + scraped)
        merged["fleet"] = {"workers": len(self._links),
                           "workers_scraped": len(scraped)}
        return merged

    async def _scrape_worker(self, host: str, port: int,
                             timeout: float = 2.0,
                             ) -> Optional[Dict[str, Any]]:
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout)
        except (OSError, asyncio.TimeoutError):
            return None
        try:
            writer.write(b"GET /metricsz?format=json HTTP/1.1\r\n"
                         b"Host: repro\r\nConnection: close\r\n\r\n")
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(-1), timeout)
        except (OSError, asyncio.TimeoutError):
            return None
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.TimeoutError):
                pass
        head, _sep, body = raw.partition(b"\r\n\r\n")
        if b" 200 " not in head.split(b"\r\n", 1)[0]:
            return None
        try:
            snapshot = json.loads(body)
        except ValueError:
            return None
        return snapshot if isinstance(snapshot, dict) else None


class NetClient:
    """Client-side handle on a frontend (or a single worker) address.

    ``batch`` sends one wire request per call — the throughput path.
    ``dist`` awaits a single pair and, with coalescing enabled (the
    default), parks it in a :class:`~repro.serve.coalesce.Coalescer`
    (one bucket per stretch budget) whose flusher sends the parked pairs
    as batched frames — the class
    :class:`~repro.serve.server.DistanceServer` parks its own point
    queries in, held at the client edge of the wire.
    ``coalesce_window`` is the minimum spacing between two frames, counted
    from the previous frame's send: a lone ``dist()`` is one round trip
    and is not delayed, and closed-loop callers whose round trip outlasts
    the window leave one frame per reply, no timer armed.  Either way the
    answers are the engine's, bit for bit.

    Usable anywhere :class:`DistanceServer` is awaited: the load
    generator's closed/open-loop drivers accept it unchanged.
    """

    def __init__(self, host: str, port: int, *, client: str = "client",
                 coalesce_window: float = 0.0005, max_batch: int = 8192,
                 request_timeout: float = 10.0):
        self.link = WorkerLink(host, port, name=client)
        self.coalesce_window = coalesce_window
        self.max_batch = max_batch
        self.request_timeout = request_timeout
        self._coalescer = Coalescer(self._send, coalesce_window, max_batch,
                                    name=f"repro-net-client-{client}")
        self._closed = False
        # Sampled request tracing: contexts noted when their pair parks;
        # ``_send`` turns the park time into a ``client.coalesce`` span
        # and the wire round trip into ``client.request``.  Far-tier spans
        # ride back in the response frame's trace blob and land via the
        # link's trace sink.
        self.tracer = get_tracer()
        self._live: Dict[str, TraceContext] = {}
        self._trace_meta: Dict[Tuple[float, float],
                               Dict[Pair, Tuple[TraceContext, float, int]]] = {}
        self.link.trace_sink = self._ingest_trace

    def _ingest_trace(self, payload: Dict[str, Any]) -> None:
        context = self._live.get(str(payload.get("id", "")))
        if context is not None:
            context.ingest(payload)

    async def __aenter__(self) -> "NetClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    async def aclose(self) -> None:
        """Close the link; ``dist()`` callers still waiting (parked, or in
        a frame that is out) fail with :class:`WorkerUnavailable`."""
        self._closed = True
        await self._coalescer.aclose(WorkerUnavailable("client closing"))
        await self.link.close()

    async def batch(self, pairs, *, multiplicative: float = math.inf,
                    additive: float = math.inf, artifact: str = "",
                    ) -> np.ndarray:
        """One batched wire request (the ladder benchmark's hot path)."""
        return checked_reply(await self.link.request(
            pairs, multiplicative, additive, artifact=artifact,
            timeout=self.request_timeout,
            deadline=time.monotonic() + self.request_timeout),
            len(pairs), self.link.name)

    async def dist(self, u: int, v: int, *, multiplicative: float = math.inf,
                   additive: float = math.inf) -> float:
        """Single-pair query, transparently coalesced onto the wire."""
        if self._closed:
            raise ServerClosed("client is closed")
        budget = (multiplicative, additive)
        key = (u, v) if u <= v else (v, u)
        if self.coalesce_window <= 0:
            # Uncoalesced: a frame of one key, sent (and its trace noted
            # and claimed) before this coroutine first suspends.
            self._note_trace(budget, key)
            return (await self._send(budget, [key]))[0]
        future, new = self._coalescer.park(budget, key)
        if new:
            self._note_trace(budget, key)
        return await future

    def _note_trace(self, budget: Tuple[float, float], key: Pair) -> None:
        """Sample the request; a sampled one waits for the frame it leaves in."""
        context = self.tracer.maybe_start()
        if context is not None:
            self._trace_meta.setdefault(budget, {})[key] = (
                context, time.time(), time.perf_counter_ns())

    async def _send(self, budget: Tuple[float, float],
                    keys: List[Pair]) -> List[float]:
        """One wire frame of pairs sharing a budget (the coalescer's ``send``)."""
        contexts = self._open_chunk_traces(keys, self._trace_meta.get(budget))
        trace_blob = (trace_capable_blob(contexts[0].trace_id)
                      if contexts else None)
        wall = time.time()
        tick = time.perf_counter_ns()
        try:
            values = checked_reply(await self.link.request(
                keys, *budget, timeout=self.request_timeout, trace=trace_blob,
                deadline=time.monotonic() + self.request_timeout),
                len(keys), self.link.name)
        finally:
            self._close_chunk_traces(contexts, wall, tick)
        return values.tolist()

    def _open_chunk_traces(self, chunk, meta) -> List[TraceContext]:
        """Stamp the coalesce span on every sampled pair in the chunk.

        Only the first context's id rides the wire (one frame carries one
        trace blob), so the carrier collects the far-tier spans; the rest
        still get their client-side timeline.
        """
        contexts: List[TraceContext] = []
        if not meta:
            return contexts
        now = time.perf_counter_ns()
        for key in chunk:
            parked = meta.pop(key, None)
            if parked is None:
                continue
            context, wall, tick = parked
            context.add("client.coalesce", wall, (now - tick) / 1000.0)
            self._live[context.trace_id] = context
            contexts.append(context)
        return contexts

    def _close_chunk_traces(self, contexts: List[TraceContext],
                            wall: float, tick: int) -> None:
        duration_us = (time.perf_counter_ns() - tick) / 1000.0
        for context in contexts:
            context.add("client.request", wall, duration_us)
            self._live.pop(context.trace_id, None)
            self.tracer.finish(context)


__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "FAILOVER_ERRORS",
    "Frontend",
    "MiscountedReply",
    "NetClient",
    "RETRYABLE",
    "WorkerLink",
    "WorkerUnavailable",
    "map_wire_error",
]
