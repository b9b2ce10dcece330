"""Asyncio distance server with request coalescing and backpressure.

:class:`DistanceServer` is the front end that turns the synchronous
:class:`~repro.oracle.engine.QueryEngine` into a service.  Its core trick
is **request coalescing**: concurrent ``await server.dist(u, v)`` calls do
not each pay an engine round-trip.  Instead every request parks its key
in a :class:`~repro.serve.coalesce.Coalescer` (one bucket per routed
artifact) whose flusher drains the parked keys at most once per
``coalesce_window`` seconds — the window is the minimum spacing between
two flushes, not a delay every query pays — resolving them with one
vectorised engine gather per chunk of at most ``max_batch``.  Duplicate
concurrent keys share one sent key, so a thundering herd on a hot pair
costs one table lookup.  Answers are bit-for-bit identical to serial
``engine.dist`` calls — coalescing reorders work, never results.

There are two doors — per-pair :meth:`DistanceServer.dist` and per-frame
:meth:`DistanceServer.gather` (the wire tier's) — and one way to the
engine behind both: ``_screened_batch``, which never lets an implausible
distance out (quarantine, re-verify, retry once, typed error).

Around that core:

* **Routing** — each request carries a stretch budget and is routed by a
  :class:`~repro.serve.router.StretchRouter` to the cheapest admissible
  artifact; a bare ``QueryEngine`` (or ``ArtifactRegistry``) is adapted
  automatically.
* **Backpressure** — at most ``queue_capacity`` requests may be in
  flight.  Beyond that the server either sheds (``overload_policy="shed"``,
  raising :class:`ServerOverloaded` immediately — the caller can retry
  elsewhere) or parks the caller until space frees
  (``overload_policy="wait"``).
* **Observability** — what the server counts is one table,
  :attr:`DistanceServer.SERIES`, published on the obs registry and read
  flat by ``stats()``; request latency goes to one window,
  :attr:`DistanceServer.latency`, published as ``repro_serve_latency_us``.
* **Graceful shutdown** — ``await server.stop()`` rejects new requests,
  flushes everything pending, and closes the coalescer; ``async with``
  scopes a server to a block.

The engine gathers run inline on the event loop: they are numpy-bound
microsecond work, and keeping them on-loop makes answers deterministic
and the server dependency-free (pure stdlib asyncio + numpy).
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import time
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs.metrics import LatencyRecorder, get_registry, publish, read_series
from repro.oracle.engine import QueryEngine
from repro.oracle.sharding import ShardIntegrityError
from repro.serve.coalesce import Coalescer
from repro.serve.registry import ArtifactEntry, ArtifactRegistry
from repro.serve.router import (
    RouteDecision,
    RoutingError,
    StretchRouter,
    budget_admits,
)

Pair = Tuple[int, int]


class ServerClosed(RuntimeError):
    """The server is shut down (or shutting down) and takes no new requests."""


class ServerOverloaded(RuntimeError):
    """Request shed: the in-flight queue is at capacity (load-shed policy)."""


class DeadlineExceeded(RuntimeError):
    """The request's deadline expired before an answer could be produced.

    Deadlines are absolute ``time.monotonic()`` instants checked at the
    admission gate, after any backpressure wait, and between gather
    chunks — work that cannot finish in time is abandoned early instead
    of burning engine cycles on an answer nobody is waiting for.  The
    net tier maps this to the wire error ``ERR_DEADLINE_EXCEEDED``.
    """


@dataclasses.dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs for :class:`DistanceServer`.

    coalesce_window:
        Minimum spacing, in seconds, between two flushes of parked point
        queries, counted from the previous flush: requests arriving
        sooner than that accumulate into one batch, a lone query (the
        previous flush is a window old) is not delayed.  ``0`` disables
        coalescing: every request becomes its own single-pair engine
        batch.
    max_batch:
        Maximum keys per engine gather; a flush drains *all* pending
        keys in ``ceil(pending / max_batch)`` engine batches.
    queue_capacity:
        Maximum requests in flight before backpressure engages.
    overload_policy:
        ``"shed"`` raises :class:`ServerOverloaded` at capacity;
        ``"wait"`` parks callers until space frees.
    """

    coalesce_window: float = 0.001
    max_batch: int = 1024
    queue_capacity: int = 8192
    overload_policy: str = "shed"

    def __post_init__(self) -> None:
        if self.coalesce_window < 0:
            raise ValueError("coalesce_window must be >= 0")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.overload_policy not in ("shed", "wait"):
            raise ValueError(
                f"overload_policy must be 'shed' or 'wait', "
                f"got {self.overload_policy!r}"
            )


class _SingleEngineRouter:
    """Adapter presenting one already-loaded engine as a router."""

    def __init__(self, engine: QueryEngine, name: str = "default"):
        self._engine = engine
        self._entry = ArtifactEntry.from_metadata(
            name, Path("<memory>"), engine.artifact, ((0, engine.n),))
        # One artifact means one possible decision; build it once so the
        # server's hot path does not construct a dataclass per request.
        self._decision = RouteDecision(name=name, entry=self._entry)

    def route(self, multiplicative: float = math.inf,
              additive: float = math.inf) -> RouteDecision:
        stretch = self._entry.stretch
        if not budget_admits(stretch, multiplicative, additive):
            raise RoutingError(
                f"engine guarantee {stretch.multiplicative:g}x+"
                f"{stretch.additive:g} exceeds stretch budget "
                f"{multiplicative:g}x+{additive:g}"
            )
        return self._decision

    def engine(self, name: str) -> QueryEngine:
        return self._engine

    def entry(self, name: str) -> ArtifactEntry:
        if name != self._entry.name:
            raise RoutingError(
                f"unknown artifact {name!r}; this server holds only "
                f"{self._entry.name!r}")
        return self._entry

    # Written against ``route``/``entry`` only, which this adapter has.
    resolve = StretchRouter.resolve


RouterLike = Union[StretchRouter, ArtifactRegistry, QueryEngine]


class DistanceServer:
    """Serve distance queries over one or many oracle artifacts.

    ``target`` may be a :class:`StretchRouter`, an
    :class:`ArtifactRegistry` (wrapped in a default router), or a bare
    :class:`QueryEngine` (single-artifact serving).
    """

    #: What a server counts: published on the obs registry, read flat by
    #: :meth:`stats`.  Every row reads a plain int the dist()/gather()
    #: coroutines already maintain, so being observable costs them nothing.
    SERIES = (
        ("repro_serve_requests_total", "counter",
         "Requests entering DistanceServer (pairs count individually)",
         lambda s: s._requests_total),
        ("repro_serve_served_total", "counter",
         "Requests answered successfully", lambda s: s._served_total),
        ("repro_serve_shed_total", "counter",
         "Requests shed at the backpressure gate", lambda s: s._shed_total),
        ("repro_serve_errors_total", "counter",
         "Requests failed with an error", lambda s: s._errors_total),
        ("repro_serve_engine_batches_total", "counter",
         "Vectorised engine gathers issued", lambda s: s._engine_batches),
        ("repro_serve_coalesced_keys_total", "counter",
         "Distinct keys resolved through engine gathers",
         lambda s: s._coalesced_keys),
        ("repro_serve_quarantines_total", "counter",
         "Gathers that tripped the shard-integrity quarantine",
         lambda s: s._quarantines),
        ("repro_serve_deadline_rejections_total", "counter",
         "Requests abandoned because their deadline expired",
         lambda s: s._deadline_rejections),
        ("repro_serve_in_flight", "gauge",
         "Requests holding a queue slot right now", lambda s: s._in_flight),
        ("repro_serve_pending_keys", "gauge",
         "Keys parked in coalescing buckets", lambda s: s._coalescer.parked),
    )

    def __init__(self, target: RouterLike, config: Optional[ServerConfig] = None):
        if isinstance(target, QueryEngine):
            self._router = _SingleEngineRouter(target)
        elif isinstance(target, ArtifactRegistry):
            self._router = StretchRouter(target)
        else:
            self._router = target
        self.config = config or ServerConfig()

        # Point queries park here, one bucket per routed artifact; the
        # flusher task exists only once a key has parked, so a wire worker
        # (all gather(), no dist()) never has one.
        self._coalescer = Coalescer(self._send, self.config.coalesce_window,
                                    self.config.max_batch,
                                    name="repro-serve-flusher")
        self._closed = False

        self._in_flight = 0
        self._space_waiters: Deque[asyncio.Future] = deque()

        #: Latency of the last 8,192 requests (the pairs of one gather()
        #: share its time equally).
        self.latency = LatencyRecorder(8192)
        self._requests_total = 0
        self._served_total = 0
        self._shed_total = 0
        self._errors_total = 0
        self._engine_batches = 0
        self._coalesced_keys = 0
        self._quarantines = 0
        self._deadline_rejections = 0
        self._register_metrics()

    def _register_metrics(self) -> None:
        """Publish :attr:`SERIES` and attach the latency window."""
        publish(self, self.SERIES)
        get_registry().recorder(
            "repro_serve_latency_us", "DistanceServer request latency",
        ).attach(self.latency)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "DistanceServer":
        """No-op half of the ``start``/``stop`` pair ``async with`` uses:
        the flusher starts with the first parked key, not here."""
        return self

    async def stop(self) -> None:
        """Graceful shutdown: reject new requests, drain, close the coalescer."""
        if self._closed:
            return
        self._closed = True
        # Resolve everything already parked, then let the parked callers
        # run before the flusher goes away.  ``_outstanding`` counts every
        # dist() call that has entered but not yet settled, including ones
        # parked behind the backpressure gate.
        while self._outstanding():
            await self._coalescer.flush()
            await asyncio.sleep(0)
        await self._coalescer.aclose(ServerClosed("server is shut down"))

    async def __aenter__(self) -> "DistanceServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # query API
    # ------------------------------------------------------------------
    async def dist(self, u: int, v: int, *, multiplicative: float = math.inf,
                   additive: float = math.inf) -> float:
        """Estimated distance, served from the cheapest admissible artifact.

        Raises :class:`RoutingError` when no artifact meets the budget,
        :class:`ServerOverloaded` when shed, :class:`ServerClosed` after
        shutdown, and ``ValueError`` for out-of-range nodes.
        """
        if self._closed:
            raise ServerClosed("server is shut down")
        started = time.perf_counter_ns()
        self._requests_total += 1
        # One flat coroutine: this is the hot path, and every extra frame
        # or coroutine hop costs about a microsecond per request.
        try:
            decision = self._router.route(multiplicative=multiplicative,
                                          additive=additive)
            n = decision.entry.n
            if not 0 <= u < n or not 0 <= v < n:
                raise ValueError(f"node pair ({u}, {v}) out of range [0, {n})")
            if u == v:
                value = 0.0
            else:
                key = (u, v) if u < v else (v, u)
                config = self.config
                if self._in_flight >= config.queue_capacity:
                    await self._admit_slow()
                self._in_flight += 1
                try:
                    if config.coalesce_window <= 0:
                        # Coalescing disabled: a frame of one key per
                        # request.
                        value = (await self._send(decision.name, (key,)))[0]
                    else:
                        value = await self._coalescer.park(decision.name,
                                                           key)[0]
                finally:
                    self._release()
        except ServerOverloaded:
            raise  # shed accounting happened at the admission gate
        except BaseException:
            self._errors_total += 1
            raise
        self._served_total += 1
        self.latency.record(time.perf_counter_ns() - started)
        return value

    async def batch(self, pairs: Sequence[Pair], *,
                    multiplicative: float = math.inf,
                    additive: float = math.inf) -> List[float]:
        """Concurrent :meth:`dist` over ``pairs`` (shares their coalescing)."""
        return list(await asyncio.gather(*(
            self.dist(u, v, multiplicative=multiplicative, additive=additive)
            for u, v in pairs
        )))

    async def gather(self, u, v, *, multiplicative: float = math.inf,
                     additive: float = math.inf,
                     artifact: Optional[str] = None,
                     trace=None,
                     deadline: Optional[float] = None) -> np.ndarray:
        """Vectorised batch: one route and one engine gather chain per call.

        The wire-protocol fast path (:mod:`repro.net`): a worker decodes
        a batched request into ``u``/``v`` node arrays and answers it
        here, paying routing, validation, and the engine gather once per
        *frame* instead of once per pair — no per-pair futures, no
        coalescing window.  Answers are identical to per-pair
        :meth:`dist` calls (both resolve through the engine's
        ``batch_core``).  ``artifact`` pins a registered artifact by name
        (still budget-checked) so a front tier can force every worker to
        answer from the same table; ``None`` routes by budget as usual.

        Each pair counts once in the request/served/shed/error totals
        and takes an equal share of the call's time in :attr:`latency`;
        the call occupies one backpressure slot.

        ``deadline`` (an absolute ``time.monotonic()`` instant, or None)
        bounds the work: it is checked at admission, again after any
        backpressure wait, and between gather chunks, raising
        :class:`DeadlineExceeded` instead of computing answers the
        caller has stopped waiting for.  Chunk results are screened for
        impossible distances (NaN/negative — mapped shard bytes gone
        bad); a failed screen quarantines the implicated shards, retries
        the chunk once against re-verified data, and raises
        :class:`~repro.oracle.sharding.ShardIntegrityError` if the
        corruption is persistent.  A wrong answer is never returned.
        """
        if self._closed:
            raise ServerClosed("server is shut down")
        started = time.perf_counter_ns()
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.shape != v.shape or u.ndim != 1:
            raise ValueError(
                f"u/v must be equal-length 1-D node arrays, got shapes "
                f"{u.shape} and {v.shape}")
        count = len(u)
        self._requests_total += count
        try:
            self._check_deadline(deadline, "at admission")
            entry = self._router.resolve(multiplicative, additive, artifact)
            n = entry.n
            if count == 0:
                values = np.zeros(0, dtype=np.float64)
            else:
                if (int(u.min()) < 0 or int(u.max()) >= n
                        or int(v.min()) < 0 or int(v.max()) >= n):
                    bad_mask = ((u < 0) | (u >= n) | (v < 0) | (v >= n))
                    index = int(np.argmax(bad_mask))
                    raise ValueError(
                        f"node pair ({int(u[index])}, {int(v[index])}) "
                        f"out of range [0, {n})")
                config = self.config
                # Manual span timing (not the context manager) keeps the
                # untraced path free of any tracing overhead.
                if trace is not None:
                    span_wall = time.time()
                    span_tick = time.perf_counter_ns()
                if self._in_flight >= config.queue_capacity:
                    await self._admit_slow(weight=count)
                    self._check_deadline(deadline, "waiting for a queue slot")
                self._in_flight += 1
                if trace is not None:
                    trace.add("worker.queue", span_wall,
                              (time.perf_counter_ns() - span_tick) / 1000.0)
                    span_wall = time.time()
                    span_tick = time.perf_counter_ns()
                try:
                    lo = np.minimum(u, v)
                    hi = np.maximum(u, v)
                    engine = self._router.engine(entry.name)
                    values = np.empty(count, dtype=np.float64)
                    for start in range(0, count, config.max_batch):
                        if start:
                            self._check_deadline(deadline, "between chunks")
                        chunk = slice(start, min(start + config.max_batch,
                                                 count))
                        values[chunk] = self._screened_batch(
                            engine, lo[chunk], hi[chunk])
                    if trace is not None:
                        trace.add("worker.gather", span_wall,
                                  (time.perf_counter_ns() - span_tick)
                                  / 1000.0)
                finally:
                    self._release()
        except ServerOverloaded:
            raise  # shed accounting happened at the admission gate
        except BaseException:
            self._errors_total += count
            raise
        self._served_total += count
        if count:
            self.latency.record_many(
                (time.perf_counter_ns() - started) // count, count)
        return values

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """The values of :attr:`SERIES`, flat: ``requests``, ``served``,
        ``shed``, ``errors``, ``engine_batches``, ``coalesced_keys``,
        ``quarantines``, ``deadline_rejections``, ``in_flight`` and
        ``pending_keys`` — the numbers ``/metricsz`` publishes."""
        return read_series(self, self.SERIES)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _outstanding(self) -> int:
        """Requests that entered :meth:`dist` and have not yet settled."""
        return (self._requests_total - self._served_total
                - self._shed_total - self._errors_total)

    def _check_deadline(self, deadline: Optional[float], where: str) -> None:
        """Raise :class:`DeadlineExceeded` if ``deadline`` has passed."""
        if deadline is not None and time.monotonic() >= deadline:
            self._deadline_rejections += 1
            raise DeadlineExceeded(f"request deadline expired {where}")

    def _screened_batch(self, engine: QueryEngine, lo: np.ndarray,
                        hi: np.ndarray) -> np.ndarray:
        """One engine gather whose answers are guaranteed plausible.

        Distances are non-negative by construction (``inf`` for
        disconnected pairs is fine); a NaN or negative value can only
        mean the bytes backing the gather have rotted — a corrupted
        mapped shard, typically.  On a failed screen the implicated rows'
        caches are purged and their shards quarantined
        (:meth:`QueryEngine.quarantine_rows`), then the gather runs once
        more against freshly re-verified data.  Either the re-verify
        fails (the shard is condemned and ``open_shard`` raises a typed
        :class:`~repro.oracle.sharding.ShardIntegrityError`), or a sound
        file was re-mapped and the clean retry answer is returned.  If
        the retry is somehow still implausible, the error is raised
        here — under no screen outcome does a wrong answer escape.

        Every answer the server gives comes through here, whichever door
        the request used, so this is also where gathers are counted.
        """
        values = engine.batch_core(lo, hi)
        bad = ~(values >= 0)  # catches NaN and negatives in one pass
        if bad.any():
            self._quarantines += 1
            rows = np.unique(np.concatenate([lo[bad], hi[bad]]))
            shards = engine.quarantine_rows(rows)
            values = engine.regather(lo, hi)  # the frame is counted already
            bad = ~(values >= 0)
            if bad.any():
                raise ShardIntegrityError(
                    f"gather returned implausible distances for "
                    f"{int(bad.sum())} pair(s) even after quarantining "
                    f"shard(s) {shards} and re-gathering")
        self._engine_batches += 1
        self._coalesced_keys += len(lo)
        return values

    async def _send(self, name: str, keys: Sequence[Pair]) -> List[float]:
        """One frame of point queries: canonical ``(lo, hi)`` keys of the
        artifact ``name`` (the coalescer's ``send``; never suspends)."""
        nodes = np.array(keys, dtype=np.int64)
        return self._screened_batch(self._router.engine(name),
                                    nodes[:, 0], nodes[:, 1]).tolist()

    async def _admit_slow(self, weight: int = 1) -> None:
        """The backpressure gate, entered only when the queue is full.

        Returns with a slot reserved for the caller (who increments
        ``_in_flight`` immediately, with no await in between).
        ``weight`` is how many requests a shed counts for — 1 for a point
        query, the pair count for a :meth:`gather` batch, keeping the
        request/served/shed/error totals consistent either way.
        """
        while self._in_flight >= self.config.queue_capacity:
            if self.config.overload_policy == "shed":
                self._shed_total += weight
                raise ServerOverloaded(
                    f"in-flight queue at capacity "
                    f"({self.config.queue_capacity}); request shed"
                )
            waiter = asyncio.get_running_loop().create_future()
            self._space_waiters.append(waiter)
            try:
                await waiter
            except asyncio.CancelledError:
                if not waiter.done():
                    waiter.cancel()
                raise

    def _release(self) -> None:
        self._in_flight -= 1
        while self._space_waiters:
            waiter = self._space_waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                break


__all__ = [
    "DeadlineExceeded",
    "DistanceServer",
    "ServerClosed",
    "ServerConfig",
    "ServerOverloaded",
]
