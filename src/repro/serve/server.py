"""Asyncio distance server with request coalescing and backpressure.

:class:`DistanceServer` is the front end that turns the synchronous
:class:`~repro.oracle.engine.QueryEngine` into a service.  Its core trick
is **request coalescing**: concurrent ``await server.dist(u, v)`` calls do
not each pay an engine round-trip.  Instead every request parks a future
in a per-artifact pending map and a single flusher task drains the map
once per micro-batching window (``coalesce_window`` seconds), resolving
all parked keys with one vectorised ``QueryEngine.batch`` gather (in
chunks of at most ``max_batch``).  Duplicate concurrent keys share one
future, so a thundering herd on a hot pair costs one table lookup.
Answers are bit-for-bit identical to serial ``engine.dist`` calls —
coalescing reorders work, never results.

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
* **Per-client stats** — every request names a ``client``; the server
  keeps per-client request/answer/shed counters and latency percentiles,
  and folds in the engines' own ``stats()`` snapshots.
* **Graceful shutdown** — ``await server.stop()`` rejects new requests,
  flushes everything pending, and joins the flusher; ``async with``
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

from repro.obs.metrics import LatencyRecorder
from repro.oracle.engine import QueryEngine
from repro.oracle.sharding import ShardIntegrityError
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
        Seconds a flush waits after the first enqueue so concurrent
        requests accumulate into one batch.  ``0`` disables coalescing:
        every request becomes its own single-pair engine batch (the
        naive baseline the benchmark compares against).  The string
        ``"auto"`` opts into the adaptive window: the server keeps an
        EWMA of the observed arrival rate and sizes each window to
        collect about ``auto_target_batch`` keys, clamped to
        ``[window_min, window_max]`` — light traffic gets low latency,
        heavy traffic gets big gathers, with no tuning.
    window_min / window_max / auto_target_batch:
        Bounds and batch goal for the adaptive window (ignored for a
        fixed numeric ``coalesce_window``).
    max_batch:
        Maximum keys per engine gather; a flush drains *all* pending
        keys in ``ceil(pending / max_batch)`` engine batches.
    queue_capacity:
        Maximum requests in flight before backpressure engages.
    overload_policy:
        ``"shed"`` raises :class:`ServerOverloaded` at capacity;
        ``"wait"`` parks callers until space frees.
    client_latency_window:
        Samples per client backing the latency percentiles.
    """

    coalesce_window: Union[float, str] = 0.001
    window_min: float = 0.0002
    window_max: float = 0.005
    auto_target_batch: int = 64
    max_batch: int = 1024
    queue_capacity: int = 8192
    overload_policy: str = "shed"
    client_latency_window: int = 8192

    def __post_init__(self) -> None:
        if isinstance(self.coalesce_window, str):
            if self.coalesce_window != "auto":
                raise ValueError(
                    f"coalesce_window must be a non-negative number or "
                    f"'auto', got {self.coalesce_window!r}"
                )
        elif self.coalesce_window < 0:
            raise ValueError("coalesce_window must be >= 0")
        if not 0 < self.window_min <= self.window_max:
            raise ValueError(
                f"need 0 < window_min <= window_max, got "
                f"{self.window_min} / {self.window_max}"
            )
        if self.auto_target_batch < 1:
            raise ValueError("auto_target_batch must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.overload_policy not in ("shed", "wait"):
            raise ValueError(
                f"overload_policy must be 'shed' or 'wait', "
                f"got {self.overload_policy!r}"
            )

    @property
    def auto_window(self) -> bool:
        return self.coalesce_window == "auto"


class _ClientStats:
    """Per-client counters and latency percentiles."""

    __slots__ = ("requests", "answered", "shed", "errors", "latency")

    def __init__(self, window: int):
        self.requests = 0
        self.answered = 0
        self.shed = 0
        self.errors = 0
        self.latency = LatencyRecorder(window)

    def snapshot(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "answered": self.answered,
            "shed": self.shed,
            "errors": self.errors,
            "latency": self.latency.snapshot(),
        }


class _SingleEngineRouter:
    """Adapter presenting one already-loaded engine as a router."""

    def __init__(self, engine: QueryEngine, name: str = "default"):
        artifact = engine.artifact
        self._engine = engine
        self._entry = ArtifactEntry(
            name=name,
            path=Path("<memory>"),
            strategy=engine.strategy,
            n=engine.n,
            epsilon=artifact.epsilon,
            stretch=artifact.stretch,
            payload_bytes=0,
            resident_floats=float(engine.n) * engine.n,
            query_cost=1.0,
        )
        self._route_counts = 0
        self._rejected = 0
        # One artifact means one possible decision; build it once so the
        # server's hot path does not construct a dataclass per request.
        self._decision = RouteDecision(name=name, entry=self._entry, loaded=True)

    def route(self, multiplicative: float = math.inf,
              additive: float = math.inf) -> RouteDecision:
        stretch = self._entry.stretch
        if not budget_admits(stretch, multiplicative, additive):
            self._rejected += 1
            raise RoutingError(
                f"engine guarantee {stretch.multiplicative:g}x+"
                f"{stretch.additive:g} exceeds stretch budget "
                f"{multiplicative:g}x+{additive:g}"
            )
        self._route_counts += 1
        return self._decision

    def engine(self, name: str) -> QueryEngine:
        return self._engine

    def entry(self, name: str) -> ArtifactEntry:
        if name != self._entry.name:
            raise RoutingError(
                f"unknown artifact {name!r}; this server holds only "
                f"{self._entry.name!r}")
        return self._entry

    def loaded_engines(self) -> Dict[str, QueryEngine]:
        return {self._entry.name: self._engine}

    def stats(self) -> Dict[str, object]:
        return {"routes": {self._entry.name: self._route_counts},
                "miss_hook_routes": 0, "rejected": self._rejected,
                "registry": None}


RouterLike = Union[StretchRouter, ArtifactRegistry, QueryEngine]


class DistanceServer:
    """Serve distance queries over one or many oracle artifacts.

    ``target`` may be a :class:`StretchRouter`, an
    :class:`ArtifactRegistry` (wrapped in a default router), or a bare
    :class:`QueryEngine` (single-artifact serving).
    """

    def __init__(self, target: RouterLike, config: Optional[ServerConfig] = None):
        if isinstance(target, QueryEngine):
            self._router = _SingleEngineRouter(target)
        elif isinstance(target, ArtifactRegistry):
            self._router = StretchRouter(target)
        else:
            self._router = target
        self.config = config or ServerConfig()

        self._pending: Dict[str, Dict[Pair, asyncio.Future]] = {}
        self._wake = asyncio.Event()
        self._flusher: Optional[asyncio.Task] = None
        self._closed = False
        self._draining = False

        # Adaptive coalescing: with coalesce_window="auto" the flusher
        # re-sizes the window each flush from an EWMA of the observed
        # arrival rate; a numeric window stays fixed (and 0 disables
        # coalescing entirely).
        self._auto_window = self.config.auto_window
        self._coalesce_disabled = (not self._auto_window
                                   and self.config.coalesce_window <= 0)
        self._window = (self.config.window_min if self._auto_window
                        else float(self.config.coalesce_window or 0.0))
        self._arrival_rate = 0.0  # EWMA keys/sec seen by the flusher

        self._in_flight = 0
        self._space_waiters: Deque[asyncio.Future] = deque()

        self._clients: Dict[str, _ClientStats] = {}
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
        """Mirror server totals onto the obs registry (weakref callbacks).

        Every series reads the plain-int counters the hot coroutines
        already maintain, so the dist()/gather() paths pay nothing for
        being observable.
        """
        from repro.obs.metrics import get_registry
        registry = get_registry()
        for metric, help_text, read in (
            ("repro_serve_requests_total",
             "Requests entering DistanceServer (pairs count individually)",
             lambda s: s._requests_total),
            ("repro_serve_served_total",
             "Requests answered successfully", lambda s: s._served_total),
            ("repro_serve_shed_total",
             "Requests shed at the backpressure gate",
             lambda s: s._shed_total),
            ("repro_serve_errors_total",
             "Requests failed with an error", lambda s: s._errors_total),
            ("repro_serve_engine_batches_total",
             "Vectorised engine gathers issued", lambda s: s._engine_batches),
            ("repro_serve_coalesced_keys_total",
             "Distinct keys resolved through engine gathers",
             lambda s: s._coalesced_keys),
            ("repro_serve_quarantines_total",
             "Gathers that tripped the shard-integrity quarantine",
             lambda s: s._quarantines),
            ("repro_serve_deadline_rejections_total",
             "Requests abandoned because their deadline expired",
             lambda s: s._deadline_rejections),
        ):
            registry.counter(metric, help_text).set_function(read, self)
        for metric, help_text, read in (
            ("repro_serve_in_flight",
             "Requests holding a queue slot right now",
             lambda s: s._in_flight),
            ("repro_serve_pending_keys",
             "Keys parked in coalescing buckets",
             lambda s: sum(len(b) for b in s._pending.values())),
            ("repro_serve_coalesce_window_seconds",
             "Coalescing window currently in effect", lambda s: s._window),
            ("repro_serve_ewma_arrival_rate",
             "EWMA keys/sec observed by the flusher",
             lambda s: s._arrival_rate),
        ):
            registry.gauge(metric, help_text).set_function(read, self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "DistanceServer":
        """Start the flusher task (idempotent; ``dist`` also auto-starts)."""
        self._ensure_flusher()
        return self

    async def stop(self) -> None:
        """Graceful shutdown: reject new requests, drain, join the flusher."""
        if self._closed:
            return
        self._closed = True
        self._draining = True
        # Resolve everything already parked, then let the parked callers
        # run before the flusher goes away.  ``_outstanding`` counts every
        # dist() call that has entered but not yet settled, including ones
        # parked behind the backpressure gate.
        while self._outstanding():
            self._flush_pending()
            await asyncio.sleep(0)
        if self._flusher is not None:
            self._wake.set()
            self._flusher.cancel()
            try:
                await self._flusher
            except asyncio.CancelledError:
                pass
            self._flusher = None

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
                   additive: float = math.inf, client: str = "default") -> float:
        """Estimated distance, served from the cheapest admissible artifact.

        Raises :class:`RoutingError` when no artifact meets the budget,
        :class:`ServerOverloaded` when shed, :class:`ServerClosed` after
        shutdown, and ``ValueError`` for out-of-range nodes.
        """
        if self._closed:
            raise ServerClosed("server is shut down")
        started = time.perf_counter_ns()
        stats = self._clients.get(client)
        if stats is None:
            stats = self._client(client)
        stats.requests += 1
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
                    await self._admit_slow(stats)
                self._in_flight += 1
                try:
                    if self._coalesce_disabled:
                        # Coalescing disabled: one single-pair engine batch
                        # per request — the naive loop the benchmark
                        # measures against.
                        value = float(
                            self._router.engine(decision.name).batch([key])[0])
                        self._engine_batches += 1
                        self._coalesced_keys += 1
                    else:
                        if self._flusher is None:
                            self._ensure_flusher()
                        bucket = self._pending.setdefault(decision.name, {})
                        future = bucket.get(key)
                        if future is None:
                            future = asyncio.get_running_loop().create_future()
                            bucket[key] = future
                            self._wake.set()
                        value = await future
                finally:
                    self._release()
        except ServerOverloaded:
            raise  # shed accounting happened at the admission gate
        except BaseException:
            stats.errors += 1
            self._errors_total += 1
            raise
        stats.answered += 1
        self._served_total += 1
        stats.latency.record(time.perf_counter_ns() - started)
        return value

    async def batch(self, pairs: Sequence[Pair], *,
                    multiplicative: float = math.inf,
                    additive: float = math.inf,
                    client: str = "default") -> List[float]:
        """Concurrent :meth:`dist` over ``pairs`` (shares their coalescing)."""
        return list(await asyncio.gather(*(
            self.dist(u, v, multiplicative=multiplicative, additive=additive,
                      client=client)
            for u, v in pairs
        )))

    async def gather(self, u, v, *, multiplicative: float = math.inf,
                     additive: float = math.inf, client: str = "default",
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
        and client percentiles; the call occupies one backpressure slot.

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
        stats = self._client(client)
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.shape != v.shape or u.ndim != 1:
            raise ValueError(
                f"u/v must be equal-length 1-D node arrays, got shapes "
                f"{u.shape} and {v.shape}")
        count = len(u)
        stats.requests += count
        self._requests_total += count
        try:
            self._check_deadline(deadline, "at admission")
            if artifact is None:
                decision = self._router.route(multiplicative=multiplicative,
                                              additive=additive)
                name, n = decision.name, decision.entry.n
            else:
                entry = self._router.entry(artifact)
                if not budget_admits(entry.stretch, multiplicative, additive):
                    raise RoutingError(
                        f"pinned artifact {artifact!r} guarantees "
                        f"{entry.stretch.multiplicative:g}x+"
                        f"{entry.stretch.additive:g}, exceeding the stretch "
                        f"budget {multiplicative:g}x+{additive:g}")
                name, n = entry.name, entry.n
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
                    await self._admit_slow(stats, weight=count)
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
                    engine = self._router.engine(name)
                    values = np.empty(count, dtype=np.float64)
                    for start in range(0, count, config.max_batch):
                        if start:
                            self._check_deadline(deadline, "between chunks")
                        chunk = slice(start, min(start + config.max_batch,
                                                 count))
                        values[chunk] = self._screened_batch(
                            engine, lo[chunk], hi[chunk])
                        self._engine_batches += 1
                        self._coalesced_keys += chunk.stop - chunk.start
                    if trace is not None:
                        trace.add("worker.gather", span_wall,
                                  (time.perf_counter_ns() - span_tick)
                                  / 1000.0)
                finally:
                    self._release()
        except ServerOverloaded:
            raise  # shed accounting happened at the admission gate
        except BaseException:
            stats.errors += count
            self._errors_total += count
            raise
        stats.answered += count
        self._served_total += count
        if count:
            stats.latency.record_many(
                (time.perf_counter_ns() - started) // count, count)
        return values

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Server, router, per-client, and per-engine statistics."""
        return {
            "requests_total": self._requests_total,
            "served_total": self._served_total,
            "shed_total": self._shed_total,
            "errors_total": self._errors_total,
            "engine_batches": self._engine_batches,
            "coalesced_keys": self._coalesced_keys,
            "quarantines": self._quarantines,
            "deadline_rejections": self._deadline_rejections,
            "queue": {
                "capacity": self.config.queue_capacity,
                "in_flight": self._in_flight,
                "pending_keys": sum(len(b) for b in self._pending.values()),
                "overload_policy": self.config.overload_policy,
            },
            "coalescing": {
                "mode": ("auto" if self._auto_window
                         else ("off" if self._coalesce_disabled else "fixed")),
                # Both the knob and the truth: "configured" is what the
                # server was asked for, "window_s" the window actually in
                # effect right now (they differ under mode="auto", where
                # the EWMA re-sizes the window every flush).
                "configured": self.config.coalesce_window,
                "window_s": self._window,
                "ewma_arrival_rate": self._arrival_rate,
            },
            "router": self._router.stats(),
            "clients": {name: client.snapshot()
                        for name, client in sorted(self._clients.items())},
            "engines": {name: engine.stats() for name, engine
                        in sorted(self._router.loaded_engines().items())},
        }

    def client_stats(self, client: str = "default") -> Dict[str, object]:
        return self._client(client).snapshot()

    def engines(self) -> Dict[str, QueryEngine]:
        """The engines currently loaded behind this server, by name.

        Public accessor for aggregators (the net worker's ``/statsz``
        residency report) that need per-engine ``memory_stats()`` without
        reaching into the router.
        """
        return dict(self._router.loaded_engines())

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _outstanding(self) -> int:
        """Requests that entered :meth:`dist` and have not yet settled."""
        return (self._requests_total - self._served_total
                - self._shed_total - self._errors_total)

    def _client(self, name: str) -> _ClientStats:
        stats = self._clients.get(name)
        if stats is None:
            stats = self._clients[name] = _ClientStats(
                self.config.client_latency_window)
            # Attach (not copy) the client's recorder so /metricsz reads
            # the same live window stats() reports.
            from repro.obs.metrics import get_registry
            get_registry().recorder(
                "repro_serve_client_latency_us",
                "Per-client request latency", labels={"client": name},
            ).attach(stats.latency)
        return stats

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
        """
        values = engine.batch_core(lo, hi)
        bad = ~(values >= 0)  # catches NaN and negatives in one pass
        if not bad.any():
            return values
        self._quarantines += 1
        rows = np.unique(np.concatenate([lo[bad], hi[bad]]))
        shards = engine.quarantine_rows(rows)
        values = engine.batch_core(lo, hi)
        bad = ~(values >= 0)
        if bad.any():
            raise ShardIntegrityError(
                f"gather returned implausible distances for "
                f"{int(bad.sum())} pair(s) even after quarantining "
                f"shard(s) {shards} and re-gathering")
        return values

    async def _admit_slow(self, stats: _ClientStats, weight: int = 1) -> None:
        """The backpressure gate, entered only when the queue is full.

        Returns with a slot reserved for the caller (who increments
        ``_in_flight`` immediately, with no await in between).
        ``weight`` is how many requests a shed counts for — 1 for a point
        query, the pair count for a :meth:`gather` batch, keeping the
        request/served/shed/error totals consistent either way.
        """
        while self._in_flight >= self.config.queue_capacity:
            if self.config.overload_policy == "shed":
                stats.shed += weight
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

    def _ensure_flusher(self) -> None:
        if self._flusher is None or self._flusher.done():
            self._flusher = asyncio.get_running_loop().create_task(
                self._flush_loop(), name="repro-serve-flusher")

    async def _flush_loop(self) -> None:
        try:
            while True:
                await self._wake.wait()
                self._wake.clear()
                elapsed = 0.0
                if self._pending and not self._draining:
                    # The micro-batching window: let concurrent requests
                    # pile into the pending map before one gather.
                    started = time.perf_counter()
                    await asyncio.sleep(self._window)
                    elapsed = time.perf_counter() - started
                drained = self._flush_pending()
                if self._auto_window and elapsed > 0 and drained:
                    self._retune_window(drained, elapsed)
        except asyncio.CancelledError:
            self._flush_pending()
            raise

    #: EWMA smoothing for the observed arrival rate (higher = twitchier).
    _EWMA_ALPHA = 0.2

    def _retune_window(self, drained: int, elapsed: float) -> None:
        """Size the next window to collect ~auto_target_batch keys.

        The keys drained per window over the window's wall time is a
        sample of the arrival rate while coalescing is active; the EWMA
        smooths flush-to-flush noise so one quiet window does not
        collapse the batch size.

        When even ``window_max`` could not fill a batch at the observed
        rate, waiting longer buys almost no batching and only taxes
        latency, so light traffic drops to ``window_min`` instead of
        pegging at the maximum — light traffic gets low latency, heavy
        traffic gets big gathers.
        """
        rate = drained / elapsed
        if self._arrival_rate <= 0:
            self._arrival_rate = rate
        else:
            self._arrival_rate += self._EWMA_ALPHA * (rate - self._arrival_rate)
        ideal = self.config.auto_target_batch / self._arrival_rate
        if ideal > self.config.window_max:
            self._window = self.config.window_min
        else:
            self._window = max(ideal, self.config.window_min)

    def _flush_pending(self) -> int:
        """Drain every pending key with one engine gather per chunk."""
        drained = 0
        while self._pending:
            pending, self._pending = self._pending, {}
            for name, bucket in pending.items():
                # Insertion order aligns keys with futures.
                keys = list(bucket)
                futures = list(bucket.values())
                drained += len(keys)
                try:
                    engine = self._router.engine(name)
                except Exception as exc:  # load failure fails the batch
                    self._fail_futures(futures, exc)
                    continue
                for start in range(0, len(keys), self.config.max_batch):
                    chunk = keys[start:start + self.config.max_batch]
                    chunk_futures = futures[start:start + self.config.max_batch]
                    try:
                        values = engine.batch(chunk)
                    except Exception as exc:
                        self._fail_futures(chunk_futures, exc)
                        continue
                    self._engine_batches += 1
                    self._coalesced_keys += len(chunk)
                    for future, value in zip(chunk_futures, values.tolist()):
                        if not future.done():
                            future.set_result(value)
        return drained

    @staticmethod
    def _fail_futures(futures: Sequence[asyncio.Future],
                      exc: Exception) -> None:
        for future in futures:
            if not future.done():
                future.set_exception(exc)


async def serve_artifacts(paths: Sequence[Union[str, Path]],
                          config: Optional[ServerConfig] = None,
                          capacity: int = 4) -> DistanceServer:
    """Convenience: registry over ``paths`` behind a started server."""
    from repro.serve.registry import build_registry

    registry = build_registry(paths, capacity=capacity)
    return await DistanceServer(registry, config=config).start()


__all__ = [
    "DeadlineExceeded",
    "DistanceServer",
    "ServerClosed",
    "ServerConfig",
    "ServerOverloaded",
    "serve_artifacts",
]
