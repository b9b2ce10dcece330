"""Workloads ``wire-batch`` and ``wire-point``: one fleet, used two ways.

Both serve the same synthetic dense artifact (n=1024, 8 row shards) from
one worker process behind an in-process ``Frontend``: two processes, which
the harness holds on one CPU (``harness.pin_to_one_cpu`` says why).  Both
are closed loops over two connections: callers of a distance service wait
for their reply.

* ``wire-batch`` — each connection sends 256-pair frames of **uniform**
  pairs back to back.  The working set is several times the engine's
  cache, so framing, partition/fan-out and the gather/miss path carry the
  load and client-side coalescing is idle.  An op is one frame.
* ``wire-point`` — each connection has 64 concurrent ``NetClient.dist()``
  callers (128 in flight) drawing **Zipf(1.2)** pairs that fit the cache,
  so the client's coalescing window, duplicate-key sharing and the LRU
  hit path dominate.  An op is one pair.

Every answer is compared with the artifact's own distance table.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import statistics
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.net import Cluster, Frontend, NetClient, free_port
from repro.net.bench import NET_ERROR_TYPES, synthetic_sharded_artifact
from repro.net.protocol import (
    MSG_REQUEST,
    MSG_RESPONSE,
    encode_frame,
    pack_request,
    pack_response,
    unpack_request,
    unpack_response,
)
from repro.obs import fetch_snapshot, get_tracer, set_sample_rate
from repro.obs.tracing import TraceContext
from repro.oracle import load_artifact
from repro.serve import DistanceServer, StretchRouter, build_registry

from bench import inputs
from bench.harness import (
    ROUNDS,
    Metric,
    RoundLog,
    Slice,
    SpeedProbe,
    Spans,
    call_seconds,
)

CONNECTIONS = 2
CALLERS_PER_CONNECTION = 64
WARMUP_FRAMES = 64
#: A round's timed section is cut into slices this long, each bracketed
#: by the speed probe (see harness.py).  The probe blocks the event loop,
#: so a slice drains before it; the callers of a connection move in step
#: anyway (one frame answers all 64), and wall-clock ``pairs_per_s`` and
#: ``p50_ms`` read the same with slices of 0.25 s and of a whole round.
SLICE_S = 0.25
#: Ops one wire-point slice can record: ~6x what a slice completes today.
POINT_SLICE_CAPACITY = 1 << 16
#: Frames per nested path when a traced run splits request latency into
#: layers; each path is one closed-loop connection.
PATH_FRAMES = 800
PATH_CHUNK = 100
PATH_STAGGER = 3
#: wire-point keeps one bench-side request span in this many (a span row
#: per pair would be ~600k rows a run).
POINT_SPAN_STRIDE = 64
#: Sequential traced ``dist()`` calls behind ``net.layer_sum_over_e2e``;
#: the tracer keeps the last 1,024 traces.
ACCOUNTED_CALLS = 1000
OBS_SPANS = ("client.coalesce", "client.request", "frontend.route",
             "frontend.fanout", "worker.queue", "worker.gather")


def layer_self_us(trace: TraceContext) -> Dict[str, float]:
    """Self time of each layer span of one traced request, in microseconds.

    ``client.request`` encloses the frontend's two spans and
    ``frontend.fanout`` the worker's two; a span's self time is its
    duration minus the spans it encloses.
    """
    total = dict.fromkeys(OBS_SPANS, 0.0)
    for span in trace.spans:
        if span.name in total:
            total[span.name] += span.duration_us
    own = dict(total)
    own["client.request"] -= total["frontend.route"] + total["frontend.fanout"]
    own["frontend.fanout"] -= total["worker.queue"] + total["worker.gather"]
    return {name: max(0.0, value) for name, value in own.items()}


class Wire:
    #: Every slice is a quarter second of the same traffic.
    slices_alike = True

    def __init__(self, name: str, seed: int, spans: Spans, workdir: Path):
        self.name = name
        self.point = name == "wire-point"
        self.seed = seed
        self.spans = spans
        self.workdir = workdir
        self.manifest: Path = None
        self.table: np.ndarray = None
        self.pools: List[np.ndarray] = []
        self.warm: np.ndarray = None
        self.cluster_start_s: List[float] = []
        self.frontend_start_s: List[float] = []
        self.frames_sent = 0
        self.pairs_sent = 0
        self.frontend_counters = {"retries": 0, "hedges": 0, "failovers": 0}
        self.chaos_injections = 0.0
        self.obs_ms: Dict[str, List[float]] = {name: [] for name in OBS_SPANS}
        #: pairs/s of rounds with obs sampling on / off (traced wire-point).
        self.rate_traced: List[float] = []
        self.rate_untraced: List[float] = []
        #: The program's obs spans start on the wall clock; bench spans
        #: are on ``perf_counter``.
        self.wall_to_perf = time.perf_counter() - time.time()

    def prepare(self) -> None:
        self.manifest = synthetic_sharded_artifact(
            self.workdir, n=inputs.WIRE_N, num_shards=inputs.WIRE_SHARDS,
            seed=self.seed)
        self.table = load_artifact(self.manifest).materialize("dist")
        make_pool = inputs.point_pool if self.point else inputs.batch_pool
        self.pools = [make_pool(self.seed, index) for index in range(ROUNDS)]
        self.warm = inputs.zipf_pair_array(
            inputs.WIRE_N, WARMUP_FRAMES * inputs.FRAME_PAIRS, 0.0,
            inputs.round_seed(self.seed, 0, 5),
        ).reshape(WARMUP_FRAMES, inputs.FRAME_PAIRS, 2)

    # ------------------------------------------------------------------
    def run_round(self, index: int, budget_s: float, log: RoundLog) -> None:
        probe = SpeedProbe()
        started = time.perf_counter()
        with self.spans.span("net.cluster.start") as timer:
            cluster = Cluster([str(self.manifest)], num_workers=1).start()
        self.cluster_start_s.append(timer.seconds)
        try:
            asyncio.run(self._serve(index, budget_s, log, cluster, started, probe))
        finally:
            cluster.stop()

    async def _serve(self, index: int, budget_s: float, log: RoundLog,
                     cluster: Cluster, started: float, probe: SpeedProbe) -> None:
        pool = self.pools[index]
        with self.spans.span("net.frontend.start") as timer:
            frontend = Frontend([str(self.manifest)], cluster.addresses,
                                port=free_port())
            await frontend.start()
        self.frontend_start_s.append(timer.seconds)
        clients = [NetClient(*frontend.address, client=f"bench-{slot}")
                   for slot in range(CONNECTIONS)]
        # Obs sampling alternates by round in a traced wire-point run, so
        # one run holds both sides of ``obs.trace_overhead``.
        sampled = self.spans.enabled and self.point and index % 2 == 0
        run_slice = self._point_slice if self.point else self._batch_slice
        try:
            for slot, frame in enumerate(self.warm):
                await clients[slot % CONNECTIONS].batch(frame)
            log.setup = Slice(time.perf_counter() - started, probe.bracket())

            set_sample_rate(1.0 if sampled else 0.0)
            requests_before = sum(c.link.requests for c in clients)
            ticket = itertools.count()
            parts = []
            with self.spans.span("wire.timed", op_id=index):
                timed_span = self.spans.current
                gc.collect()  # not the timed section's garbage to pay for
                spent = 0.0
                # Each slice drains before the probe runs: the probe
                # blocks the event loop, so nothing may be in flight.
                while spent < budget_s:
                    begin = time.perf_counter()
                    part = await run_slice(clients, pool, ticket,
                                           begin + SLICE_S)
                    part["seconds"] = time.perf_counter() - begin
                    part["slowdown"] = probe.bracket()
                    spent += part["seconds"]
                    parts.append(part)
            set_sample_rate(0.0)
            self.frames_sent += sum(c.link.requests for c in clients) \
                - requests_before
            for part in parts:
                self._verify(part, pool, log)
            if self.spans.enabled:
                self._record_spans(parts, sampled, log, timed_span)
                for key in self.frontend_counters:
                    self.frontend_counters[key] += int(frontend.stats()[key])
                snapshot = await asyncio.to_thread(
                    fetch_snapshot, *frontend.address)
                family = snapshot["counters"].get(
                    "repro_chaos_injections_total", {"values": {}})
                self.chaos_injections += sum(family["values"].values())
        finally:
            set_sample_rate(0.0)
            for client in clients:
                await client.aclose()
            await frontend.stop()

    async def _batch_slice(self, clients, pool: np.ndarray, ticket,
                           deadline: float) -> Dict[str, object]:
        ops: List[Tuple[int, float, float, object]] = []

        async def connection(client: NetClient) -> None:
            while True:
                issued = time.perf_counter()
                if issued >= deadline:
                    return
                op = next(ticket)
                try:
                    values = await client.batch(pool[op % len(pool)])
                except NET_ERROR_TYPES:
                    values = None
                ops.append((op, issued, time.perf_counter(), values))

        await asyncio.gather(*(connection(client) for client in clients))
        answers = np.full((len(ops), inputs.FRAME_PAIRS), np.nan)
        for row, (_op, _issued, _end, values) in enumerate(ops):
            if values is not None:
                answers[row] = values
        issued = np.array([row[1] for row in ops])
        return {"index": np.array([row[0] for row in ops]) % len(pool),
                "issued": issued,
                "latency": np.array([row[2] for row in ops]) - issued,
                "answers": answers}

    async def _point_slice(self, clients, pool: np.ndarray, ticket,
                           deadline: float) -> Dict[str, object]:
        index = np.zeros(POINT_SLICE_CAPACITY, dtype=np.int64)
        issued = np.zeros(POINT_SLICE_CAPACITY)
        latency = np.zeros(POINT_SLICE_CAPACITY)
        answers = np.full(POINT_SLICE_CAPACITY, np.nan)
        rows = itertools.count()
        size = len(pool)

        async def caller(client: NetClient) -> None:
            while True:
                now = time.perf_counter()
                if now >= deadline:
                    return
                row = next(rows)
                if row >= POINT_SLICE_CAPACITY:
                    return
                slot = next(ticket) % size
                try:
                    value = await client.dist(int(pool[slot, 0]),
                                              int(pool[slot, 1]))
                except NET_ERROR_TYPES:
                    value = np.nan
                index[row] = slot
                issued[row] = now
                latency[row] = time.perf_counter() - now
                answers[row] = value

        await asyncio.gather(*(caller(client) for client in clients
                               for _ in range(CALLERS_PER_CONNECTION)))
        count = min(next(rows), POINT_SLICE_CAPACITY)
        return {"index": index[:count].copy(), "issued": issued[:count].copy(),
                "latency": latency[:count].copy(),
                "answers": answers[:count].copy()}

    def _verify(self, part: Dict[str, object], pool: np.ndarray,
                log: RoundLog) -> None:
        """Compare every answer of a slice with the artifact's table; only
        ops that match count as delivered."""
        asked = pool[part["index"]]
        expected = self.table[asked[..., 0], asked[..., 1]]
        right = part["answers"] == expected
        ok = right if self.point else right.all(axis=1)
        log.attempted += len(ok)
        log.failed += int(len(ok) - np.count_nonzero(ok))
        pairs = int(np.count_nonzero(ok)) * (1 if self.point
                                             else inputs.FRAME_PAIRS)
        self.pairs_sent += pairs
        log.slices.append(Slice(part["seconds"], part["slowdown"], pairs))
        log.latencies_s.append(part["latency"][ok] / part["slowdown"])
        positive = right & (expected > 0)
        if positive.any():
            log.stretch_max = max(log.stretch_max, float(
                (part["answers"][positive] / expected[positive]).max()))

    def _record_spans(self, parts, sampled: bool, log: RoundLog,
                      parent: int) -> None:
        """Request spans under the round's timed span, plus the program's
        own obs spans (one trace id per sampled request)."""
        stride = POINT_SPAN_STRIDE if self.point else 1
        for part in parts:
            for op in range(0, len(part["latency"]), stride):
                begin = float(part["issued"][op])
                self.spans.add(f"{self.name}.request", begin,
                               begin + float(part["latency"][op]), parent,
                               int(part["index"][op]))
        if not self.point:
            return
        rate = sum(piece.pairs for piece in log.slices) \
            / sum(piece.seconds / piece.slowdown for piece in log.slices)
        (self.rate_traced if sampled else self.rate_untraced).append(rate)
        tracer = get_tracer()
        for context in tracer.traces():
            for span in context.spans:
                if span.name in self.obs_ms:
                    self.obs_ms[span.name].append(span.duration_us / 1e3)
                begin = span.start + self.wall_to_perf
                self.spans.add(f"obs.{span.name}", begin,
                               begin + span.duration_us / 1e6,
                               parent, context.trace_id)
        tracer.clear()

    # ------------------------------------------------------------------
    def layer_metrics(self) -> Dict[str, Metric]:
        flavour = "zipf" if self.point else "uniform"
        frames = inputs.zipf_pair_array(
            inputs.WIRE_N, PATH_FRAMES * inputs.FRAME_PAIRS,
            inputs.POINT_SKEW if self.point else 0.0,
            inputs.round_seed(self.seed, 0, 4),
        ).reshape(PATH_FRAMES, inputs.FRAME_PAIRS, 2)
        out: Dict[str, Metric] = {}
        out["net.cluster.start.s"] = (
            statistics.median(self.cluster_start_s), "s")
        out["net.frontend.start.s"] = (
            statistics.median(self.frontend_start_s), "s")
        out["net.client.frame_pairs_mean"] = (
            self.pairs_sent / self.frames_sent, "pairs")
        for key, value in self.frontend_counters.items():
            out[f"net.frontend.{key}"] = (float(value), "count")
        out["chaos.injections"] = (self.chaos_injections, "count")

        registry_s, registry = call_seconds(
            lambda: build_registry([str(self.manifest)]))
        out["serve.registry.build_registry.s"] = (registry_s, "s")
        router = StretchRouter(registry)
        out["serve.router.route.us"] = (call_seconds(
            lambda: [router.route() for _ in range(1000)])[0] * 1e3, "us")

        engine = registry.engine(registry.entries()[0].name)
        listed = [frame.tolist() for frame in frames]
        started = time.perf_counter()
        for frame in listed:
            engine.batch(frame)
        engine_s = time.perf_counter() - started
        stats = engine.stats()
        out[f"oracle.engine.batch.{flavour}.pairs_per_s"] = (
            frames.size / 2 / engine_s, "pairs/s")
        out[f"oracle.engine.cache_hit_ratio.{flavour}"] = (
            stats["cache_hits"] / (stats["cache_hits"] + stats["cache_misses"]),
            "ratio")

        frame = frames[0]
        request = pack_request(frame)
        response = pack_response(np.zeros(len(frame)))
        for label, call in (
                ("pack_request", lambda: pack_request(frame)),
                ("unpack_request", lambda: unpack_request(request)),
                ("pack_response", lambda: pack_response(np.zeros(len(frame)))),
                ("unpack_response", lambda: unpack_response(response))):
            out[f"net.protocol.{label}.us"] = (call_seconds(
                lambda: [call() for _ in range(100)], 0.05)[0] * 1e4, "us")
        out["net.protocol.bytes_per_pair"] = (
            (len(encode_frame(MSG_REQUEST, 1, request))
             + len(encode_frame(MSG_RESPONSE, 1, response))) / len(frame),
            "bytes")

        out.update(asyncio.run(self._nested_paths(frames)))
        for name, samples in self.obs_ms.items():
            out[f"obs.span.{name}.ms"] = (
                statistics.fmean(samples) if samples else 0.0, "ms")
        out["obs.trace_overhead"] = (
            statistics.median(self.rate_untraced)
            / statistics.median(self.rate_traced)
            if self.rate_traced else 0.0, "ratio")
        return out

    async def _nested_paths(self, frames: np.ndarray) -> Dict[str, Metric]:
        """Mean latency of one 256-pair frame through four nested paths.

        engine -> in-process server -> ``NetClient`` at the worker ->
        ``NetClient`` at the frontend, one closed-loop connection each.  A
        layer's self time is its path's mean minus the mean of the path
        inside it.
        """
        lo = np.minimum(frames[..., 0], frames[..., 1]).astype(np.int64)
        hi = np.maximum(frames[..., 0], frames[..., 1]).astype(np.int64)
        us = frames[..., 0].astype(np.int64)
        vs = frames[..., 1].astype(np.int64)
        engine_registry = build_registry([str(self.manifest)])
        engine = engine_registry.engine(engine_registry.entries()[0].name)
        server_registry = build_registry([str(self.manifest)])

        cluster = await asyncio.to_thread(
            Cluster([str(self.manifest)], num_workers=1).start)
        try:
            frontend = Frontend([str(self.manifest)], cluster.addresses,
                                port=free_port())
            await frontend.start()
            try:
                async with DistanceServer(StretchRouter(server_registry)) as server, \
                        NetClient(*cluster.addresses[0], client="bench-worker") as direct, \
                        NetClient(*frontend.address, client="bench-front") as fronted:
                    for frame in frames[:WARMUP_FRAMES]:
                        await direct.batch(frame)
                        await fronted.batch(frame)

                    async def engine_path(row: int) -> None:
                        engine.batch_core(lo[row], hi[row])

                    paths = {
                        "oracle.engine": engine_path,
                        "serve.server": lambda row: server.gather(us[row], vs[row]),
                        "net.worker": lambda row: direct.batch(frames[row]),
                        "net.frontend": lambda row: fronted.batch(frames[row]),
                    }
                    # The paths take turns, a chunk of frames each, so a
                    # change of machine speed hits them all alike.  The two
                    # wire paths share the worker's cache; each starts
                    # PATH_STAGGER chunks after the last, which puts more
                    # keys than the cache holds between two uses of a frame.
                    totals = dict.fromkeys(paths, 0.0)
                    chunks = len(frames) // PATH_CHUNK
                    for step in range(chunks):
                        for slot, (name, send) in enumerate(paths.items()):
                            chunk = (step + slot * PATH_STAGGER) % chunks
                            started = time.perf_counter()
                            for row in range(chunk * PATH_CHUNK,
                                             (chunk + 1) * PATH_CHUNK):
                                await send(row)
                            totals[name] += time.perf_counter() - started
                    stats = server.stats()
                    accounted = await self._accounted_share(fronted, frames)
            finally:
                await frontend.stop()
        finally:
            await asyncio.to_thread(cluster.stop)
        means = {name: total / (chunks * PATH_CHUNK) * 1e3
                 for name, total in totals.items()}
        server_batch_pairs = stats["coalesced_keys"] / max(1, stats["engine_batches"])

        out: Dict[str, Metric] = {}
        inner = 0.0
        for layer in ("oracle.engine", "serve.server", "net.worker",
                      "net.frontend"):
            out[f"{layer}.self_ms"] = (means[layer] - inner, "ms")
            inner = means[layer]
        pairs = inputs.FRAME_PAIRS * 1e3
        out["serve.server.pairs_per_s"] = (pairs / means["serve.server"], "pairs/s")
        out["serve.server.batch_pairs_mean"] = (server_batch_pairs, "pairs")
        out["net.worker.direct.pairs_per_s"] = (pairs / means["net.worker"], "pairs/s")
        out["net.frontend.pairs_per_s"] = (pairs / means["net.frontend"], "pairs/s")
        out["net.layer_sum_over_e2e"] = (accounted, "ratio")
        return out

    async def _accounted_share(self, client: NetClient,
                               frames: np.ndarray) -> float:
        """Share of caller-visible latency the program's own spans account for.

        ``ACCOUNTED_CALLS`` sequential ``dist()`` calls through the frontend
        with every request traced.  The denominator is the bench's clock
        around each call; the numerator is the self time of the six layer
        spans the tiers stamped on that call's trace, each tier on its own
        clock.  What no span covers (entering ``dist()``, waking the caller
        once the reply is in) keeps the ratio below 1.
        """
        tracer = get_tracer()
        tracer.clear()
        set_sample_rate(1.0)
        try:
            started = time.perf_counter()
            for u, v in frames.reshape(-1, 2)[:ACCOUNTED_CALLS].tolist():
                await client.dist(u, v)
            caller_s = time.perf_counter() - started
        finally:
            set_sample_rate(0.0)
        traces = [trace for trace in tracer.traces() if trace.tier == "client"]
        tracer.clear()
        assert len(traces) == ACCOUNTED_CALLS, len(traces)
        return sum(sum(layer_self_us(trace).values())
                   for trace in traces) / 1e6 / caller_s

    def metadata(self) -> Dict[str, object]:
        return {
            "n": inputs.WIRE_N,
            "shards": inputs.WIRE_SHARDS,
            "connections": CONNECTIONS,
            "callers": CONNECTIONS * CALLERS_PER_CONNECTION if self.point else CONNECTIONS,
            "loop": "closed",
            "pool_digests": [inputs.array_digest(pool) for pool in self.pools],
        }
