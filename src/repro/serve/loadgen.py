"""Closed- and open-loop load generation for :class:`DistanceServer`.

A serving claim is only as good as the load that tested it.  This module
drives a server with the two canonical load models:

* **closed loop** (:func:`run_closed_loop`) — ``concurrency`` workers
  each keep exactly one request in flight, issuing the next as soon as
  the previous completes.  Measures the server's sustainable throughput:
  offered load adapts to service rate, so nothing sheds unless capacity
  is tiny.
* **open loop** (:func:`run_open_loop`) — requests fire at a fixed target
  QPS regardless of completions, the arrival model of real user traffic.
  When the server falls behind, latency and shed counts reveal it (the
  coordinated-omission trap closed-loop tests fall into).

Query pairs come from :func:`zipf_pairs`: node popularity follows a
Zipf(``skew``) law over a seeded permutation, the standard skewed-access
model for caches — at ``skew=0`` it degrades to uniform sampling.
Latency percentiles reuse the oracle engine's
:class:`~repro.obs.metrics.LatencyRecorder`; reports serialise to JSON
via :meth:`LoadReport.as_dict` so benchmark harnesses and CI can diff
them.  :func:`count_mismatches` closes the loop on correctness by
replaying every answered pair through a direct :class:`QueryEngine`.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import random
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.metrics import LatencyRecorder
from repro.oracle.engine import QueryEngine
from repro.serve.router import RoutingError
from repro.serve.server import DistanceServer, ServerOverloaded

Pair = Tuple[int, int]

#: Exception classes a load loop counts as "error" (vs shed) by default.
#: Network callers extend this with transport failures, e.g.
#: ``DEFAULT_ERROR_TYPES + (NetError, ConnectionError, TimeoutError)``.
DEFAULT_ERROR_TYPES: Tuple[type, ...] = (RoutingError, ValueError)


def zipf_pairs(n: int, count: int, skew: float = 1.0,
               seed: int = 0) -> List[Pair]:
    """``count`` query pairs with Zipf(``skew``)-distributed node popularity.

    Node ranks are assigned by a seeded permutation (so node 0 is not
    always the hottest), and each endpoint is drawn independently with
    probability proportional to ``1 / rank^skew``.  ``skew=0`` is uniform;
    ``skew`` around 1 matches typical cache-friendly access patterns.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got n={n}")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if skew < 0:
        raise ValueError(f"skew must be non-negative, got {skew}")
    rng = random.Random(seed)
    nodes = list(range(n))
    rng.shuffle(nodes)
    weights = [1.0 / (rank + 1) ** skew for rank in range(n)]
    us = rng.choices(nodes, weights=weights, k=count)
    vs = rng.choices(nodes, weights=weights, k=count)
    return list(zip(us, vs))


@dataclasses.dataclass
class LoadReport:
    """Outcome of one load-generation run, JSON-serialisable."""

    mode: str
    requested: int
    completed: int
    shed: int
    errors: int
    duration_s: float
    achieved_qps: float
    offered_qps: Optional[float]
    latency: Dict[str, Optional[float]]
    mismatches: Optional[int] = None
    #: Requests that blew the client-side deadline (``timeout=`` on the
    #: load loops).  First-class — not folded into :attr:`errors` — so
    #: availability math can distinguish "slow" from "broken".
    timeouts: int = 0
    #: Error taxonomy: exception class name -> count.  Timeouts appear
    #: under ``"timeout"``.  The chaos benchmark asserts on this (e.g.
    #: shard corruption must surface as typed integrity errors, never as
    #: generic transport failures).
    error_taxonomy: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Residency snapshot (shard faults, resident vs mapped bytes) from
    #: :func:`residency_report`, attached by ``--report-residency``.
    residency: Optional[Dict[str, object]] = None
    #: Per-pair answers aligned with the input pairs (None = shed/error).
    answers: List[Optional[float]] = dataclasses.field(
        default_factory=list, repr=False)
    #: Per-request raw samples (``collect_samples=True``): dicts with
    #: ``t`` (epoch seconds at issue), ``client``, ``latency_us`` and
    #: ``status`` ("ok" / "shed" / "error").  Exported via
    #: :meth:`write_samples_jsonl`, re-ingested by :meth:`from_jsonl`.
    samples: List[Dict[str, object]] = dataclasses.field(
        default_factory=list, repr=False)

    @property
    def success_rate(self) -> float:
        return self.completed / self.requested if self.requested else 1.0

    @property
    def availability(self) -> float:
        """Fraction of requests answered (not shed, errored, or timed out)."""
        return self.success_rate

    def as_dict(self) -> Dict[str, object]:
        """Everything except the raw answers, for JSON reports."""
        return {
            "mode": self.mode,
            "requested": self.requested,
            "completed": self.completed,
            "shed": self.shed,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "success_rate": self.success_rate,
            "availability": self.availability,
            "error_taxonomy": dict(self.error_taxonomy),
            "duration_s": self.duration_s,
            "achieved_qps": self.achieved_qps,
            "offered_qps": self.offered_qps,
            "latency": self.latency,
            "mismatches": self.mismatches,
            "residency": self.residency,
        }

    def write_samples_jsonl(self, path: str) -> int:
        """Append this run's raw per-request samples to ``path`` as JSONL.

        One JSON object per line, schema as in :attr:`samples`.  Appending
        (not truncating) lets a campaign pour every rung and every worker
        into one file that :meth:`from_jsonl` can merge back into a
        report.  Returns the number of samples written.
        """
        with open(path, "a", encoding="utf-8") as sink:
            for sample in self.samples:
                sink.write(json.dumps(sample, sort_keys=True) + "\n")
        return len(self.samples)

    @classmethod
    def from_jsonl(cls, paths: Iterable[str] | str,
                   latency_window: int = 1 << 20) -> "LoadReport":
        """Rebuild a merged report from raw JSONL sample files.

        The inverse of :meth:`write_samples_jsonl`: counts come from the
        per-sample ``status`` fields, the duration spans the earliest
        issue to the latest completion across *all* files, and the
        latency percentiles are recomputed over the union — so reports
        from independent clients (or worker processes) merge into one
        campaign-level view without sharing memory.  Lines that fail to
        parse are counted as errors rather than aborting the merge.
        """
        if isinstance(paths, str):
            paths = [paths]
        recorder = LatencyRecorder(latency_window)
        counts = {"ok": 0, "shed": 0, "error": 0, "timeout": 0}
        first_issue = last_done = None
        samples: List[Dict[str, object]] = []
        for path in paths:
            with open(path, "r", encoding="utf-8") as source:
                for line in source:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        sample = json.loads(line)
                        status = str(sample["status"])
                        issued = float(sample["t"])
                        latency_us = float(sample.get("latency_us") or 0.0)
                    except (KeyError, TypeError, ValueError,
                            json.JSONDecodeError):
                        counts["error"] += 1
                        continue
                    counts[status if status in counts else "error"] += 1
                    done = issued + latency_us / 1e6
                    if first_issue is None or issued < first_issue:
                        first_issue = issued
                    if last_done is None or done > last_done:
                        last_done = done
                    if status == "ok" and latency_us > 0:
                        recorder.record(int(latency_us * 1000))
                    samples.append(sample)
        requested = sum(counts.values())
        duration = max(1e-9, (last_done - first_issue)
                       if first_issue is not None else 0.0)
        return cls(
            mode="merged",
            requested=requested,
            completed=counts["ok"],
            shed=counts["shed"],
            errors=counts["error"],
            timeouts=counts["timeout"],
            duration_s=duration,
            achieved_qps=counts["ok"] / duration,
            offered_qps=None,
            latency=recorder.snapshot(),
            samples=samples,
        )

    def summary(self) -> str:
        lines = [
            f"mode             : {self.mode}",
            f"requests         : {self.requested} "
            f"({self.completed} ok, {self.shed} shed, {self.errors} errors, "
            f"{self.timeouts} timeouts)",
            f"availability     : {self.availability:.4f}",
            f"duration         : {self.duration_s:.3f}s",
            f"achieved qps     : {self.achieved_qps:,.0f}"
            + (f" (offered {self.offered_qps:,.0f})" if self.offered_qps else ""),
        ]
        if self.latency.get("count"):
            lines.append(
                f"latency P50/P95/P99 (us): {self.latency['p50_us']:.1f} / "
                f"{self.latency['p95_us']:.1f} / {self.latency['p99_us']:.1f}"
            )
        if self.error_taxonomy:
            taxonomy = ", ".join(f"{name}={count}" for name, count
                                 in sorted(self.error_taxonomy.items()))
            lines.append(f"error taxonomy   : {taxonomy}")
        if self.mismatches is not None:
            lines.append(f"answer mismatches: {self.mismatches}")
        if self.residency is not None:
            total = self.residency.get("total", {})
            lines.append(
                f"shard faults     : {total.get('shard_faults', 0)} "
                f"(resident {total.get('resident_bytes', 0) / 2**20:.1f} MiB / "
                f"mapped {total.get('mapped_bytes', 0) / 2**20:.1f} MiB)"
            )
        return "\n".join(lines)


async def run_closed_loop(server: DistanceServer, pairs: Sequence[Pair],
                          concurrency: int = 32,
                          multiplicative: float = float("inf"),
                          additive: float = float("inf"),
                          client: str = "loadgen",
                          latency_window: int = 65536,
                          record_latency: bool = True,
                          error_types: Tuple[type, ...] = DEFAULT_ERROR_TYPES,
                          collect_samples: bool = False,
                          timeout: Optional[float] = None,
                          budgets: Optional[Sequence[Tuple[float, float]]] = None,
                          ) -> LoadReport:
    """Drive ``pairs`` through ``server`` with a fixed number of workers.

    ``record_latency=False`` skips the per-request client-side timing
    (the report's latency snapshot stays empty) — the throughput
    harnesses use it because the server already keeps a latency window
    (:attr:`DistanceServer.latency`), and timing every call twice taxes
    all modes equally.
    ``server`` is anything with an awaitable ``dist(u, v, ...)`` —
    the in-process :class:`DistanceServer` or a network client.
    ``client`` labels the raw samples.  ``error_types`` widens what counts
    as a per-request error (network callers add transport failures);
    ``collect_samples=True`` records a
    raw per-request sample (timestamp, per-worker client id, latency,
    status) into :attr:`LoadReport.samples` for JSONL export.
    ``timeout`` bounds each request client-side: a request that has not
    answered within ``timeout`` seconds is cancelled and counted in
    :attr:`LoadReport.timeouts` — the load loop never hangs on a stuck
    server, which is the whole point under chaos.
    ``budgets`` optionally carries one ``(multiplicative, additive)``
    stretch budget per pair — a mixed-fidelity workload where each
    request routes independently (``repro loadgen --stretch-mix``); when
    given it overrides the fixed ``multiplicative``/``additive``.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    if budgets is not None and len(budgets) != len(pairs):
        raise ValueError(
            f"budgets ({len(budgets)}) must align with pairs ({len(pairs)})")
    recorder = LatencyRecorder(latency_window)
    answers: List[Optional[float]] = [None] * len(pairs)
    samples: List[Dict[str, object]] = []
    taxonomy: Dict[str, int] = {}
    indices = iter(range(len(pairs)))
    timing = record_latency or collect_samples
    dist = server.dist

    async def worker(worker_index: int) -> Tuple[int, int, int, int]:
        completed = shed = errors = timeouts = 0
        worker_client = f"{client}/{worker_index}" if collect_samples else client
        for index in indices:
            u, v = pairs[index]
            issued = time.time() if collect_samples else 0.0
            started = time.perf_counter_ns() if timing else 0
            status = "ok"
            mult, add = (budgets[index] if budgets is not None
                         else (multiplicative, additive))
            try:
                call = dist(u, v, multiplicative=mult, additive=add)
                if timeout is not None:
                    call = asyncio.wait_for(call, timeout)
                answers[index] = await call
            except ServerOverloaded:
                shed += 1
                status = "shed"
            except (TimeoutError, asyncio.TimeoutError):
                timeouts += 1
                status = "timeout"
                taxonomy["timeout"] = taxonomy.get("timeout", 0) + 1
            except error_types as exc:
                errors += 1
                status = "error"
                name = type(exc).__name__
                taxonomy[name] = taxonomy.get(name, 0) + 1
            elapsed_us = ((time.perf_counter_ns() - started) / 1000.0
                          if timing else 0.0)
            if status == "ok":
                completed += 1
                if record_latency:
                    recorder.record(int(elapsed_us * 1000))
            if collect_samples:
                samples.append({"t": issued, "client": worker_client,
                                "latency_us": elapsed_us, "status": status})
        return completed, shed, errors, timeouts

    started = time.perf_counter()
    workers = max(1, min(concurrency, len(pairs)))
    tallies = await asyncio.gather(
        *(worker(worker_index) for worker_index in range(workers)))
    duration = max(1e-9, time.perf_counter() - started)
    return LoadReport(
        mode="closed",
        requested=len(pairs),
        completed=sum(tally[0] for tally in tallies),
        shed=sum(tally[1] for tally in tallies),
        errors=sum(tally[2] for tally in tallies),
        timeouts=sum(tally[3] for tally in tallies),
        error_taxonomy=taxonomy,
        duration_s=duration,
        achieved_qps=sum(tally[0] for tally in tallies) / duration,
        offered_qps=None,
        latency=recorder.snapshot(),
        answers=answers,
        samples=samples,
    )


async def run_open_loop(server: DistanceServer, pairs: Sequence[Pair],
                        qps: float,
                        multiplicative: float = float("inf"),
                        additive: float = float("inf"),
                        client: str = "loadgen",
                        latency_window: int = 65536,
                        error_types: Tuple[type, ...] = DEFAULT_ERROR_TYPES,
                        collect_samples: bool = False,
                        timeout: Optional[float] = None,
                        budgets: Optional[Sequence[Tuple[float, float]]] = None,
                        ) -> LoadReport:
    """Fire ``pairs`` at a fixed target QPS, independent of completions.

    ``timeout`` bounds each request client-side exactly as in
    :func:`run_closed_loop`, and ``budgets`` optionally carries one
    per-pair ``(multiplicative, additive)`` stretch budget.
    """
    if qps <= 0:
        raise ValueError(f"qps must be positive, got {qps}")
    if budgets is not None and len(budgets) != len(pairs):
        raise ValueError(
            f"budgets ({len(budgets)}) must align with pairs ({len(pairs)})")
    recorder = LatencyRecorder(latency_window)
    answers: List[Optional[float]] = [None] * len(pairs)
    samples: List[Dict[str, object]] = []
    taxonomy: Dict[str, int] = {}
    counters = {"completed": 0, "shed": 0, "errors": 0, "timeouts": 0}
    interval = 1.0 / qps

    async def one(index: int, u: int, v: int) -> None:
        issued = time.time() if collect_samples else 0.0
        started = time.perf_counter_ns()
        status = "ok"
        mult, add = (budgets[index] if budgets is not None
                     else (multiplicative, additive))
        try:
            call = server.dist(u, v, multiplicative=mult, additive=add)
            if timeout is not None:
                call = asyncio.wait_for(call, timeout)
            answers[index] = await call
        except ServerOverloaded:
            counters["shed"] += 1
            status = "shed"
        except (TimeoutError, asyncio.TimeoutError):
            counters["timeouts"] += 1
            status = "timeout"
            taxonomy["timeout"] = taxonomy.get("timeout", 0) + 1
        except error_types as exc:
            counters["errors"] += 1
            status = "error"
            name = type(exc).__name__
            taxonomy[name] = taxonomy.get(name, 0) + 1
        elapsed_ns = time.perf_counter_ns() - started
        if status == "ok":
            recorder.record(elapsed_ns)
            counters["completed"] += 1
        if collect_samples:
            samples.append({"t": issued, "client": client,
                            "latency_us": elapsed_ns / 1000.0,
                            "status": status})

    started = time.perf_counter()
    tasks = []
    for index, (u, v) in enumerate(pairs):
        delay = started + index * interval - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(index, u, v)))
    if tasks:
        await asyncio.gather(*tasks)
    duration = max(1e-9, time.perf_counter() - started)
    return LoadReport(
        mode="open",
        requested=len(pairs),
        completed=counters["completed"],
        shed=counters["shed"],
        errors=counters["errors"],
        timeouts=counters["timeouts"],
        error_taxonomy=taxonomy,
        duration_s=duration,
        achieved_qps=counters["completed"] / duration,
        offered_qps=qps,
        latency=recorder.snapshot(),
        answers=answers,
        samples=samples,
    )


def residency_report(engines: Dict[str, QueryEngine]) -> Dict[str, object]:
    """Shard faults and resident vs mapped payload bytes of ``engines``.

    Per engine (read off :meth:`QueryEngine.stats`), plus a totals row.
    Attached to :class:`LoadReport` by ``repro loadgen
    --report-residency`` so a load report answers "how much RAM did
    serving this workload actually take?" alongside its latency
    percentiles.
    """
    total = {"shard_faults": 0, "resident_bytes": 0, "mapped_bytes": 0}
    per_engine: Dict[str, object] = {}
    for name, engine in sorted(engines.items()):
        stats = engine.stats()
        per_engine[name] = {key: int(stats[key]) for key in total}
        for key in total:
            total[key] += per_engine[name][key]
    return {"total": total, "engines": per_engine}


def count_mismatches(pairs: Sequence[Pair], answers: Sequence[Optional[float]],
                     engine: QueryEngine, tolerance: float = 1e-9) -> int:
    """Answered pairs whose server answer differs from a direct engine call.

    Shed/errored pairs (``None`` answers) are skipped — the success-rate
    accounting covers those; this covers correctness of what *was* served.
    """
    answered = [(index, pair) for index, pair
                in enumerate(pairs) if answers[index] is not None]
    if not answered:
        return 0
    reference = engine.batch([pair for _, pair in answered])
    mismatches = 0
    for (index, _), expected in zip(answered, reference.tolist()):
        value = answers[index]
        if not (abs(value - expected) <= tolerance
                or (value == float("inf") and expected == float("inf"))):
            mismatches += 1
    return mismatches
