"""The serve half of the oracle split: point, batch, and k-nearest queries.

:class:`QueryEngine` answers distance queries over a loaded artifact in
microseconds.  There is **one kernel family over the row-access
protocol**: the engine knows an artifact only through ``array_shape`` /
``row`` / ``rows`` / ``gather`` / ``common``, which a
memory-mapped :class:`~repro.oracle.sharding.ShardedOracleArtifact`
answers shard by shard and a resident
:class:`~repro.oracle.artifact.OracleArtifact` answers by plain indexing —
a resident artifact is the one-shard case, not a second code path.  The
kernels are array code throughout; the engine builds no per-node index at
load, so constructing one costs microseconds and holds no copy of the
payload.  Point kernels read a row through ``artifact.row`` — a view of
the array or of the map, never a copy — so a point read on a mapped
artifact opens exactly the shards owning the rows it reads, and the
engine holds nothing of a payload it did not load.

All strategies share the same front end — an array-resident answer cache
(:class:`~repro.oracle.cache.AnswerCache`: 4-way set-associative over the
pair code ``lo * n + hi``, LRU within a set, preallocated at
``24 × cache_size`` bytes), per-query latency recording
(:attr:`QueryEngine.latency`, published as ``repro_engine_latency_us``),
and the counters of :attr:`QueryEngine.SERIES`, which ``/metricsz``
publishes and ``stats()`` reads flat.  A batch is coded, probed,
deduplicated, gathered and filled in a fixed number of numpy calls
whatever its size; no per-pair Python runs between the caller's arrays
and the answers.  The cache only ever stores
what a kernel returned, so answers are bit-identical with it on, off, or
thrashing.  To see what it costs and saves on the wire path, run
``python3 bench/run.py --workload wire-batch --trace 1`` and read
``oracle.engine.self_ms`` and ``oracle.engine.cache_hit_ratio.*``.

Which kernel pair (``_point`` / ``_point_batch``) serves an artifact is
the strategy's declared ``query_kind``
(:mod:`repro.oracle.strategies`), so registered strategies plug in without
touching this module.  A k-nearest query is the batch kernel over one
node's ``n`` pairs, so a kind is its two kernels and nothing else:

* ``"dense"`` (dense-apsp / exact-fallback) — a single matrix lookup;
  batch misses gather elementwise (on a mapped artifact, touching only the
  pages the requested entries live on).
* ``"landmark"`` (landmark-mssp / hopset-landmark) — exact ball lookup
  for near pairs, otherwise the best landmark route
  ``min_a  d(u, a) + d(a, v)`` over the landmark table (a vectorised min
  over the landmark axis).
* ``"spanner"`` (spanner-greedy) — the landmark kernels plus a direct
  spanner-edge override: pairs joined by a spanner edge are answered with
  at most that edge's weight, found by one ``searchsorted`` over the sorted
  edge codes of the spanner CSR.

Estimates are always *overestimates* of the true distance (every stored
table is an overestimate and routes only compose them), so the engine's
answers inherit the artifact's advertised stretch guarantee unchanged.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.obs.metrics import (
    LatencyRecorder,
    get_registry,
    publish,
    read_series,
)
from repro.oracle.artifact import OracleArtifact
from repro.oracle.cache import AnswerCache
from repro.oracle.sharding import ShardedOracleArtifact
from repro.oracle.strategies import get_strategy


class QueryEngine:
    """Serve distance queries from a built oracle artifact.

    Parameters
    ----------
    artifact:
        Anything answering the row-access protocol: the in-memory
        :class:`~repro.oracle.build.OracleBuilder` result, or a
        memory-mapped :class:`~repro.oracle.sharding.ShardedOracleArtifact`.
    cache_size:
        Maximum number of cached point answers (0 disables caching).
    latency_window:
        How many recent per-query latencies feed the percentile stats.
    """

    #: What an engine counts: published per strategy on the registry,
    #: read flat by :meth:`stats`.
    SERIES = (
        ("repro_engine_queries_total", "counter",
         "Point/batch/k-nearest queries answered by oracle engines",
         lambda e: e._queries),
        ("repro_engine_cache_hits_total", "counter", "Answer-cache hits",
         lambda e: e.cache.hits),
        ("repro_engine_cache_misses_total", "counter", "Answer-cache misses",
         lambda e: e.cache.misses),
        ("repro_engine_shard_faults_total", "counter",
         "Shard open faults across sharded artifacts",
         lambda e: e.artifact.faults),
        ("repro_engine_mapped_bytes", "gauge",
         "Payload bytes memory-mapped (sharded artifacts)",
         lambda e: e.artifact.mapped_bytes),
        ("repro_engine_resident_bytes", "gauge",
         "Payload bytes resident in memory",
         lambda e: e.artifact.resident_bytes()),
    )

    def __init__(self, artifact: Union[OracleArtifact, ShardedOracleArtifact],
                 cache_size: int = 65536, latency_window: int = 65536):
        artifact.validate()
        self.artifact = artifact
        self.n = artifact.n
        self.strategy = artifact.strategy
        self.cache = AnswerCache(cache_size)
        self.latency = LatencyRecorder(latency_window)
        self._queries = 0

        spec = get_strategy(self.strategy)
        self.query_kind = spec.query_kind
        # The kernels are looked up on the class and kept as plain
        # functions: bound methods stored on the instance would make every
        # engine a reference cycle, and a dropped or evicted engine would
        # keep its tables and maps until the cyclic collector runs.
        self._kernels = tuple(getattr(type(self), f"_{role}_{self.query_kind}")
                              for role in ("point", "point_batch"))
        if self.query_kind == "spanner":
            self._init_spanner_overlay()

        self._register_metrics()

    def _init_spanner_overlay(self) -> None:
        """Index the spanner CSR for the direct-edge override kernels.

        Every query reaches the kernels with ``u <= v``, so the point and
        batch overrides search one sorted array of ``u * n + v`` codes over
        the ``u < v`` entries.  A sentinel code above every real one closes
        the array, so ``searchsorted`` always lands on a valid slot.
        """
        common = self.artifact.common
        indptr = np.asarray(common("spanner_indptr"), dtype=np.int64)
        indices = np.asarray(common("spanner_indices"), dtype=np.int64)
        weights = np.asarray(common("spanner_weights"), dtype=np.float64)
        sources = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(indptr))
        upper = np.flatnonzero(sources < indices)
        codes = sources[upper] * self.n + indices[upper]
        order = np.argsort(codes, kind="stable")
        self._edge_codes = np.append(codes[order], np.iinfo(np.int64).max)
        self._edge_weights = np.append(weights[upper][order], np.inf)

    def _register_metrics(self) -> None:
        """Publish :attr:`SERIES` and attach the latency window.

        Every series reads the counters the hot paths already maintain, so
        instrumentation adds zero work per query; the latency recorder is
        *attached*, not copied, so ``/metricsz`` sees the live window.
        """
        labels = {"strategy": self.strategy}
        publish(self, self.SERIES, labels)
        get_registry().recorder(
            "repro_engine_latency_us",
            "Per-query engine latency", labels=labels,
        ).attach(self.latency)

    # ------------------------------------------------------------------
    # public query API
    # ------------------------------------------------------------------
    def dist(self, u: int, v: int) -> float:
        """Estimated distance between ``u`` and ``v`` (cached)."""
        started = time.perf_counter_ns()
        self._check_node(u)
        self._check_node(v)
        self._queries += 1
        if u == v:
            self.latency.record(time.perf_counter_ns() - started)
            return 0.0
        if u > v:
            u, v = v, u
        key = u * self.n + v
        if type(key) is not int:
            # numpy node ids: a fixed-width product could have wrapped.
            u, v = int(u), int(v)
            key = u * self.n + v
        value = self.cache.get(key)
        if value is None:
            value = self._point(u, v)
            self.cache.put(key, value)
        self.latency.record(time.perf_counter_ns() - started)
        return value

    def batch(self, pairs: Union[Sequence[Tuple[int, int]], np.ndarray]
              ) -> np.ndarray:
        """Estimated distances for many ``(u, v)`` pairs.

        ``pairs`` is a sequence of pairs or a ``(k, 2)`` integer array
        (an int64 array is used as it is).  Each pair goes through the same cache as :meth:`dist`, but all
        cache misses are resolved with one vectorised gather over the
        strategy's tables instead of a per-pair Python loop, so cold
        batches run at numpy speed and repeated batches over a working
        set are served at cache speed.  Results are identical to calling
        :meth:`dist` per pair.  Each pair contributes one latency sample
        equal to its amortised share of the batch — the batch path
        smooths the tail by construction, and the percentiles report
        that honestly.
        """
        started = time.perf_counter_ns()
        nodes = np.asarray(pairs, dtype=np.int64)
        count = len(nodes)
        if count == 0:
            return np.zeros(0, dtype=np.float64)
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise ValueError(
                f"pairs must be a sequence of (u, v) pairs or a (k, 2) "
                f"array, got shape {nodes.shape}")
        lo = np.minimum(nodes[:, 0], nodes[:, 1])
        hi = np.maximum(nodes[:, 0], nodes[:, 1])
        bad = np.flatnonzero((lo < 0) | (hi >= self.n))
        if bad.size:
            for node in nodes[bad[0]].tolist():
                self._check_node(node)

        out = self.batch_core(lo, hi)

        per_query = (time.perf_counter_ns() - started) // count
        self.latency.record_many(per_query, count)
        return out

    def batch_core(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The synchronous batch kernel behind :meth:`batch`.

        Takes already-normalised pair arrays (``lo[i] <= hi[i]``, both in
        range) and resolves them through the cache plus one deduplicated
        vectorised gather: repeated pairs inside the batch are computed
        once and fanned out.  Counts its pairs as queries (the serving
        layer enters here, not through :meth:`batch`); no validation or
        latency samples — callers such as :meth:`batch` and
        :mod:`repro.serve` wrap this core with their own bookkeeping.
        """
        self._queries += len(lo)
        return self.regather(lo, hi)

    def regather(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """:meth:`batch_core` without the query count: the second attempt
        at a frame the first attempt already counted."""
        proper = lo != hi
        if proper.all():
            return self._resolve(lo, hi)
        # Self-pairs are 0 by definition and never touch the cache.
        out = np.zeros(len(lo), dtype=np.float64)
        out[proper] = self._resolve(lo[proper], hi[proper])
        return out

    def _resolve(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Answers for proper pairs: one probe, one gather, one fill."""
        n = self.n
        keys = lo * np.int64(n) + hi
        hit, out = self.cache.probe(keys)
        miss = np.flatnonzero(~hit)
        if miss.size == 1:
            # Single-miss fast path: the point kernel reads one row view
            # instead of grouping a one-element gather by shard.
            key = keys.item(miss.item())
            value = self._point(key // n, key % n)
            out[miss] = value
            self.cache.put(key, value)
        elif miss.size:
            # Deduplicate the gather: each distinct missing pair is
            # resolved once, then scattered to every occurrence.
            codes, inverse = np.unique(keys[miss], return_inverse=True)
            values = self._point_batch(codes // n, codes % n)
            out[miss] = values[inverse]
            self.cache.fill(codes, values)
        return out

    def k_nearest(self, u: int, k: int) -> List[Tuple[int, float]]:
        """The ``k`` nodes with the smallest estimated distance from ``u``.

        Returns ``(node, distance)`` pairs sorted by (distance, node id);
        unreachable nodes are never reported, so fewer than ``k`` entries
        may come back on disconnected graphs.
        """
        started = time.perf_counter_ns()
        self._check_node(u)
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self._queries += 1
        # The batch kernel over every (min(u, v), max(u, v)) pair: the
        # kernels take their pairs normalised, as the cache keys them.
        others = np.arange(self.n, dtype=np.int64)
        row = self._point_batch(np.minimum(others, u), np.maximum(others, u))
        row[u] = np.inf  # a node is not its own neighbour
        order = np.lexsort((np.arange(self.n), row))
        result: List[Tuple[int, float]] = []
        for v in order[:k]:
            if not np.isfinite(row[v]):
                break
            result.append((int(v), float(row[v])))
        self.latency.record(time.perf_counter_ns() - started)
        return result

    def stats(self) -> Dict[str, float]:
        """The values of :attr:`SERIES`, flat: ``queries`` (every point,
        batch and k-nearest query ever answered), ``cache_hits``,
        ``cache_misses``, ``shard_faults``, ``mapped_bytes`` and
        ``resident_bytes`` — the numbers ``/metricsz`` publishes.

        Residency is read off the artifact: an opened one holds the common
        arrays it has read while the row arrays stay in the map — what the
        strategy's ``cost_fn`` charges as ``common_floats``; a build
        product served straight from memory holds its whole payload and
        maps nothing.
        """
        return read_series(self, self.SERIES)

    def clear_cache(self) -> None:
        """Drop cached answers (hit/miss counters are kept)."""
        self.cache.clear()

    def quarantine_rows(self, rows: Sequence[int]) -> List[int]:
        """Drop everything that may hold data derived from ``rows``.

        Called by the serving layer when a gather touching ``rows``
        produced impossible distances (NaN/negative).  The answer cache is
        cleared wholesale (its keys are pairs, not rows — there is no
        cheap way to tell which entries are tainted) and the artifact
        quarantines each implicated shard: its map is dropped and its next
        open re-verifies the checksum.  The engine keeps no copy of a row,
        so the next read of a suspect row goes through that re-opened
        shard.  Returns the quarantined shard indices (empty for a
        resident artifact, whose payload was checksum-verified whole at
        load).
        """
        self.cache.clear()
        return self.artifact.quarantine_rows(rows)

    # ------------------------------------------------------------------
    # strategy kernels
    # ------------------------------------------------------------------
    def _point(self, u: int, v: int) -> float:
        return self._kernels[0](self, u, v)

    def _point_batch(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        return self._kernels[1](self, us, vs)

    def _point_dense(self, u: int, v: int) -> float:
        return float(self.artifact.row("dist", u)[v])

    def _point_batch_dense(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        # Elementwise gather straight off the rows: on a mapped artifact
        # only the pages holding the requested entries are faulted in.
        return self.artifact.gather("dist", us, vs)

    def _point_landmark(self, u: int, v: int) -> float:
        # Ball distances are exact and routes only compose overestimates,
        # so a ball hit can never be beaten by a landmark route: probe
        # u's ball, then v's, then take the best landmark route.
        row = self.artifact.row
        hit = (row("ball_idx", u) == v).nonzero()[0]
        if hit.size:
            return float(row("ball_dist", u)[hit[0]])
        hit = (row("ball_idx", v) == u).nonzero()[0]
        if hit.size:
            return float(row("ball_dist", v)[hit[0]])
        return float((row("landmark_dist", u) + row("landmark_dist", v)).min())

    def _point_batch_landmark(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        # Everything runs inside one ~1M-element chunk loop so transient
        # gathers stay bounded no matter the batch size — answering a big
        # batch must not spike residency on a mapped artifact.
        artifact = self.artifact
        count = len(us)
        out = np.empty(count, dtype=np.float64)
        chunk = max(1, (1 << 20)
                    // max(1, artifact.array_shape("landmark_dist")[1]))
        for start in range(0, count, chunk):
            stop = min(count, start + chunk)
            us_chunk, vs_chunk = us[start:stop], vs[start:stop]
            part = np.min(
                artifact.rows("landmark_dist", us_chunk)
                + artifact.rows("landmark_dist", vs_chunk),
                axis=1,
            )
            # Exact-ball overrides in _point_landmark's order: u's ball
            # first, then v's.  Node ids are >= 0, so the -1 ball padding
            # can never match.
            match_u = artifact.rows("ball_idx", us_chunk) == vs_chunk[:, None]
            has_u = match_u.any(axis=1)
            if has_u.any():
                rows = np.nonzero(has_u)[0]
                ball_du = artifact.rows("ball_dist", us_chunk[rows])
                part[rows] = ball_du[np.arange(rows.size),
                                     np.argmax(match_u[rows], axis=1)]
            rest = np.nonzero(~has_u)[0]
            if rest.size:
                match_v = (artifact.rows("ball_idx", vs_chunk[rest])
                           == us_chunk[rest][:, None])
                has_v = np.nonzero(match_v.any(axis=1))[0]
                if has_v.size:
                    ball_dv = artifact.rows("ball_dist",
                                            vs_chunk[rest[has_v]])
                    part[rest[has_v]] = ball_dv[np.arange(has_v.size),
                                                np.argmax(match_v[has_v],
                                                          axis=1)]
            out[start:stop] = part
        return out

    # ------------------------------------------------------------------
    # spanner kernels: the landmark kernels plus a direct spanner-edge
    # override, which only ever tightens an answer.
    # ------------------------------------------------------------------
    def _point_spanner(self, u: int, v: int) -> float:
        value = self._point_landmark(u, v)
        code = u * self.n + v
        slot = self._edge_codes.searchsorted(code)
        if self._edge_codes[slot] == code and self._edge_weights[slot] < value:
            return float(self._edge_weights[slot])
        return value

    def _point_batch_spanner(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        out = self._point_batch_landmark(us, vs)
        codes = us * np.int64(self.n) + vs
        slots = self._edge_codes.searchsorted(codes)
        direct = self._edge_weights[slots]
        better = np.flatnonzero((self._edge_codes[slots] == codes)
                                & (direct < out))
        out[better] = direct[better]
        return out

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _check_node(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise ValueError(f"node {u} out of range [0, {self.n})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"QueryEngine(strategy={self.strategy!r}, n={self.n}, "
                f"queries={self._queries})")
