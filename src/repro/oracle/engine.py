"""The serve half of the oracle split: point, batch, and k-nearest queries.

:class:`QueryEngine` wraps a loaded
:class:`~repro.oracle.artifact.OracleArtifact` and answers distance
queries in microseconds.  All strategies share the same front end — an
array-resident answer cache (:class:`~repro.oracle.cache.AnswerCache`:
4-way set-associative over the pair code ``lo * n + hi``, LRU within a
set, preallocated at ``24 × cache_size`` bytes), per-query latency
recording, and a ``stats()`` snapshot — and differ only in the
per-strategy kernels.  A batch is coded, probed, deduplicated, gathered
and filled in a fixed number of numpy calls whatever its size; no
per-pair Python runs between the caller's arrays and the answers.  The
cache only ever stores what a kernel returned, so answers are
bit-identical with it on, off, or thrashing.  To see what it costs and
saves on the wire path, run ``python3 bench/run.py --workload wire-batch
--trace 1`` and read ``oracle.engine.self_ms`` and
``oracle.engine.cache_hit_ratio.*``.

Which kernel family serves an artifact is the strategy's declared
``query_kind`` (:mod:`repro.oracle.strategies`), so registered strategies
plug in without touching this module:

* ``"dense"`` (dense-apsp / exact-fallback) — a single matrix lookup.
* ``"landmark"`` (landmark-mssp / hopset-landmark) — exact ball lookup
  for near pairs, otherwise the best landmark route
  ``min_a  d(u, a) + d(a, v)`` over the landmark table (a vectorised min
  over the landmark axis).
* ``"spanner"`` (spanner-greedy) — the landmark kernels plus a direct
  spanner-edge override: pairs joined by a spanner edge are answered with
  at most that edge's weight, read straight from the spanner CSR.

Both artifact representations are served behind the same front end: a
monolithic :class:`~repro.oracle.artifact.OracleArtifact` keeps its tables
fully resident, while a :class:`~repro.oracle.sharding.
ShardedOracleArtifact` stays memory-mapped — point queries read hot rows
through a bounded :class:`~repro.oracle.cache.RowBlockCache` and batch
misses gather directly from the mapped shards (one fancy-index per touched
shard, touching only the pages the requested rows live on).  The sharded
kernels compute the same float operations in the same order as the
monolithic ones, so answers are bit-identical between the two paths.

Estimates are always *overestimates* of the true distance (every stored
table is an overestimate and routes only compose them), so the engine's
answers inherit the artifact's advertised stretch guarantee unchanged.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.obs.metrics import get_registry
from repro.oracle.artifact import OracleArtifact
from repro.oracle.cache import AnswerCache, LatencyRecorder, RowBlockCache
from repro.oracle.sharding import ShardedOracleArtifact
from repro.oracle.strategies import get_strategy

#: Rows per cached block and blocks kept per sharded array — the hot-row
#: working set a sharded engine keeps resident (the serving registry's
#: cost model mirrors these numbers).
ROW_BLOCK_ROWS = 64
ROW_BLOCK_CAPACITY = 32


class QueryEngine:
    """Serve distance queries from a built oracle artifact.

    Parameters
    ----------
    artifact:
        A validated artifact: an in-memory
        :class:`~repro.oracle.build.OracleBuilder` /
        :meth:`~repro.oracle.artifact.OracleArtifact.load` result, or a
        memory-mapped :class:`~repro.oracle.sharding.ShardedOracleArtifact`.
    cache_size:
        Maximum number of cached point answers (0 disables caching).
    latency_window:
        How many recent per-query latencies feed the percentile stats.
    block_rows / block_capacity:
        Shape of the hot-row block cache used by the sharded kernels
        (ignored for monolithic artifacts).
    """

    def __init__(self, artifact: Union[OracleArtifact, ShardedOracleArtifact],
                 cache_size: int = 65536, latency_window: int = 65536,
                 block_rows: int = ROW_BLOCK_ROWS,
                 block_capacity: int = ROW_BLOCK_CAPACITY):
        artifact.validate()
        self.artifact = artifact
        self.n = artifact.n
        self.strategy = artifact.strategy
        self.cache = AnswerCache(cache_size)
        self.latency = LatencyRecorder(latency_window)
        self._queries = 0
        self._batch_sizes: Dict[int, int] = {}
        self._block_caches: Dict[str, RowBlockCache] = {}
        self._sharded = isinstance(artifact, ShardedOracleArtifact)

        self.query_kind = get_strategy(self.strategy).query_kind
        # The kernels are looked up on the class and kept as plain
        # functions: bound methods stored on the instance would make every
        # engine a reference cycle, and a dropped or evicted engine would
        # keep its tables and maps until the cyclic collector runs.
        suffix = self.query_kind + ("_sharded" if self._sharded else "")
        self._kernels = tuple(getattr(type(self), f"_{role}_{suffix}")
                              for role in ("point", "point_batch", "row"))
        if self._sharded:
            self._init_sharded(artifact, block_rows, block_capacity)
        elif self.query_kind == "dense":
            self._dist_matrix = np.asarray(artifact.arrays["dist"], dtype=np.float64)
        else:  # "landmark" and the "spanner" overlay on top of it
            self._landmark_dist = np.asarray(
                artifact.arrays["landmark_dist"], dtype=np.float64
            )
            # Balls as per-node dicts for O(1) near-pair lookups, plus the
            # reverse index (who has u in their ball) for row queries.
            ball_idx = np.asarray(artifact.arrays["ball_idx"])
            ball_dist = np.asarray(artifact.arrays["ball_dist"], dtype=np.float64)
            self._ball: List[Dict[int, float]] = [dict() for _ in range(self.n)]
            self._rev_ball: List[List[Tuple[int, float]]] = [[] for _ in range(self.n)]
            for v in range(self.n):
                for u, d in zip(ball_idx[v], ball_dist[v]):
                    if u < 0:
                        continue
                    u = int(u)
                    self._ball[v][u] = float(d)
                    self._rev_ball[u].append((v, float(d)))
            if self.query_kind == "spanner":
                self._init_spanner_overlay(
                    lambda name: np.asarray(artifact.arrays[name]))

        self._register_metrics()

    def _init_spanner_overlay(self, fetch) -> None:
        """Index the spanner CSR for the direct-edge override kernels.

        ``fetch(name)`` returns a common payload array — the in-memory
        dict for monolithic artifacts, :meth:`~repro.oracle.sharding.
        ShardedOracleArtifact.common` for sharded ones, so both paths
        index the *identical* bytes and stay bit-compatible.
        """
        self._csr_indptr = np.asarray(fetch("spanner_indptr"), dtype=np.int64)
        self._csr_indices = np.asarray(fetch("spanner_indices"), dtype=np.int64)
        self._csr_weights = np.asarray(fetch("spanner_weights"), dtype=np.float64)
        # Normalised-pair edge map: every query reaches the kernels with
        # u <= v, so one direction suffices for O(1) point overrides.
        self._edge_map: Dict[Tuple[int, int], float] = {}
        for u in range(self.n):
            for slot in range(int(self._csr_indptr[u]),
                              int(self._csr_indptr[u + 1])):
                v = int(self._csr_indices[slot])
                if u < v:
                    self._edge_map[(u, v)] = float(self._csr_weights[slot])

    def _register_metrics(self) -> None:
        """Expose engine state on the process registry via weakref callbacks.

        Every series reads the counters the hot paths already maintain
        (``self._queries``, the answer-cache hit/miss totals, shard-fault counts),
        so instrumentation adds zero work per query; the latency recorder
        is *attached*, not copied, so ``/metricsz`` sees the live window.
        """
        registry = get_registry()
        labels = {"strategy": self.strategy}
        registry.counter(
            "repro_engine_queries_total",
            "Point/batch/k-nearest queries answered by oracle engines",
            labels=labels,
        ).set_function(lambda e: e._queries, self)
        registry.counter(
            "repro_engine_cache_hits_total",
            "Answer-cache hits", labels=labels,
        ).set_function(lambda e: e.cache.hits, self)
        registry.counter(
            "repro_engine_cache_misses_total",
            "Answer-cache misses", labels=labels,
        ).set_function(lambda e: e.cache.misses, self)
        registry.counter(
            "repro_engine_shard_faults_total",
            "Shard open faults across sharded artifacts", labels=labels,
        ).set_function(lambda e: e.memory_stats()["shard_faults"], self)
        registry.gauge(
            "repro_engine_mapped_bytes",
            "Payload bytes memory-mapped (sharded artifacts)", labels=labels,
        ).set_function(lambda e: e.memory_stats()["mapped_bytes"], self)
        registry.gauge(
            "repro_engine_resident_bytes",
            "Payload bytes resident in memory", labels=labels,
        ).set_function(lambda e: e.memory_stats()["resident_bytes"], self)
        registry.counter(
            "repro_rowblock_cache_hits_total",
            "Hot-row block cache hits", labels=labels,
        ).set_function(
            lambda e: sum(c.hits for c in e._block_caches.values()), self)
        registry.counter(
            "repro_rowblock_cache_misses_total",
            "Hot-row block cache misses", labels=labels,
        ).set_function(
            lambda e: sum(c.misses for c in e._block_caches.values()), self)
        registry.gauge(
            "repro_rowblock_cache_bytes",
            "Bytes held by hot-row block caches", labels=labels,
        ).set_function(
            lambda e: sum(c.nbytes for c in e._block_caches.values()), self)
        registry.recorder(
            "repro_engine_latency_us",
            "Per-query engine latency", labels=labels,
        ).attach(self.latency)

    def _init_sharded(self, artifact: ShardedOracleArtifact, block_rows: int,
                      block_capacity: int) -> None:
        """Wire the zero-copy kernels: mapped shards + hot-row block caches."""
        def block_cache(name: str) -> RowBlockCache:
            cache = RowBlockCache(
                lambda start, stop, _name=name: artifact.rows(
                    _name, np.arange(start, stop, dtype=np.int64)),
                artifact.n, block_rows=block_rows, capacity=block_capacity,
            )
            self._block_caches[name] = cache
            return cache

        if self.query_kind == "dense":
            self._dist_rows = block_cache("dist")
        else:  # "landmark" and the "spanner" overlay on top of it
            self._num_landmarks = artifact.array_shape("landmark_dist")[1]
            self._ld_rows = block_cache("landmark_dist")
            self._ball_idx_rows = block_cache("ball_idx")
            self._ball_dist_rows = block_cache("ball_dist")
            if self.query_kind == "spanner":
                self._init_spanner_overlay(artifact.common)

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
        self._queries += count
        bucket = 1 << (count - 1).bit_length()
        self._batch_sizes[bucket] = self._batch_sizes.get(bucket, 0) + 1

        out = self.batch_core(lo, hi)

        per_query = (time.perf_counter_ns() - started) // count
        self.latency.record_many(per_query, count)
        return out

    def batch_core(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The synchronous batch kernel behind :meth:`batch`.

        Takes already-normalised pair arrays (``lo[i] <= hi[i]``, both in
        range) and resolves them through the cache plus one deduplicated
        vectorised gather: repeated pairs inside the batch are computed
        once and fanned out.  No validation, counters, or latency samples
        — callers such as :meth:`batch` and the serving layer
        (:mod:`repro.serve`) wrap this core with their own bookkeeping.
        """
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
            # Single-miss fast path: the point kernel reads hot rows
            # through the block cache instead of a one-element gather.
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
        row = self._row(u).copy()
        row[u] = np.inf  # a node is not its own neighbour
        order = np.lexsort((np.arange(self.n), row))
        result: List[Tuple[int, float]] = []
        for v in order[:k]:
            if not np.isfinite(row[v]):
                break
            result.append((int(v), float(row[v])))
        self.latency.record(time.perf_counter_ns() - started)
        return result

    def stats(self) -> Dict[str, object]:
        """Serving statistics: query counts, cache hit rate, latency.

        ``queries_total`` is a monotonic counter over every point, batch,
        and k-nearest query the engine has ever answered;
        ``batch_sizes`` is a histogram of :meth:`batch` call sizes keyed
        by the power-of-two bucket the size falls into (a batch of 100
        pairs lands in bucket ``"128"``).  Both exist so aggregators such
        as :class:`repro.serve.DistanceServer` can fold engine stats into
        their own without reaching for private attributes.
        """
        return {
            "strategy": self.strategy,
            "n": self.n,
            "queries": self._queries,
            "queries_total": self._queries,
            "batch_sizes": {str(bucket): count for bucket, count
                            in sorted(self._batch_sizes.items())},
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "cache_hit_rate": self.cache.hit_rate,
            "cache_size": len(self.cache),
            "latency": self.latency.snapshot(),
            "memory": self.memory_stats(),
        }

    def memory_stats(self) -> Dict[str, object]:
        """Resident vs mapped payload bytes (plus shard-fault counters).

        For a monolithic artifact everything is resident and nothing is
        mapped; for a sharded artifact residency is the common arrays plus
        the hot-row block caches, while the full payload stays mapped on
        disk.  ``repro loadgen --report-residency`` and the serving
        registry's cost model both read this snapshot.
        """
        if self._sharded:
            artifact = self.artifact
            block_bytes = sum(cache.nbytes
                              for cache in self._block_caches.values())
            return {
                "sharded": True,
                "num_shards": artifact.num_shards,
                "shard_faults": artifact.faults,
                "mapped_bytes": artifact.mapped_bytes,
                "resident_bytes": artifact.resident_bytes() + block_bytes,
                "row_block_cache": {
                    "blocks": sum(len(cache)
                                  for cache in self._block_caches.values()),
                    "bytes": block_bytes,
                    "hits": sum(cache.hits
                                for cache in self._block_caches.values()),
                    "misses": sum(cache.misses
                                  for cache in self._block_caches.values()),
                },
            }
        resident = sum(np.asarray(array).nbytes
                       for array in self.artifact.arrays.values())
        return {"sharded": False, "num_shards": 1, "shard_faults": 0,
                "mapped_bytes": 0, "resident_bytes": resident}

    def clear_cache(self) -> None:
        """Drop cached answers (hit/miss counters are kept)."""
        self.cache.clear()

    def quarantine_rows(self, rows: Sequence[int]) -> List[int]:
        """Purge every cache that may hold data derived from ``rows``.

        Called by the serving layer when a gather touching ``rows``
        produced impossible distances (NaN/negative).  The answer cache is
        cleared wholesale (its keys are pairs, not rows — there is no
        cheap way to tell which entries are tainted), the row-block
        caches drop only the blocks covering ``rows``, and — for sharded
        artifacts — each implicated shard is quarantined so its next
        open re-verifies the checksum.  Returns the quarantined shard
        indices (empty for monolithic artifacts, whose single payload
        was checksum-verified at load).
        """
        self.cache.clear()
        if not self._sharded:
            return []
        for cache in self._block_caches.values():
            cache.invalidate_rows(rows)
        row_array = np.asarray(list(rows), dtype=np.int64)
        if row_array.size == 0:
            return []
        shards = sorted(
            int(s) for s in np.unique(self.artifact.shard_of_rows(row_array)))
        for shard in shards:
            self.artifact.quarantine(shard)
        return shards

    # ------------------------------------------------------------------
    # strategy kernels
    # ------------------------------------------------------------------
    def _point(self, u: int, v: int) -> float:
        return self._kernels[0](self, u, v)

    def _point_batch(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        return self._kernels[1](self, us, vs)

    def _row(self, u: int) -> np.ndarray:
        return self._kernels[2](self, u)

    def _point_dense(self, u: int, v: int) -> float:
        return float(self._dist_matrix[u, v])

    def _point_batch_dense(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        return self._dist_matrix[us, vs]

    def _row_dense(self, u: int) -> np.ndarray:
        return self._dist_matrix[u]

    def _point_landmark(self, u: int, v: int) -> float:
        # Ball distances are exact and routes only compose overestimates,
        # so a ball hit can never be beaten by a landmark route.
        near = self._ball[u].get(v)
        if near is None:
            near = self._ball[v].get(u)
        if near is not None:
            return near
        return float(np.min(self._landmark_dist[u] + self._landmark_dist[v]))

    def _point_batch_landmark(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        # One gather over the (1 + ε) MSSP table resolves every pair's best
        # landmark route at once; the exact-ball overrides (a sparse O(1)
        # dict hit per pair) are applied on top, mirroring _point_landmark.
        count = len(us)
        out = np.empty(count, dtype=np.float64)
        chunk = max(1, (1 << 20) // max(1, self._landmark_dist.shape[1]))
        for start in range(0, count, chunk):
            stop = min(count, start + chunk)
            out[start:stop] = np.min(
                self._landmark_dist[us[start:stop]]
                + self._landmark_dist[vs[start:stop]],
                axis=1,
            )
        for index, (u, v) in enumerate(zip(us.tolist(), vs.tolist())):
            near = self._ball[u].get(v)
            if near is None:
                near = self._ball[v].get(u)
            if near is not None:
                out[index] = near
        return out

    def _row_landmark(self, u: int) -> np.ndarray:
        # Best landmark route to every node, then overlay the exact balls.
        row = np.min(self._landmark_dist + self._landmark_dist[u], axis=1)
        for v, d in self._ball[u].items():
            if d < row[v]:
                row[v] = d
        for v, d in self._rev_ball[u]:
            if d < row[v]:
                row[v] = d
        row[u] = 0.0
        return row

    # ------------------------------------------------------------------
    # spanner kernels: the landmark kernels plus a direct spanner-edge
    # override.  The override helpers are shared verbatim between the
    # monolithic and sharded variants, so the two paths stay bit-identical.
    # ------------------------------------------------------------------
    def _edge_override_point(self, u: int, v: int, value: float) -> float:
        direct = self._edge_map.get((u, v))
        if direct is not None and direct < value:
            return direct
        return value

    def _edge_override_batch(self, us: np.ndarray, vs: np.ndarray,
                             out: np.ndarray) -> np.ndarray:
        edge_map = self._edge_map
        for index, (u, v) in enumerate(zip(us.tolist(), vs.tolist())):
            direct = edge_map.get((u, v))
            if direct is not None and direct < out[index]:
                out[index] = direct
        return out

    def _edge_override_row(self, u: int, row: np.ndarray) -> np.ndarray:
        for slot in range(int(self._csr_indptr[u]),
                          int(self._csr_indptr[u + 1])):
            v = int(self._csr_indices[slot])
            w = float(self._csr_weights[slot])
            if w < row[v]:
                row[v] = w
        return row

    def _point_spanner(self, u: int, v: int) -> float:
        return self._edge_override_point(u, v, self._point_landmark(u, v))

    def _point_batch_spanner(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        return self._edge_override_batch(
            us, vs, self._point_batch_landmark(us, vs))

    def _row_spanner(self, u: int) -> np.ndarray:
        return self._edge_override_row(u, self._row_landmark(u))

    # ------------------------------------------------------------------
    # sharded (memory-mapped) strategy kernels — bit-identical siblings of
    # the in-memory kernels above
    # ------------------------------------------------------------------
    def _point_dense_sharded(self, u: int, v: int) -> float:
        return float(self._dist_rows.row(u)[v])

    def _point_batch_dense_sharded(self, us: np.ndarray,
                                   vs: np.ndarray) -> np.ndarray:
        # Elementwise gather straight off the shard maps: only the pages
        # holding the requested entries are ever faulted in.
        return self.artifact.gather("dist", us, vs)

    def _row_dense_sharded(self, u: int) -> np.ndarray:
        return self.artifact.row("dist", u)

    def _point_landmark_sharded(self, u: int, v: int) -> float:
        # Same probe order as _point_landmark: u's exact ball, then v's,
        # then the best landmark route.
        ball_u = self._ball_idx_rows.row(u)
        hit = np.nonzero(ball_u == v)[0]
        if hit.size:
            return float(self._ball_dist_rows.row(u)[hit[0]])
        ball_v = self._ball_idx_rows.row(v)
        hit = np.nonzero(ball_v == u)[0]
        if hit.size:
            return float(self._ball_dist_rows.row(v)[hit[0]])
        return float(np.min(self._ld_rows.row(u) + self._ld_rows.row(v)))

    def _point_batch_landmark_sharded(self, us: np.ndarray,
                                      vs: np.ndarray) -> np.ndarray:
        # Everything runs inside one ~1M-element chunk loop so transient
        # gathers stay bounded no matter the batch size — the sharded
        # path must not spike residency to answer a big batch.
        artifact = self.artifact
        count = len(us)
        out = np.empty(count, dtype=np.float64)
        chunk = max(1, (1 << 20) // max(1, self._num_landmarks))
        for start in range(0, count, chunk):
            stop = min(count, start + chunk)
            us_chunk, vs_chunk = us[start:stop], vs[start:stop]
            part = np.min(
                artifact.rows("landmark_dist", us_chunk)
                + artifact.rows("landmark_dist", vs_chunk),
                axis=1,
            )
            # Exact-ball overrides, u's ball first then v's, mirroring
            # _point_landmark / _point_batch_landmark.  Node ids are >= 0,
            # so the -1 ball padding can never match.
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

    def _row_landmark_sharded(self, u: int) -> np.ndarray:
        # A row query genuinely needs every node's best estimate, so it
        # scans all shards — but one shard at a time, never materialising
        # the full landmark table.
        artifact = self.artifact
        ld_u = np.asarray(self._ld_rows.row(u))
        row = np.empty(self.n, dtype=np.float64)
        for start, block in artifact.iter_shards("landmark_dist"):
            row[start:start + block.shape[0]] = np.min(block + ld_u, axis=1)
        ball_u = self._ball_idx_rows.row(u)
        dist_u = self._ball_dist_rows.row(u)
        for slot in range(len(ball_u)):
            v = int(ball_u[slot])
            if v >= 0 and dist_u[slot] < row[v]:
                row[v] = float(dist_u[slot])
        for index, (start, _stop) in enumerate(artifact.row_ranges):
            shard = artifact.open_shard(index)
            hit_rows, hit_slots = np.nonzero(shard["ball_idx"] == u)
            if hit_rows.size:
                exact = shard["ball_dist"][hit_rows, hit_slots]
                row[start + hit_rows] = np.minimum(row[start + hit_rows], exact)
        row[u] = 0.0
        return row

    def _point_spanner_sharded(self, u: int, v: int) -> float:
        return self._edge_override_point(
            u, v, self._point_landmark_sharded(u, v))

    def _point_batch_spanner_sharded(self, us: np.ndarray,
                                     vs: np.ndarray) -> np.ndarray:
        return self._edge_override_batch(
            us, vs, self._point_batch_landmark_sharded(us, vs))

    def _row_spanner_sharded(self, u: int) -> np.ndarray:
        return self._edge_override_row(u, self._row_landmark_sharded(u))

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _check_node(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise ValueError(f"node {u} out of range [0, {self.n})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"QueryEngine(strategy={self.strategy!r}, n={self.n}, "
                f"queries={self._queries})")


def measure_throughput(engine: QueryEngine,
                       pairs: Sequence[Tuple[int, int]]) -> Dict[str, float]:
    """Time a cold pass then a cached pass of ``pairs`` through ``engine``.

    The shared measurement protocol behind ``repro oracle bench`` and the
    benchmark harness: the first pass populates the cache (``cold_qps``),
    the second replays the same working set (``cached_qps``).
    """
    if not pairs:
        raise ValueError("need at least one query pair to measure throughput")
    start = time.perf_counter()
    engine.batch(pairs)
    cold_qps = len(pairs) / max(1e-9, time.perf_counter() - start)
    start = time.perf_counter()
    engine.batch(pairs)
    cached_qps = len(pairs) / max(1e-9, time.perf_counter() - start)
    return {"cold_qps": cold_qps, "cached_qps": cached_qps}
