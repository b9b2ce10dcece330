"""Seeded inputs.  Everything here is a pure function of ``--seed``.

The program under test sees only what these functions return; pair pools
are numpy arrays so the generator's memory stays out of ``peak_rss_mib``.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List

import numpy as np

from repro import graphs
from repro.graphs import Graph

#: paper-algos: per round three cases, each a weighted and an unweighted
#: Erdős–Rényi graph.  The cost of one case differs by 13% from seed to
#: seed; fifteen cases a run bring the run's cost under the machine's noise.
ALGOS_N = 96
ALGOS_GRAPHS_PER_ROUND = 3
ALGOS_DEGREE = 8
ALGOS_MAX_WEIGHT = 32

#: oracle-build: one family per round, so the run covers what spanner and
#: hopset sizes depend on (degree, degree skew, grid diameter).
BUILD_N = 192
BUILD_GRAPHS_PER_ROUND = 3
BUILD_FAMILIES: List[str] = ["er-deg8", "power-law", "grid", "er-deg4", "er-deg16"]

#: wire-*: synthetic dense artifact, 256-pair frames.
WIRE_N = 1024
WIRE_SHARDS = 8
FRAME_PAIRS = 256
#: wire-batch pool: 262,144 uniform draws per round are ~230k distinct
#: pairs, about 3.5x the engine's 65,536-entry cache, and the pool is
#: replayed in order, so an LRU never sees a key again before evicting it.
BATCH_POOL_FRAMES = 1024
#: wire-point pool: Zipf(1.2) endpoints give ~40k distinct pairs per
#: 262,144 draws, which fits the cache.
POINT_POOL_PAIRS = 262_144
POINT_SKEW = 1.2


def round_seed(seed: int, round_index: int, stream: int = 0) -> int:
    """A 32-bit seed per (run seed, round, stream); any integer ``seed`` works."""
    text = f"{seed}/{round_index}/{stream}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big")


def algos_graphs(seed: int, round_index: int, slot: int) -> Dict[str, Graph]:
    s = round_seed(seed, round_index, 10 * slot)
    return {
        "weighted": graphs.random_weighted_graph(
            ALGOS_N, ALGOS_DEGREE, ALGOS_MAX_WEIGHT, s),
        "unweighted": graphs.erdos_renyi(
            ALGOS_N, ALGOS_DEGREE / (ALGOS_N - 1), seed=s + 1),
    }


def build_graph(seed: int, round_index: int, slot: int) -> Graph:
    s = round_seed(seed, round_index, 10 * slot)
    n = BUILD_N
    makers: Dict[str, Callable[[], Graph]] = {
        "er-deg8": lambda: graphs.random_weighted_graph(n, 8, 32, s),
        "power-law": lambda: graphs.power_law_graph(n, 3, seed=s, max_weight=32),
        "grid": lambda: graphs.grid_graph(12, n // 12, max_weight=8, seed=s),
        "er-deg4": lambda: graphs.random_weighted_graph(n, 4, 32, s),
        "er-deg16": lambda: graphs.random_weighted_graph(n, 16, 32, s),
    }
    return makers[BUILD_FAMILIES[round_index % len(BUILD_FAMILIES)]]()


def zipf_pair_array(n: int, count: int, skew: float, seed: int) -> np.ndarray:
    """``(count, 2)`` int32 pairs, endpoints drawn with P(rank) ~ rank^-skew.

    Same distribution as :func:`repro.serve.loadgen.zipf_pairs` (seeded
    rank permutation, independent endpoints; ``skew=0`` is uniform) but
    vectorised and array-valued.
    """
    rng = np.random.default_rng(seed)
    nodes = rng.permutation(n).astype(np.int32)
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** skew
    draws = rng.choice(n, size=(count, 2), p=weights / weights.sum())
    return nodes[draws]


def batch_pool(seed: int, round_index: int) -> np.ndarray:
    """``(frames, 256, 2)`` uniform pairs for one wire-batch round."""
    flat = zipf_pair_array(WIRE_N, BATCH_POOL_FRAMES * FRAME_PAIRS, 0.0,
                           round_seed(seed, round_index, 1))
    return flat.reshape(BATCH_POOL_FRAMES, FRAME_PAIRS, 2)


def point_pool(seed: int, round_index: int) -> np.ndarray:
    """``(pairs, 2)`` Zipf pairs for one wire-point round."""
    return zipf_pair_array(WIRE_N, POINT_POOL_PAIRS, POINT_SKEW,
                           round_seed(seed, round_index, 2))


def verification_pairs(n: int, count: int, seed: int) -> np.ndarray:
    """Uniform ``u != v`` pairs the oracle-build round checks its artifacts on."""
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, size=count)
    v = (u + rng.integers(1, n, size=count)) % n
    return np.stack([u, v], axis=1).astype(np.int32)


def graph_digest(graph: Graph) -> str:
    digest = hashlib.sha256()
    for u, v, w in sorted(graph.edges()):
        digest.update(f"{u},{v},{w};".encode())
    return digest.hexdigest()


def array_digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()
