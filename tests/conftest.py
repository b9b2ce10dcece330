"""Shared fixtures for the test suite.

The graphs used here are deliberately small (n <= 64) so the whole suite
runs in a couple of minutes; the benchmark harness exercises larger sizes.
"""

from __future__ import annotations

import random

import pytest

from repro.graphs import (
    Graph,
    erdos_renyi,
    grid_graph,
    path_graph,
    random_weighted_graph,
    star_graph,
)


@pytest.fixture(scope="session")
def small_weighted_graph() -> Graph:
    """A connected weighted graph on 32 nodes."""
    return random_weighted_graph(32, average_degree=6, max_weight=10, seed=7)


@pytest.fixture(scope="session")
def small_unweighted_graph() -> Graph:
    """A connected unweighted graph on 32 nodes."""
    return erdos_renyi(32, 0.15, seed=11)


@pytest.fixture(scope="session")
def medium_weighted_graph() -> Graph:
    """A connected weighted graph on 48 nodes."""
    return random_weighted_graph(48, average_degree=7, max_weight=16, seed=13)


@pytest.fixture(scope="session")
def sparse_path() -> Graph:
    """A weighted path of 24 nodes (extreme diameter)."""
    return path_graph(24, max_weight=5, seed=3)


@pytest.fixture(scope="session")
def small_grid() -> Graph:
    """A 5x5 unweighted grid."""
    return grid_graph(5, 5)


@pytest.fixture(scope="session")
def small_star() -> Graph:
    """A star on 20 nodes (sparse matrix with dense square)."""
    return star_graph(20)


@pytest.fixture
def rng() -> random.Random:
    """A per-test deterministic RNG."""
    return random.Random(12345)


def random_minplus_matrix(n: int, nnz: int, seed: int, max_value: int = 64):
    """A helper used by several matmul tests (importable from conftest)."""
    from repro.matmul import SemiringMatrix
    from repro.semiring import MIN_PLUS

    generator = random.Random(seed)
    matrix = SemiringMatrix(n, MIN_PLUS)
    for _ in range(nnz):
        matrix.set(
            generator.randrange(n), generator.randrange(n), generator.randint(1, max_value)
        )
    return matrix


@pytest.fixture
def monolithic_pair(tmp_path):
    """A leftover of artifact format 1 as PR 20 wrote it, alone in its own
    directory: ``old.npz`` (compressed payload) plus its JSON sidecar.
    Returns the payload path."""
    import hashlib
    import io
    import json

    import numpy as np

    from repro.oracle import build_oracle

    artifact = build_oracle(
        random_weighted_graph(12, average_degree=4, max_weight=5, seed=2),
        strategy="exact-fallback")
    root = tmp_path / "legacy"
    root.mkdir()
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **artifact.arrays)
    (root / "old.npz").write_bytes(buffer.getvalue())
    sidecar = {**artifact.metadata, "format_version": 1,
               "payload_arrays": sorted(artifact.arrays),
               "payload_sha256": hashlib.sha256(buffer.getvalue()).hexdigest()}
    (root / "old.meta.json").write_text(json.dumps(sidecar, indent=2))
    return root / "old.npz"
