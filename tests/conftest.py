"""Shared helpers and fixtures for the test suite: the matmul tests'
random matrices, the bench's build families, a leftover format-1
artifact, and an in-process fleet of workers behind a frontend.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

import numpy as np
import pytest

from repro import graphs
from repro.matmul import SemiringMatrix
from repro.net.frontend import Frontend
from repro.net.worker import DistanceWorker
from repro.oracle import build_oracle
from repro.semiring import MIN_PLUS
from repro.serve import DistanceServer, StretchRouter, build_registry


def random_matrix(n: int, nnz: int, seed: int):
    """A min-plus matrix of ``nnz`` entry attempts (duplicates collapse)
    with weights 1..9; the partition and balancing tests import it."""
    rng = random.Random(seed)
    matrix = SemiringMatrix(n, MIN_PLUS)
    for _ in range(nnz):
        matrix.set(rng.randrange(n), rng.randrange(n), float(rng.randint(1, 9)))
    return matrix


def submatrix_nnz(matrix, row_set, col_set) -> int:
    """Non-zero entries of ``matrix[row_set, col_set]``, counted from the
    row dictionaries: the reference the partition and balancing tests
    hold subcube loads to."""
    cols = set(col_set)
    return sum(1 for i in row_set for j in matrix.rows[i] if j in cols)


@pytest.fixture
def monolithic_pair(tmp_path):
    """A leftover of artifact format 1 as PR 20 wrote it, alone in its own
    directory: ``old.npz`` (compressed payload) plus its JSON sidecar.
    Returns the payload path."""
    artifact = build_oracle(
        graphs.random_weighted_graph(12, average_degree=4, max_weight=5, seed=2),
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


def build_families(n: int, seed: int):
    """``bench/inputs.build_graph``'s five graph families at ``n`` nodes."""
    return {
        "er-deg8": graphs.random_weighted_graph(n, 8, 32, seed),
        "power-law": graphs.power_law_graph(n, 3, seed=seed, max_weight=32),
        "grid": graphs.grid_graph(12, n // 12, max_weight=8, seed=seed),
        "er-deg4": graphs.random_weighted_graph(n, 4, 32, seed),
        "er-deg16": graphs.random_weighted_graph(n, 16, 32, seed),
    }


# ----------------------------------------------------------------------
# an in-process fleet: workers and a frontend on localhost sockets
# ----------------------------------------------------------------------
def make_worker(manifest):
    """A :class:`DistanceWorker` serving ``manifest`` through a router."""
    return DistanceWorker(
        DistanceServer(StretchRouter(build_registry([str(manifest)]))))


async def start_fleet(manifest, num_workers=2, **frontend_kwargs):
    """``num_workers`` started workers behind a started :class:`Frontend`."""
    workers = []
    for _ in range(num_workers):
        worker = make_worker(manifest)
        await worker.server.__aenter__()
        await worker.start()
        workers.append(worker)
    frontend = Frontend([str(manifest)],
                        [worker.address for worker in workers],
                        **frontend_kwargs)
    await frontend.start()
    return frontend, workers


async def stop_fleet(frontend, workers):
    await frontend.stop()
    for worker in workers:
        await worker.stop()
        await worker.server.__aexit__(None, None, None)


@contextlib.asynccontextmanager
async def running_fleet(manifest, num_workers=2, **frontend_kwargs):
    frontend, workers = await start_fleet(manifest, num_workers,
                                          **frontend_kwargs)
    try:
        yield frontend, workers
    finally:
        await stop_fleet(frontend, workers)
