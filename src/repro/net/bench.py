"""Shared fixtures of the wire benchmarks and tests.

What is left of the net tier's own benchmark campaign: the synthetic
sharded artifact every wire benchmark and test serves, and the exception
set a verified load run over the wire counts as a failed request.  The
benchmark itself is ``bench/run.py`` (workloads ``wire-batch`` and
``wire-point``); surviving a worker kill with zero wrong answers is
``tests/test_net_cluster.py``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Tuple

import numpy as np

from repro.net.frontend import WorkerUnavailable
from repro.net.protocol import NetError, ProtocolError
from repro.serve.loadgen import DEFAULT_ERROR_TYPES

#: Everything a verified load run over the wire counts as a failed
#: request — loadgen's defaults plus the transport layer.  Shared by
#: ``bench/wire.py``, ``benchmarks/bench_chaos.py`` and
#: ``repro net serve --self-test``.
NET_ERROR_TYPES: Tuple[type, ...] = DEFAULT_ERROR_TYPES + (
    NetError, ProtocolError, WorkerUnavailable, ConnectionError,
    TimeoutError)


def synthetic_sharded_artifact(directory: Path, n: int = 1024,
                               num_shards: int = 8, seed: int = 0) -> Path:
    """Write a synthetic dense-apsp artifact as row shards; return manifest.

    Its users measure *serving*, so the distance table is synthesised
    (symmetric, zero diagonal, flagged ``synthetic``) instead of built by
    the paper's APSP pipeline — same payload shape, minutes cheaper.
    """
    from repro.oracle import get_strategy
    from repro.oracle.sharding import write_sharded_artifact

    rng = np.random.default_rng(seed)
    weights = rng.integers(1, 100, size=(n, n)).astype(np.float64)
    dist = np.minimum(weights, weights.T)
    np.fill_diagonal(dist, 0.0)
    guarantee = get_strategy("dense-apsp").guarantee(0.5, 99.0)
    metadata = {
        "strategy": "dense-apsp",
        "n": n,
        "num_edges": 8 * n,
        "epsilon": 0.5,
        "max_weight": 99.0,
        "stretch": guarantee.as_dict(),
        "build": {"rounds": 0, "seconds": 0.0, "kernel": "auto",
                  "synthetic": True},
    }
    manifest, _shards = write_sharded_artifact(
        metadata, {"dist": dist}, directory / f"net-bench-n{n}.npz",
        num_shards)
    return manifest
