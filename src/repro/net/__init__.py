"""repro.net — wire protocol + multi-worker distance-serving tier.

The network face of :mod:`repro.serve`: a framed binary TCP protocol
with an HTTP/JSON fallback on the same port (:mod:`repro.net.protocol`),
per-process workers wrapping one :class:`~repro.serve.DistanceServer`
each (:mod:`repro.net.worker`), a front tier that partitions batches by
shard affinity and survives worker death (:mod:`repro.net.frontend`),
and process management for local fleets (:mod:`repro.net.cluster`).
:class:`NetClient` parks per-pair ``dist()`` callers in the same
:class:`~repro.serve.coalesce.Coalescer` the in-process server uses;
:mod:`repro.net.bench` holds only the synthetic artifact and error set
the wire benchmarks (``bench/run.py``) and tests share.  Stdlib-only on
top of numpy: asyncio sockets and multiprocessing, no new dependencies.
"""

from repro.net.cluster import Cluster, free_port
from repro.net.frontend import Frontend, NetClient, WorkerLink, WorkerUnavailable
from repro.net.protocol import NetError, ProtocolError, Request
from repro.net.worker import DistanceWorker, NetServiceBase, run_worker, worker_main

__all__ = [
    "Cluster",
    "DistanceWorker",
    "Frontend",
    "NetClient",
    "NetError",
    "NetServiceBase",
    "ProtocolError",
    "Request",
    "WorkerLink",
    "WorkerUnavailable",
    "free_port",
    "run_worker",
    "worker_main",
]
