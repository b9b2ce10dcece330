"""Serving subsystem: async distance serving over many oracle artifacts.

``repro.oracle`` built the build-once / query-many split; this package
turns it into a *service*.  Bottom-up:

* :mod:`repro.serve.registry` — :class:`ArtifactRegistry`: discover many
  artifacts (several graphs, several epsilon levels), load engines
  lazily with LRU eviction, pin fleets with JSON manifests.
* :mod:`repro.serve.router` — :class:`StretchRouter`: route each request
  to the cheapest artifact whose stretch guarantee satisfies the
  request's budget.
* :mod:`repro.serve.coalesce` — :class:`Coalescer`: concurrent awaited
  keys become few frames (park, one flusher, frames at least one window
  apart).  The server holds one for point queries; so does the wire
  client (:class:`repro.net.NetClient`) at the far side of the socket.
* :mod:`repro.serve.server` — :class:`DistanceServer`: asyncio front end
  with request coalescing (concurrent point queries become one
  vectorised gather, gathers at least one window apart), bounded-queue
  backpressure with load shedding, graceful shutdown; what it counts is
  published on ``/metricsz`` and read flat by ``stats()``.
  Point queries and wire frames reach the engine through one screened
  gather that never returns an implausible distance.
* :mod:`repro.serve.loadgen` — closed- and open-loop load generation
  with Zipf-skewed pair sampling and JSON reports.

Quick start::

    import asyncio
    from repro.serve import ArtifactRegistry, DistanceServer

    async def main():
        registry = ArtifactRegistry()
        registry.register("oracle-tight.npz")   # e.g. dense-apsp
        registry.register("oracle-cheap.npz")   # e.g. landmark-mssp
        async with DistanceServer(registry) as server:
            fast = await server.dist(0, 42)                    # cheapest
            tight = await server.dist(0, 42, multiplicative=3)  # budgeted
            print(fast, tight, server.stats()["engine_batches"])

    asyncio.run(main())
"""

from repro.serve.loadgen import (
    LoadReport,
    count_mismatches,
    residency_report,
    run_closed_loop,
    run_open_loop,
    zipf_pairs,
)
from repro.serve.registry import (
    MANIFEST_VERSION,
    ArtifactEntry,
    ArtifactRegistry,
    RegistryError,
    build_registry,
)
from repro.serve.router import (
    RouteDecision,
    RoutingError,
    StretchBudget,
    StretchRouter,
)
from repro.serve.server import (
    DeadlineExceeded,
    DistanceServer,
    ServerClosed,
    ServerConfig,
    ServerOverloaded,
)

__all__ = [
    "ArtifactEntry",
    "ArtifactRegistry",
    "DeadlineExceeded",
    "DistanceServer",
    "LoadReport",
    "MANIFEST_VERSION",
    "RegistryError",
    "RouteDecision",
    "RoutingError",
    "ServerClosed",
    "ServerConfig",
    "ServerOverloaded",
    "StretchBudget",
    "StretchRouter",
    "build_registry",
    "count_mismatches",
    "residency_report",
    "run_closed_loop",
    "run_open_loop",
    "zipf_pairs",
]
