"""repro — Fast Approximate Shortest Paths in the Congested Clique.

A faithful, executable reproduction of Censor-Hillel, Dory, Korhonen and
Leitersdorf, *Fast Approximate Shortest Paths in the Congested Clique*
(PODC 2019).  The package provides:

* a Congested Clique model substrate (message-level simulator + round
  accounting) — :mod:`repro.cclique`;
* semirings and sparse matrix multiplication in the model, including the
  paper's output-sensitive (Theorem 8) and filtered (Theorem 14) algorithms
  — :mod:`repro.semiring`, :mod:`repro.matmul`;
* the distance tools of Section 3 (k-nearest, source detection, distance
  through sets, hitting sets) — :mod:`repro.distance`;
* the hopset construction of Section 4 — :mod:`repro.hopsets`;
* the headline algorithms: (1+ε) multi-source shortest paths, (2+ε)/(3+ε)
  APSP approximations, exact Õ(n^{1/6}) SSSP, and the near-3/2 diameter
  approximation — :mod:`repro.core`;
* the prior-work baselines those results are compared against —
  :mod:`repro.baselines`;
* a build-once / query-many distance-oracle subsystem with on-disk
  artifacts, a query engine with an array-resident answer cache, and
  CLI integration — :mod:`repro.oracle`;
* an async serving subsystem — multi-artifact registry, stretch-budget
  routing, and a coalescing :class:`~repro.serve.DistanceServer` with a
  load generator — :mod:`repro.serve`;
* a network tier over it — framed binary wire protocol with HTTP/JSON
  fallback, per-process workers, a failover-capable front tier, and a
  local cluster manager — :mod:`repro.net`.

Every submodule and re-exported name is imported on first access, so
``import repro.net.worker`` loads the serving modules only and
``from repro import graphs`` never imports asyncio.

Quick start::

    from repro import graphs, core

    g = graphs.random_weighted_graph(64, average_degree=8, seed=0)
    result = core.apsp_weighted(g, epsilon=0.5)
    print(result.rounds, result.estimates[0][5])
"""

__version__ = "1.6.0"

#: Submodules, imported on first access.
_SUBMODULES = frozenset({
    "baselines", "cclique", "core", "distance", "graphs", "hopsets",
    "matmul", "net", "oracle", "semiring", "serve",
})
#: Re-exported names and the submodule each lives in.
_EXPORTS = {
    "Clique": "cclique",
    "apsp_unweighted": "core",
    "apsp_weighted": "core",
    "approximate_diameter": "core",
    "exact_sssp": "core",
    "mssp": "core",
    "k_nearest": "distance",
    "source_detection": "distance",
    "distance_through_sets": "distance",
    "Graph": "graphs",
    "build_hopset": "hopsets",
    "SemiringMatrix": "matmul",
    "dense_mm": "matmul",
    "filtered_mm": "matmul",
    "output_sensitive_mm": "matmul",
    "sparse_mm_clt18": "matmul",
}


def lazy_exports(package: str, exports: dict, submodules=frozenset()):
    """A PEP 562 ``__getattr__`` for ``package``: ``exports`` maps a public
    name to the submodule it lives in, ``submodules`` are reachable as
    attributes; either is imported on first access and cached on the
    package.  So importing ``repro`` — which every ``import repro.x.y``
    does first — loads nothing else: a serving worker never pays for the
    simulator or the paper's algorithms, a library user never for asyncio.
    """
    def __getattr__(name: str):
        import importlib
        import sys

        if name in submodules:
            value = importlib.import_module(f"{package}.{name}")
        elif name in exports:
            value = getattr(
                importlib.import_module(f"{package}.{exports[name]}"), name)
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__


__getattr__ = lazy_exports(__name__, _EXPORTS, _SUBMODULES)

__all__ = [*_EXPORTS, *sorted(_SUBMODULES), "__version__"]
