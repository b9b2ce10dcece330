"""Strategy registry for the distance-oracle subsystem.

A *strategy* names one way of turning the paper's one-shot Congested Clique
computations into a persistent, queryable artifact:

* ``dense-apsp`` — run the (2 + ε, (1 + ε)W)-approximate weighted APSP of
  Theorem 28 once and store the full n×n estimate matrix.  Queries are a
  single matrix lookup; the artifact is O(n²) floats.
* ``landmark-mssp`` — the compact oracle: compute every node's √n-nearest
  ball exactly (Theorem 18), pick a hitting set A of those balls (Lemma 4)
  as landmarks, and run (1 + ε)-approximate MSSP from A (Theorem 3).  The
  artifact stores the balls plus the n×|A| landmark table — Õ(n^{3/2})
  numbers instead of n².  Near pairs (inside a ball) are answered exactly;
  far pairs are routed through landmarks with stretch at most 3(1 + ε),
  by the Section 6.1 pivot argument.
* ``spanner-greedy`` — keep only a greedy (2k − 1)-spanner of the graph
  (Althöfer; the Section 1.1 / Parter–Yogev trade-off) and answer from
  spanner-metric balls + hitting-set landmarks with exact spanner
  distances.  The artifact is the spanner CSR plus Õ(n^{3/2}) landmark /
  ball rows — no dense table anywhere — at stretch 3(2k − 1).
* ``hopset-landmark`` — landmark tables accelerated by a hopset
  (:mod:`repro.hopsets`): Bellman–Ford from the hitting-set landmarks
  over G ∪ H converges in few iterations because the hopset shortcuts
  long paths, and the resulting table is *exact* (hopset edges are real
  path lengths), so far pairs carry pure pivot stretch 3.
* ``exact-fallback`` — exact APSP by iterated dense min-plus squaring
  (the Censor-Hillel et al. 2015 baseline).  Expensive to build
  (Õ(n^{1/3}) simulated rounds) but answers are exact; the comparator the
  approximate strategies are validated against.

Strategies are held in a :class:`StrategyRegistry`.  Each
:class:`StrategySpec` is *declarative*: it carries the build function (a
lazily imported ``"module:attr"`` dotted path, so registration never drags
in numpy-heavy build code), the stretch-guarantee rule, and one cost
function: the artifact's size and per-query work, evaluated a priori by
the fleet planner (:mod:`repro.oracle.planner`) and on built metadata by
the artifact registry.  :func:`cost_order` ranks artifacts for both, so
the planner builds what the router serves.  Third parties register their
own strategies with :func:`register_strategy` and they appear everywhere — CLI ``choices``, error messages, planner
enumeration — because :data:`STRATEGY_NAMES` is a live view of the
registry, not a frozen tuple.
"""

from __future__ import annotations

import dataclasses
import difflib
import importlib
import math
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

#: The query-kernel families the engine implements.  Every registered
#: strategy must declare which family serves its payload:
#: ``"dense"`` (one n×n ``dist`` matrix lookup), ``"landmark"`` (exact
#: balls + best-landmark routes), or ``"spanner"`` (landmark kernels plus
#: a direct spanner-edge override).
QUERY_KINDS: Tuple[str, ...] = ("dense", "landmark", "spanner")


@dataclasses.dataclass(frozen=True)
class StretchGuarantee:
    """The advertised accuracy of an oracle artifact.

    An estimate ``est`` for a pair at true distance ``d`` satisfies

        ``d <= est <= multiplicative * d + additive``

    where ``additive`` is an absolute term fixed at build time (for
    ``dense-apsp`` it is (1 + ε)·W with ``W`` the maximum edge weight, the
    paper's additive (1 + ε)W term evaluated at its worst case).
    """

    multiplicative: float
    additive: float = 0.0

    def upper_bound(self, exact: float) -> float:
        """The largest estimate the guarantee permits for ``exact``."""
        return self.multiplicative * exact + self.additive

    def as_dict(self) -> Dict[str, float]:
        return {"multiplicative": self.multiplicative, "additive": self.additive}

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "StretchGuarantee":
        return cls(
            multiplicative=float(data["multiplicative"]),
            additive=float(data.get("additive", 0.0)),
        )


@dataclasses.dataclass(frozen=True)
class CostEstimate:
    """Size and per-query work of one strategy's artifact.

    The one cost statement: a strategy's ``cost_fn`` returns it a priori
    for the planner and on the built metadata for the artifact registry.
    The common arrays (``common_floats``) are what a loaded engine holds
    resident; the rest of the payload stays mapped — what its
    ``repro_engine_resident_bytes`` and ``repro_engine_mapped_bytes``
    series measure.  Units: floats for sizes, table-lookup-equivalents
    for query cost.
    """

    payload_floats: float
    common_floats: float
    query_cost: float

    @property
    def payload_bytes(self) -> float:
        return self.payload_floats * 8.0


def cost_order(estimate: CostEstimate, guarantee: StretchGuarantee,
               name: str) -> Tuple[float, float, float, float, str]:
    """The one ranking of artifacts: smallest payload, then cheapest query,
    then tightest guarantee (multiplicative, then additive), then name.

    The planner takes its ``min`` over a-priori estimates, the router
    sorts built artifacts by it
    (:attr:`~repro.serve.registry.ArtifactEntry.cost`).
    """
    return (estimate.payload_floats, estimate.query_cost,
            guarantee.multiplicative, guarantee.additive, name)


# Signature of a build function: ``(builder, graph) -> (arrays, rounds,
# detail, phases)`` — exactly what OracleBuilder packages into an artifact.
BuildFn = Callable[[object, object], tuple]


@dataclasses.dataclass(frozen=True)
class StrategySpec:
    """Declarative description of one oracle strategy.

    Beyond the artifact schema (``required_arrays`` / ``row_sharded_arrays``)
    a spec carries the three behaviours the rest of the stack dispatches on:

    * ``build_fn`` — how to build: a ``"module:attr"`` dotted path resolved
      lazily (keeps registration import-light and avoids build↔registry
      cycles) or a direct callable for third-party registrations.
    * ``guarantee_fn`` — the stretch guarantee a build with given
      parameters will advertise, computable *before* building (the planner
      relies on this).
    * ``cost_fn`` — ``(n, m, epsilon, build) -> CostEstimate``: the size
      and per-query work of the artifact, a priori when ``build`` is empty
      (the planner) and from a built artifact's ``build`` metadata (the
      artifact registry).  :meth:`estimate` runs it.
    """

    name: str
    #: Arrays the artifact payload must contain for this strategy.
    required_arrays: Tuple[str, ...]
    #: Human-readable summary shown by ``repro oracle build``/``strategies``.
    summary: str
    #: Whether the guarantee depends on epsilon (exact strategies do not).
    uses_epsilon: bool = True
    #: Payload arrays whose leading axis is the node axis — the ones the
    #: sharded artifact format (:mod:`repro.oracle.sharding`) splits into
    #: per-node-range shard files.  Everything else (e.g. the landmark id
    #: vector or the spanner CSR) is small and travels whole inside shard 0.
    row_sharded_arrays: Tuple[str, ...] = ()
    #: Which engine kernel family serves this payload (see QUERY_KINDS).
    query_kind: str = "dense"
    build_fn: Union[str, BuildFn, None] = None
    #: The exact row-slab build ``OracleBuilder(jobs=K)`` runs in place of
    #: ``build_fn``, in the same two forms: ``(builder, graph, executor) ->
    #: (arrays, rounds, detail, phases)`` on a :class:`~repro.matmul.parallel.
    #: SlabExecutor`, whose maps (``np.memmap``) it may return as arrays.  A
    #: strategy without one builds with ``build_fn`` at every ``jobs``.
    slab_build_fn: Union[str, Callable, None] = None
    guarantee_fn: Optional[Callable[[float, float, Optional[int]],
                                    StretchGuarantee]] = None
    cost_fn: Optional[Callable[[int, int, float, dict],
                               CostEstimate]] = None

    def guarantee(self, epsilon: float, max_weight: float,
                  k: Optional[int] = None) -> StretchGuarantee:
        """The stretch guarantee a fresh build with these parameters carries.

        ``k`` is the builder's ball-size / spanner parameter (``None``
        means the strategy default); only ``spanner-greedy`` reads it.
        """
        if self.guarantee_fn is None:
            raise ValueError(
                f"strategy {self.name!r} was registered without a guarantee_fn")
        return self.guarantee_fn(epsilon, max_weight, k)

    def _resolve(self, fn: Union[str, Callable]) -> Callable:
        """``fn`` itself, or the attribute its dotted path names (imported
        lazily)."""
        if callable(fn):
            return fn
        module_name, sep, attr = fn.partition(":")
        if not sep or not attr:
            raise ValueError(
                f"strategy {self.name!r} has malformed build_fn {fn!r} "
                f"(expected 'module:attr')")
        module = importlib.import_module(module_name)
        return getattr(module, attr)

    def resolve_build(self) -> BuildFn:
        """The build callable, importing a dotted-path ``build_fn`` lazily."""
        if self.build_fn is None:
            raise ValueError(
                f"strategy {self.name!r} was registered without a build_fn")
        return self._resolve(self.build_fn)

    def resolve_slab_build(self) -> Optional[Callable]:
        """The slab build callable, or ``None`` if the strategy has none."""
        if self.slab_build_fn is None:
            return None
        return self._resolve(self.slab_build_fn)

    def estimate(self, n: int, m: int, epsilon: float,
                 build: Optional[dict] = None) -> CostEstimate:
        """Size and query cost of the artifact for a graph with ``n`` nodes
        and ``m`` edges: a priori without ``build``, or of a built artifact
        given its ``build`` metadata."""
        if self.cost_fn is None:
            raise ValueError(
                f"strategy {self.name!r} was registered without a cost_fn")
        return self.cost_fn(int(n), int(m), float(epsilon), dict(build or {}))


class StrategyRegistry:
    """Mutable, ordered catalogue of oracle strategies.

    Registration order is preserved — it is the order the CLI lists
    strategies in.
    """

    def __init__(self):
        self._specs: Dict[str, StrategySpec] = {}

    def register(self, spec: StrategySpec, replace: bool = False) -> StrategySpec:
        """Add ``spec``; duplicate names raise unless ``replace=True``."""
        if spec.query_kind not in QUERY_KINDS:
            raise ValueError(
                f"strategy {spec.name!r} has unknown query_kind "
                f"{spec.query_kind!r}; expected one of {', '.join(QUERY_KINDS)}")
        if spec.name in self._specs and not replace:
            raise ValueError(
                f"oracle strategy {spec.name!r} is already registered "
                f"(pass replace=True to override)")
        self._specs[spec.name] = spec
        return spec

    def unregister(self, name: str) -> StrategySpec:
        """Remove and return a registered spec (unknown names raise)."""
        spec = self.get(name)
        del self._specs[name]
        return spec

    def get(self, name: str) -> StrategySpec:
        """Look up a spec; unknown names raise with suggestions + the catalogue."""
        spec = self._specs.get(name)
        if spec is None:
            known = ", ".join(self._specs) or "<none>"
            close = difflib.get_close_matches(str(name), list(self._specs), n=2)
            hint = ""
            if close:
                hint = " (did you mean " + " or ".join(
                    repr(match) for match in close) + "?)"
            raise ValueError(
                f"unknown oracle strategy {name!r}{hint}; "
                f"known strategies: {known}")
        return spec

    def names(self) -> Tuple[str, ...]:
        return tuple(self._specs)

    def specs(self) -> Tuple[StrategySpec, ...]:
        return tuple(self._specs.values())

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def __iter__(self):
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)


class _LiveStrategyNames(Sequence):
    """A read-only Sequence view over the registry's current names.

    Indexing, iteration, ``in`` and ``len`` all reflect the registry *at
    call time*, so a strategy registered after import shows up in CLI
    ``choices=STRATEGY_NAMES``, pytest parametrization, and error text
    without any re-import.
    """

    def __init__(self, registry: StrategyRegistry):
        self._registry = registry

    def __getitem__(self, index):
        return self._registry.names()[index]

    def __len__(self) -> int:
        return len(self._registry)

    def __iter__(self):
        return iter(self._registry.names())

    def __contains__(self, item: object) -> bool:
        return item in self._registry

    def __repr__(self) -> str:
        return repr(self._registry.names())


#: The process-wide strategy registry all lookups go through.
REGISTRY = StrategyRegistry()

#: Canonical strategy names, in registration order — a **live view** of
#: :data:`REGISTRY`, not a snapshot.
STRATEGY_NAMES: Sequence = _LiveStrategyNames(REGISTRY)


def register_strategy(spec: StrategySpec, replace: bool = False) -> StrategySpec:
    """Register ``spec`` on the process-wide registry (see StrategyRegistry)."""
    return REGISTRY.register(spec, replace=replace)


def get_strategy(name: str) -> StrategySpec:
    """Look up a strategy spec; raises ``ValueError`` with the known names."""
    return REGISTRY.get(name)


# ----------------------------------------------------------------------
# built-in strategy behaviours
# ----------------------------------------------------------------------
def sqrt_k(n: int) -> int:
    """The default ball size of every strategy and of the cost model:
    ceil(sqrt(n)), clamped to [2, n]."""
    return max(2, min(max(n, 1), math.ceil(math.sqrt(max(n, 1)))))


def _dense_guarantee(epsilon, max_weight, k):
    return StretchGuarantee(2.0 + epsilon, (1.0 + epsilon) * max_weight)


def _landmark_guarantee(epsilon, max_weight, k):
    # Far pairs: est <= (1+eps)(d(u,p(u)) + d(p(u),v)) <= 3(1+eps)d;
    # near pairs are exact, so 3(1+eps) dominates.
    return StretchGuarantee(3.0 * (1.0 + epsilon), 0.0)


def _exact_guarantee(epsilon, max_weight, k):
    return StretchGuarantee(1.0, 0.0)


def _spanner_guarantee(epsilon, max_weight, k):
    # Spanner distances are (2k-1)-stretched; the pivot argument over
    # spanner-metric balls adds a factor 3 (near pairs: exact spanner
    # distance <= (2k-1)d; far pairs: d_S(u,p(u)) <= d_S(u,v), so the
    # landmark route <= 3 d_S(u,v) <= 3(2k-1)d).  Known from k alone —
    # the planner selects on this before anything is built.
    k = 2 if k is None else int(k)
    return StretchGuarantee(3.0 * (2 * k - 1), 0.0)


def _hopset_guarantee(epsilon, max_weight, k):
    # The landmark table is exact (Bellman-Ford over G ∪ H to convergence;
    # hopset edges are real path lengths so d_{G∪H} = d_G), leaving only
    # the pivot factor: est <= d(u,p(u)) + d(p(u),v) <= 3 d(u,v).
    return StretchGuarantee(3.0, 0.0)


def _dense_costs(n, m, epsilon, build):
    return CostEstimate(float(n) * n, 0.0, 1.0)


def _landmark_costs(n, m, epsilon, build):
    # Both landmark strategies: hopset-landmark records the width of its
    # bunch balls as ``ball_width``, landmark-mssp packs exactly ``k``.
    k = int(build.get("ball_width") or build.get("k") or sqrt_k(n))
    landmarks = int(build.get("num_landmarks") or math.ceil(math.sqrt(max(n, 1))))
    payload_floats = 2.0 * n * k + 1.0 * n * landmarks
    return CostEstimate(payload_floats, float(landmarks), float(landmarks))


def _spanner_costs(n, m, epsilon, build):
    kb = int(build.get("ball_width") or sqrt_k(n))
    landmarks = int(build.get("num_landmarks") or math.ceil(math.sqrt(max(n, 1))))
    # CSR of the undirected spanner: both edge directions appear, plus the
    # (n + 1)-long indptr.  A priori the greedy spanner (default k = 2)
    # keeps at most n^{3/2} of the m edges; a build records its count.
    edges = int(build.get("spanner_edges")
                or min(float(m), float(max(n, 1)) ** 1.5) or 1)
    csr_floats = 2.0 * (2 * edges) + (n + 1)
    payload_floats = 2.0 * n * kb + 1.0 * n * landmarks + csr_floats
    common = float(landmarks) + csr_floats
    return CostEstimate(payload_floats, common, float(landmarks))


register_strategy(StrategySpec(
    name="dense-apsp",
    required_arrays=("dist",),
    summary="Theorem 28 (2+eps,(1+eps)W)-APSP, dense n x n estimate matrix",
    row_sharded_arrays=("dist",),
    query_kind="dense",
    build_fn="repro.oracle.build:build_dense_arrays",
    slab_build_fn="repro.oracle.parallel_build:closure_dense_arrays",
    guarantee_fn=_dense_guarantee,
    cost_fn=_dense_costs,
))

register_strategy(StrategySpec(
    name="landmark-mssp",
    required_arrays=("landmarks", "landmark_dist", "ball_idx", "ball_dist"),
    summary="hitting-set landmarks + (1+eps)-MSSP table + exact sqrt(n)-balls",
    row_sharded_arrays=("landmark_dist", "ball_idx", "ball_dist"),
    query_kind="landmark",
    build_fn="repro.oracle.build:build_landmark_arrays",
    slab_build_fn="repro.oracle.parallel_build:closure_landmark_arrays",
    guarantee_fn=_landmark_guarantee,
    cost_fn=_landmark_costs,
))

register_strategy(StrategySpec(
    name="exact-fallback",
    required_arrays=("dist",),
    summary="exact APSP via iterated dense min-plus squaring (baseline)",
    uses_epsilon=False,
    row_sharded_arrays=("dist",),
    query_kind="dense",
    build_fn="repro.oracle.build:build_exact_arrays",
    slab_build_fn="repro.oracle.parallel_build:closure_dense_arrays",
    guarantee_fn=_exact_guarantee,
    cost_fn=_dense_costs,
))

register_strategy(StrategySpec(
    name="spanner-greedy",
    required_arrays=("spanner_indptr", "spanner_indices", "spanner_weights",
                     "landmarks", "landmark_dist", "ball_idx", "ball_dist"),
    summary="greedy (2k-1)-spanner CSR + spanner-metric balls and landmarks",
    uses_epsilon=False,
    row_sharded_arrays=("landmark_dist", "ball_idx", "ball_dist"),
    query_kind="spanner",
    build_fn="repro.oracle.spanner:build_spanner_arrays",
    guarantee_fn=_spanner_guarantee,
    cost_fn=_spanner_costs,
))

register_strategy(StrategySpec(
    name="hopset-landmark",
    required_arrays=("landmarks", "landmark_dist", "ball_idx", "ball_dist"),
    summary="hopset-accelerated exact landmark table + bunch balls (3x)",
    uses_epsilon=False,
    row_sharded_arrays=("landmark_dist", "ball_idx", "ball_dist"),
    query_kind="landmark",
    build_fn="repro.oracle.hopset_landmark:build_hopset_landmark_arrays",
    guarantee_fn=_hopset_guarantee,
    cost_fn=_landmark_costs,
))
