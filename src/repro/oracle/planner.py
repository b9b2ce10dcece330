"""Stretch-budget fleet planner: pick the cheapest strategy mix a-priori.

Operators rarely ask for "a landmark oracle"; they ask for *answers within
2.5x under 200 MB of RAM*.  This module turns that request into a build
plan **before any build runs**, using only the declarative metadata every
registered :class:`~repro.oracle.strategies.StrategySpec` carries:

* ``guarantee_fn`` says which strategies are *admissible* for each
  requested :class:`~repro.serve.router.StretchBudget` (same
  ``budget_admits`` predicate the router applies at serve time, so the
  planner can never promise an artifact the router would refuse);
* ``cost_fn`` prices each admissible strategy a priori (payload floats,
  resident common floats, query cost) so the planner can reject
  candidates that bust the latency or resident-memory limits, and
  :func:`~repro.oracle.strategies.cost_order` ranks the survivors — the
  order the router ranks the built artifacts by, so every artifact the
  planner builds is one the router serves;
* payload size against ``shard_target_bytes`` counts the row shards the
  artifact is written as (one below the target) — nothing else: the
  format, and with it the resident estimate, is the same at any count.

:func:`plan_fleet` produces a :class:`FleetPlan` — one
:class:`PlanChoice` per budget, deduplicated into a minimal build list.
:func:`execute_plan` runs those builds through the ordinary
:class:`~repro.oracle.build.OracleBuilder` (``jobs`` supported), registers
the artifacts, re-checks admissibility against the *actual* built
guarantees, and pins everything to a registry manifest that ``repro net
serve`` / ``repro loadgen`` boot unmodified.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.oracle.strategies import (
    CostEstimate,
    StrategyRegistry,
    StretchGuarantee,
    REGISTRY,
    cost_order,
)
from repro.serve.router import StretchBudget

__all__ = [
    "DEFAULT_SHARD_TARGET_BYTES",
    "FleetPlan",
    "PlanChoice",
    "PlanError",
    "parse_budget",
    "plan_fleet",
    "execute_plan",
]

#: Above this estimated payload size an artifact is split into several
#: shards of roughly this many bytes (4 MiB — small enough that a serving
#: worker's hot set is a handful of shards, large enough that shard-count
#: overhead stays trivial).
DEFAULT_SHARD_TARGET_BYTES = 4 * 1024 * 1024


class PlanError(ValueError):
    """No registered strategy can satisfy a requested budget."""


def parse_budget(text: str) -> StretchBudget:
    """Parse ``"mult"`` or ``"mult+add"`` into a :class:`StretchBudget`.

    ``"3"`` means stretch at most 3x with no additive slack;
    ``"2.5+13.5"`` additionally allows an absolute slack of 13.5;
    ``"inf"`` admits anything (the additive bound opens up too).
    """
    raw = text.strip()
    mult_text, sep, add_text = raw.partition("+")
    try:
        multiplicative = float(mult_text)
        if sep:
            additive = float(add_text)
        else:
            additive = math.inf if math.isinf(multiplicative) else 0.0
    except ValueError as exc:
        raise PlanError(
            f"unparseable stretch budget {text!r} (expected 'mult' or "
            f"'mult+add', e.g. '3' or '2.5+13.5')") from exc
    if multiplicative < 1.0:
        raise PlanError(
            f"stretch budget {text!r} has multiplicative < 1; estimates "
            f"can never undercut the true distance")
    if additive < 0.0:
        raise PlanError(f"stretch budget {text!r} has negative additive slack")
    return StretchBudget(multiplicative=multiplicative, additive=additive)


@dataclasses.dataclass(frozen=True)
class PlanChoice:
    """The planner's pick for one stretch budget."""

    budget: StretchBudget
    strategy: str
    guarantee: StretchGuarantee
    estimate: CostEstimate
    num_shards: int

    def describe(self) -> str:
        budget = f"<= {self.budget.multiplicative:g}x"
        if self.budget.additive not in (0.0, math.inf):
            budget += f"+{self.budget.additive:g}"
        guarantee = f"{self.guarantee.multiplicative:g}x"
        if self.guarantee.additive:
            guarantee += f"+{self.guarantee.additive:g}"
        shards = f"{self.num_shards} shard{'s' if self.num_shards > 1 else ''}"
        return (f"budget {budget}: {self.strategy} (guarantee {guarantee}, "
                f"~{self.estimate.payload_bytes / 1e6:.2f} MB, {shards}, "
                f"query cost {self.estimate.query_cost:g})")


@dataclasses.dataclass(frozen=True)
class FleetPlan:
    """One :class:`PlanChoice` per requested budget, plus the graph shape.

    ``builds()`` deduplicates the choices into the minimal list of
    ``(strategy, num_shards)`` builds — two budgets served by the same
    strategy share one artifact.
    """

    n: int
    m: int
    max_weight: float
    epsilon: float
    choices: Tuple[PlanChoice, ...]

    def builds(self) -> Tuple[Tuple[str, int], ...]:
        seen: Dict[Tuple[str, int], None] = {}
        for choice in self.choices:
            seen.setdefault((choice.strategy, choice.num_shards))
        return tuple(seen)

    def summary(self) -> str:
        lines = [
            f"fleet plan for n={self.n} m={self.m} "
            f"max_weight={self.max_weight:g} epsilon={self.epsilon:g}:"
        ]
        lines.extend("  " + choice.describe() for choice in self.choices)
        builds = ", ".join(
            f"{strategy}{'' if shards == 1 else f' x{shards} shards'}"
            for strategy, shards in self.builds())
        lines.append(f"  builds: {builds}")
        return "\n".join(lines)


def plan_fleet(
    graph=None,
    *,
    n: Optional[int] = None,
    m: Optional[int] = None,
    max_weight: Optional[float] = None,
    budgets: Sequence[StretchBudget],
    epsilon: float = 0.5,
    max_query_cost: float = math.inf,
    max_resident_floats: float = math.inf,
    shard_target_bytes: float = DEFAULT_SHARD_TARGET_BYTES,
    registry: StrategyRegistry = REGISTRY,
) -> FleetPlan:
    """Choose the cheapest admissible strategy for every budget.

    Pass either ``graph`` (shape is derived) or explicit ``n``/``m``/
    ``max_weight`` — the planner never needs edges, only the shape, so a
    fleet can be planned for a graph that does not exist yet.

    A strategy is *feasible* for a budget when its a-priori guarantee
    fits the budget, its estimated per-query work fits
    ``max_query_cost``, and its estimated resident set — the common
    arrays; the payload is mapped — fits ``max_resident_floats``.  Among
    feasible strategies the planner picks the first by
    :func:`~repro.oracle.strategies.cost_order` — smallest payload, then
    cheapest query, tightest guarantee, name — the order the router
    ranks the built artifacts by
    (:attr:`~repro.serve.registry.ArtifactEntry.cost`).  The two limits
    exist only here, at planning time: the router serves the first
    admissible artifact by that order and knows neither.  An
    unsatisfiable budget raises :class:`PlanError` naming every
    rejection reason.
    """
    if graph is not None:
        n = graph.n
        m = graph.num_edges()
        max_weight = graph.max_weight()
    if n is None or m is None or max_weight is None:
        raise PlanError(
            "plan_fleet needs either a graph or explicit n, m and max_weight")
    if not budgets:
        raise PlanError("plan_fleet needs at least one stretch budget")

    choices: List[PlanChoice] = []
    for budget in budgets:
        feasible: List[PlanChoice] = []
        rejections: List[str] = []
        for spec in registry.specs():
            guarantee = spec.guarantee(epsilon, max_weight)
            if not budget.admits(guarantee):
                rejections.append(
                    f"{spec.name}: guarantee {guarantee.multiplicative:g}x"
                    f"+{guarantee.additive:g} exceeds the budget")
                continue
            estimate = spec.estimate(n, m, epsilon)
            if estimate.query_cost > max_query_cost:
                rejections.append(
                    f"{spec.name}: query cost {estimate.query_cost:g} "
                    f"exceeds max_query_cost={max_query_cost:g}")
                continue
            if estimate.common_floats > max_resident_floats:
                rejections.append(
                    f"{spec.name}: resident set ~{estimate.common_floats:g} "
                    f"floats exceeds max_resident_floats="
                    f"{max_resident_floats:g}")
                continue
            num_shards = max(1, min(n, math.ceil(
                estimate.payload_bytes / shard_target_bytes)))
            feasible.append(PlanChoice(
                budget=budget, strategy=spec.name, guarantee=guarantee,
                estimate=estimate, num_shards=num_shards))
        if not feasible:
            detail = "; ".join(rejections) or "registry is empty"
            raise PlanError(
                f"no registered strategy satisfies budget "
                f"{budget.multiplicative:g}x+{budget.additive:g} "
                f"(n={n}, epsilon={epsilon:g}): {detail}")
        choices.append(min(feasible, key=lambda choice: cost_order(
            choice.estimate, choice.guarantee, choice.strategy)))

    return FleetPlan(n=int(n), m=int(m), max_weight=float(max_weight),
                     epsilon=float(epsilon), choices=tuple(choices))


@dataclasses.dataclass(frozen=True)
class FleetExecution:
    """The artifacts a plan produced, pinned to a bootable manifest."""

    plan: FleetPlan
    manifest_path: Path
    #: Artifact name per ``(strategy, num_shards)`` build.
    artifact_names: Dict[Tuple[str, int], str]

    def artifact_for(self, choice: PlanChoice) -> str:
        return self.artifact_names[(choice.strategy, choice.num_shards)]


def execute_plan(plan: FleetPlan, graph, out_dir,
                 jobs: Optional[int] = None) -> FleetExecution:
    """Build every artifact the plan calls for and pin a registry manifest.

    Builds run through the standard :class:`~repro.oracle.build.
    OracleBuilder` (parallel when ``jobs`` is given), so planner-built
    artifacts are byte-identical to hand-built ones.  After each build the
    *actual* artifact guarantee is re-checked against every budget that
    selected it — a defensive fence so an estimator bug can never ship an
    inadmissible artifact silently.  Returns a :class:`FleetExecution`
    whose ``manifest_path`` boots through ``build_registry`` / ``repro net
    serve`` unmodified.
    """
    from repro.oracle.build import OracleBuilder
    from repro.serve.registry import ArtifactRegistry

    if graph.n != plan.n:
        raise PlanError(
            f"plan was made for n={plan.n} but the graph has n={graph.n}")

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    registry = ArtifactRegistry()
    names: Dict[Tuple[str, int], str] = {}
    for strategy, num_shards in plan.builds():
        builder = OracleBuilder(strategy=strategy, epsilon=plan.epsilon,
                                jobs=jobs)
        _artifact, manifest_path, _shards = builder.build_sharded(
            graph, out_dir / strategy, num_shards)
        entry = registry.register(manifest_path, name=strategy)
        names[(strategy, num_shards)] = entry.name
        for choice in plan.choices:
            if choice.strategy != strategy:
                continue
            if not choice.budget.admits(entry.stretch):
                raise PlanError(
                    f"built artifact {entry.name!r} advertises "
                    f"{entry.stretch.multiplicative:g}x"
                    f"+{entry.stretch.additive:g}, which misses the budget "
                    f"{choice.budget.multiplicative:g}x that selected it "
                    f"(estimator drift — fix the strategy's guarantee_fn)")
    manifest_path = registry.write_manifest(out_dir / "fleet.json")
    return FleetExecution(plan=plan, manifest_path=manifest_path,
                          artifact_names=names)
