"""Stretch-budget routing across a registry of oracle artifacts.

Spanner theory (Parter–Yogev and the Section 6 oracles of the source
paper) makes the stretch/size trade-off explicit: looser stretch buys a
smaller structure.  :class:`StretchRouter` operationalises that trade-off
at serving time.  A fleet keeps several artifacts — e.g. an exact
``exact-fallback`` matrix, a ``dense-apsp`` (2+ε, (1+ε)W) matrix, and a
compact ``landmark-mssp`` 3(1+ε) oracle — and every request carries a
*stretch budget*: the loosest guarantee the caller will accept.  The
router then serves the request from the **cheapest admissible artifact**:

1. admissible = every registered artifact whose advertised guarantee is
   at least as tight as the budget (multiplicative AND additive);
2. pick the first admissible artifact by
   :func:`~repro.oracle.strategies.cost_order` — payload floats, then
   per-query work, then tightest guarantee, then name
   (:attr:`~repro.serve.registry.ArtifactEntry.cost`), the order the
   planner picks by, applied to what was built — and let the registry
   open it lazily (an open is an ``mmap``, so whether an artifact
   already has an engine does not enter the choice);
3. if *nothing* is admissible, raise :class:`RoutingError` naming every
   registered guarantee.

A front tier may instead *pin* the artifact it already chose, so every
worker answers from the same table; :meth:`StretchRouter.resolve` is the
one place a pinned name is checked against the request's budget.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional

from repro.obs.metrics import get_registry
from repro.oracle.engine import QueryEngine
from repro.oracle.strategies import StretchGuarantee
from repro.serve.registry import ArtifactEntry, ArtifactRegistry

#: Tolerance for float comparisons of stretch factors.
_EPS = 1e-12


class RoutingError(LookupError):
    """No registered artifact satisfies the request's stretch budget."""


def budget_admits(guarantee: StretchGuarantee, multiplicative: float,
                  additive: float) -> bool:
    """Whether ``guarantee`` is at least as tight as the budget.

    The single definition of admissibility — :class:`StretchBudget` and
    the server's single-engine adapter both defer here, so tolerance and
    comparison semantics cannot drift between them.
    """
    return (guarantee.multiplicative <= multiplicative + _EPS
            and guarantee.additive <= additive + _EPS)


@dataclasses.dataclass(frozen=True)
class StretchBudget:
    """The loosest guarantee a request accepts.

    An artifact with guarantee ``g`` is admissible iff
    ``g.multiplicative <= multiplicative`` and ``g.additive <= additive``.
    The default budget admits everything.
    """

    multiplicative: float = math.inf
    additive: float = math.inf

    def admits(self, guarantee: StretchGuarantee) -> bool:
        return budget_admits(guarantee, self.multiplicative, self.additive)


@dataclasses.dataclass(frozen=True)
class RouteDecision:
    """Where one request was routed and why."""

    name: str
    entry: ArtifactEntry

    @property
    def n(self) -> int:
        return self.entry.n

    @property
    def stretch(self) -> StretchGuarantee:
        return self.entry.stretch


class StretchRouter:
    """Pick the cheapest admissible artifact of ``registry`` for each request."""

    def __init__(self, registry: ArtifactRegistry):
        self.registry = registry
        #: Requests routed per artifact name, and requests no artifact
        #: admitted: ``repro_router_routes_total{artifact=…}`` and
        #: ``repro_router_rejected_total`` on the obs registry.
        self.routes: Dict[str, int] = {}
        self.rejected = 0
        get_registry().counter(
            "repro_router_rejected_total",
            "Requests whose stretch budget no artifact admits",
        ).set_function(lambda r: r.rejected, self)
        # Per-budget decision memo, invalidated whenever the registry's
        # catalogue changes (its epoch moves) — routing on the server's
        # hot path must not re-sort per request.
        self._memo: Dict[tuple, RouteDecision] = {}
        self._memo_epoch = registry.epoch

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def admissible(self, budget: StretchBudget) -> List[ArtifactEntry]:
        """Admissible entries for ``budget``, cheapest first."""
        entries = [entry for entry in self.registry.entries()
                   if budget.admits(entry.stretch)]
        return sorted(entries, key=lambda entry: entry.cost)

    def route(self, multiplicative: float = math.inf,
              additive: float = math.inf) -> RouteDecision:
        """Route one request; raises :class:`RoutingError` on no match."""
        if self._memo_epoch != self.registry.epoch:
            self._memo.clear()
            self._memo_epoch = self.registry.epoch
        memo_key = (multiplicative, additive)
        memoized = self._memo.get(memo_key)
        if memoized is not None:
            self.routes[memoized.name] += 1
            return memoized
        budget = StretchBudget(multiplicative, additive)
        candidates = self.admissible(budget)
        if not candidates:
            self.rejected += 1
            guarantees = ", ".join(
                f"{entry.name}={entry.stretch.multiplicative:g}x"
                + (f"+{entry.stretch.additive:g}" if entry.stretch.additive else "")
                for entry in self.registry.entries()
            ) or "<empty registry>"
            raise RoutingError(
                f"no artifact satisfies stretch budget "
                f"{multiplicative:g}x+{additive:g}; available: {guarantees}"
            )
        chosen = candidates[0]
        if chosen.name not in self.routes:
            # The artifact's series child is created on its first route,
            # so the memoized hot path above is one dict increment.
            self.routes[chosen.name] = 0
            get_registry().counter(
                "repro_router_routes_total", "Requests routed, per artifact",
                labels={"artifact": chosen.name},
            ).set_function(lambda r, _name=chosen.name: r.routes[_name], self)
        self.routes[chosen.name] += 1
        decision = RouteDecision(name=chosen.name, entry=chosen)
        self._memo[memo_key] = decision
        return decision

    def resolve(self, multiplicative: float = math.inf,
                additive: float = math.inf,
                artifact: Optional[str] = None) -> ArtifactEntry:
        """The entry a request is answered from.

        A pinned ``artifact`` name is looked up and still held to the
        budget; without one (``None`` or ``""``) the budget is routed.
        """
        if not artifact:
            return self.route(multiplicative, additive).entry
        entry = self.entry(artifact)
        if not budget_admits(entry.stretch, multiplicative, additive):
            raise RoutingError(
                f"pinned artifact {artifact!r} guarantees "
                f"{entry.stretch.multiplicative:g}x+"
                f"{entry.stretch.additive:g}, exceeding the stretch "
                f"budget {multiplicative:g}x+{additive:g}")
        return entry

    # ------------------------------------------------------------------
    # engine access (the server's view of the registry)
    # ------------------------------------------------------------------
    def engine(self, name: str) -> QueryEngine:
        return self.registry.engine(name)

    def entry(self, name: str) -> ArtifactEntry:
        """Registry entry for ``name`` (raises ``RegistryError`` if unknown)."""
        return self.registry.get(name)
