"""The runtime half of fault injection: seeded dice at named sites.

One :class:`FaultInjector` lives in each process that opted into chaos
(workers build theirs in :func:`repro.net.worker.run_worker` from the
inherited ``REPRO_CHAOS`` environment).  Instrumented code asks
``injector.pick(site)`` at each wired site; the injector rolls the
site's deterministic dice against every in-scope spec, in plan order,
and returns the first spec that fires (or None).  What the fault *does*
is the call site's business — the injector only decides and counts.

Determinism: each ``(spec index, site, kind, worker id)`` stream gets
its own :class:`random.Random` seeded from a SHA-256 of those
coordinates plus the plan seed, so runs replay identically regardless
of scheduling interleavings between sites.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Optional

from repro.chaos.plan import CHAOS_ENV_VAR, FaultPlan, FaultSpec
from repro.obs.metrics import get_registry


def _derive_seed(plan_seed: int, index: int, spec: FaultSpec,
                 worker_id: Optional[int]) -> int:
    key = f"{plan_seed}:{index}:{spec.site}:{spec.kind}:{worker_id}"
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class FaultInjector:
    """Per-process fault decision engine for one :class:`FaultPlan`.

    Parameters
    ----------
    plan:
        The validated plan (disk-only faults are ignored here).
    worker_id:
        This process's worker id, or None for non-worker processes
        (worker-scoped specs then never fire).
    """

    def __init__(self, plan: FaultPlan, *, worker_id: Optional[int] = None):
        self.plan = plan
        self.worker_id = worker_id
        self._specs = plan.scoped(worker_id)
        self._rngs: List[random.Random] = []
        self._fired: List[int] = []
        self._counters = []
        registry = get_registry()
        for index, spec in enumerate(self._specs):
            self._rngs.append(
                random.Random(_derive_seed(plan.seed, index, spec, worker_id)))
            self._fired.append(0)
            self._counters.append(registry.counter(
                "repro_chaos_injections_total",
                "Faults injected by the chaos layer",
                labels={"site": spec.site, "kind": spec.kind}))
        self._by_site: Dict[str, List[int]] = {}
        for index, spec in enumerate(self._specs):
            self._by_site.setdefault(spec.site, []).append(index)

    def pick(self, site: str) -> Optional[FaultSpec]:
        """Roll the dice at ``site``; return the first spec that fires.

        Fired specs are counted both locally (:attr:`injected`) and in
        the process metrics registry, so every injected fault is
        attributable on ``/metricsz``.
        """
        indices = self._by_site.get(site)
        if not indices:
            return None
        for index in indices:
            spec = self._specs[index]
            if spec.limit is not None and self._fired[index] >= spec.limit:
                continue
            if (spec.probability >= 1.0
                    or self._rngs[index].random() < spec.probability):
                self._fired[index] += 1
                self._counters[index].inc()
                return spec
        return None

    @property
    def injected(self) -> int:
        """Total faults this injector has fired, across all specs."""
        return sum(self._fired)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FaultInjector(specs={len(self._specs)}, "
                f"worker_id={self.worker_id}, injected={self.injected})")


def injector_from_env(worker_id: Optional[int] = None,
                      environ=None) -> Optional[FaultInjector]:
    """Build this process's injector from ``REPRO_CHAOS``, if set.

    Returns None when the variable is unset or empty — the instrumented
    hot paths then pay only an ``is None`` check per wired site.  A
    malformed plan raises :class:`~repro.chaos.plan.PlanError`
    immediately (a typo'd plan must fail loudly at startup, not be
    silently ignored).
    """
    plan = FaultPlan.from_env(environ)
    if plan is None or not plan.scoped(worker_id):
        return None
    return FaultInjector(plan, worker_id=worker_id)


__all__ = ["CHAOS_ENV_VAR", "FaultInjector", "injector_from_env"]
