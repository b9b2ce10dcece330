"""Round accounting for Congested Clique algorithms.

The algorithm layer of this library computes *what* each node would compute
locally using ordinary Python/numpy code, but charges *every* communication
step through a :class:`Clique` object.  The charge for each step is a pure
function of the per-node message loads of that step and of the O(1)-round
primitives (routing, sorting, broadcast) the paper builds on — i.e. exactly
the quantity the paper's theorems bound.

A :class:`Clique` keeps a labelled breakdown of where rounds were spent,
which the benchmark harness prints next to the corresponding theoretical
bound.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cclique.spec import DEFAULT_SPEC, ModelSpec


class RoundBreakdown:
    """Labelled breakdown of rounds charged to a :class:`Clique`.

    Charges are summed per label as they arrive: a polylogarithmic algorithm
    charges the same few dozen labels thousands of times, and a result that
    keeps its clique should not keep one record per charge.
    """

    def __init__(self) -> None:
        self._by_label: Dict[str, float] = {}
        self._total = 0.0

    def add(self, label: str, rounds: float) -> None:
        self._by_label[label] = self._by_label.get(label, 0.0) + rounds
        self._total += rounds

    @property
    def entries(self) -> List[Tuple[str, float]]:
        """``(label, rounds)`` per label, in order of first charge."""
        return list(self._by_label.items())

    def by_label(self) -> Dict[str, float]:
        """Aggregate rounds per label."""
        return dict(self._by_label)

    def total(self) -> float:
        return self._total

    def formatted(self) -> str:
        """Human-readable multi-line summary (used by examples/benchmarks)."""
        lines = []
        for label, rounds in sorted(self.by_label().items(), key=lambda x: -x[1]):
            lines.append(f"  {label:<40s} {rounds:10.1f}")
        lines.append(f"  {'TOTAL':<40s} {self.total():10.1f}")
        return "\n".join(lines)


class Clique:
    """Round-accounting context for an ``n``-node Congested Clique.

    Parameters
    ----------
    n:
        Number of nodes (and machines).
    spec:
        Cost-model constants; see :class:`repro.cclique.spec.ModelSpec`.

    Notes
    -----
    All ``charge_*`` methods return the number of rounds charged so callers
    can log or assert on individual steps.
    """

    def __init__(self, n: int, spec: ModelSpec = DEFAULT_SPEC):
        if n <= 0:
            raise ValueError(f"clique must have at least one node, got {n}")
        self.n = int(n)
        self.spec = spec
        self.breakdown = RoundBreakdown()
        self.messages_sent = 0
        self._label_stack: List[str] = []

    # ------------------------------------------------------------------
    # labels
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def phase(self, label: str) -> Iterator[None]:
        """Context manager scoping charges under ``label`` (nestable)."""
        self._label_stack.append(label)
        try:
            yield
        finally:
            self._label_stack.pop()

    def _full_label(self, label: Optional[str]) -> str:
        parts = list(self._label_stack)
        if label:
            parts.append(label)
        return "/".join(parts) if parts else "unlabelled"

    # ------------------------------------------------------------------
    # charging
    # ------------------------------------------------------------------
    @property
    def rounds(self) -> float:
        """Total rounds charged so far."""
        return self.breakdown.total()

    def charge(self, rounds: float, label: Optional[str] = None) -> float:
        """Charge a raw number of rounds."""
        if rounds < 0:
            raise ValueError(f"cannot charge negative rounds: {rounds}")
        if rounds > 0:
            self.breakdown.add(self._full_label(label), float(rounds))
        return float(rounds)

    def charge_broadcast(self, words: int = 1, label: Optional[str] = None) -> float:
        """Every node broadcasts ``words`` words to all other nodes."""
        rounds = self.spec.broadcast_rounds(words)
        self.messages_sent += self.n * (self.n - 1) * max(1, words)
        return self.charge(rounds, label or "broadcast")

    def charge_routing(
        self,
        max_send: int,
        max_recv: int,
        words_per_message: int = 1,
        total_messages: Optional[int] = None,
        label: Optional[str] = None,
    ) -> float:
        """Charge a routing step (Lenzen routing).

        ``max_send`` / ``max_recv`` are the worst per-node loads of the step;
        the primitive delivers them in ``O(ceil(load / n))`` rounds.
        """
        rounds = self.spec.routing_rounds(max_send, max_recv, self.n, words_per_message)
        if total_messages is not None:
            self.messages_sent += total_messages * max(1, words_per_message)
        else:
            self.messages_sent += max(max_send, max_recv) * max(1, words_per_message)
        return self.charge(rounds, label or "routing")

    def charge_sorting(
        self,
        max_items_per_node: int,
        words_per_item: int = 1,
        label: Optional[str] = None,
    ) -> float:
        """Charge a distributed sorting step (Lenzen sorting)."""
        rounds = self.spec.sorting_rounds(max_items_per_node, self.n, words_per_item)
        self.messages_sent += max_items_per_node * self.n
        return self.charge(rounds, label or "sorting")

    def charge_hitting_set(self, label: Optional[str] = None) -> float:
        """Charge the deterministic hitting-set construction of Lemma 4."""
        rounds = self.spec.hitting_set_rounds(self.n)
        return self.charge(rounds, label or "hitting-set")

    def charge_rounds_formula(
        self, rounds: float, label: Optional[str] = None
    ) -> float:
        """Charge rounds computed by a caller-side formula.

        Used for steps whose cost the paper states directly (for example the
        ``O(log W)`` binary-search filtering rounds of Theorem 14, where each
        search iteration is one broadcast-and-reply exchange inside a group).
        """
        return self.charge(max(0.0, rounds), label)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self) -> str:
        """Return a formatted report of all charges."""
        header = f"Congested Clique with n={self.n}: {self.rounds:.1f} rounds\n"
        return header + self.breakdown.formatted()

    def merge_from(self, other: "Clique", label: Optional[str] = None) -> None:
        """Fold the charges of another clique context into this one.

        Useful when a sub-computation was run with its own context (for
        example a recursive call on an induced subgraph).
        """
        prefix = self._full_label(label)
        for sub_label, rounds in other.breakdown.entries:
            combined = f"{prefix}/{sub_label}" if prefix != "unlabelled" else sub_label
            self.breakdown.add(combined, rounds)
        self.messages_sent += other.messages_sent

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Clique(n={self.n}, rounds={self.rounds:.1f})"
