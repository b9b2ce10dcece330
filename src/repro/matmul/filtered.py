"""Theorem 14: sparse matrix multiplication with output sparsification.

Computes a ρ-*filtered* version of ``P = S · T``: every output row keeps only
its ρ smallest entries, and the round cost depends on ρ rather than on the
(possibly huge) true output density.  This is the workhorse behind the
k-nearest and source-detection distance tools of Section 3.

The algorithm (Section 2.2) is the Theorem 8 algorithm with an extra
filtering stage between the per-subcube products and the summation: for each
of the ``c`` layer matrices ``P_k`` and each of its rows, the nodes holding
pieces of that row run a distributed binary search over the value universe
``R'`` to find the ρ-th smallest entry (the *cutoff*), discard everything
above it, and only then balance and sum.  The binary search costs
``O(log |R'|)`` rounds; for integer weights bounded by ``poly(n)`` this is
``O(log n)``.  It is implemented as exactly that: one call of
:func:`repro.matmul.output_sensitive.run_schedule` with the filter stage on.
"""

from __future__ import annotations

from typing import Optional

from repro.cclique.accounting import Clique
from repro.matmul.matrix import SemiringMatrix
from repro.matmul.output_sensitive import load_source, run_schedule
from repro.matmul.results import MatMulResult


def filtered_mm(
    S: SemiringMatrix,
    T: SemiringMatrix,
    rho: int,
    weight_universe_size: Optional[int] = None,
    clique: Optional[Clique] = None,
    label: str = "theorem14-mm",
    execution: str = "faithful",
    kernel: Optional[str] = None,
) -> MatMulResult:
    """Compute a ρ-filtered product of ``S`` and ``T`` (Theorem 14).

    Parameters
    ----------
    S, T:
        Input matrices over an *ordered* semiring (addition must be min).
    rho:
        Output density: each output row keeps its ``rho`` smallest entries.
    weight_universe_size:
        Size ``W`` of the set of semiring values that can appear during the
        computation; the filtering binary search costs ``ceil(log2 W)``
        rounds.  Defaults to ``n^3`` (integer weights bounded by ``n^2``
        composed over two hops), giving the paper's ``O(log n)`` bound.
    clique:
        Accounting context; a fresh one is created if omitted.
    execution:
        ``"faithful"`` (full Lemma 9-16 schedule) or ``"fast"`` (same round
        charges from measured densities, product computed with the fast
        local kernels); see :func:`repro.matmul.output_sensitive_mm`.
    kernel:
        Pin the local-product kernel (``"dict"``/``"csr"``/``"dense"``);
        ``None`` lets the cost model choose.  Never affects the result.
    """
    S._check_compatible(T)
    if not S.semiring.is_ordered():
        raise TypeError("filtered multiplication requires an ordered semiring")
    if rho <= 0:
        raise ValueError("rho must be positive")
    loads = load_source(execution)

    clique = clique or Clique(S.n)
    if weight_universe_size is None:
        weight_universe_size = max(2, S.n ** 3)
    start_rounds = clique.rounds
    with clique.phase(label):
        product, params = run_schedule(
            S, T, min(rho, S.n), clique, loads, kernel, weight_universe_size)
    return MatMulResult(product, clique.rounds - start_rounds, clique, params)
