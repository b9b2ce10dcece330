"""Theorem 8: output-sensitive sparse matrix multiplication — and the one
schedule behind every round-charged product.

Computes ``P = S · T`` over a semiring in
``O((ρ_S ρ_T ρ̂_{ST})^{1/3} / n^{2/3} + 1)`` rounds, where ρ̂_{ST} is the
density of the cancellation-free product pattern.  The algorithm follows the
four steps of Section 2.1:

1. cube partitioning (Lemma 9),
2. per-subcube intermediate products (Lemma 11),
3. balancing of the intermediate products (Lemma 12),
4. balanced summation into the output rows (Lemma 13).

When ρ̂_{ST} is not known in advance the doubling variant described after
Theorem 8 is used: the algorithm restarts with a doubled estimate whenever
the produced output exceeds the current one, at a multiplicative
``O(log n)`` cost.

:func:`run_schedule` is the only place these steps are charged.  Theorem 14
(:mod:`repro.matmul.filtered`) is the same call with the Section 2.2 filter
stage switched on, the CLT18 baseline the same call with ``ρ̂ = n``, and the
two execution modes are two *load sources* that hand the schedule the same
:class:`ScheduleLoads` record: ``"faithful"`` measures the loads on the
Lemma 9 partition, ``"fast"`` derives them from the operands' densities.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.cclique.accounting import Clique
from repro.matmul.balancing import (
    assign_subcubes_to_nodes,
    charge_cube_partition,
    charge_duplication,
    charge_input_delivery,
    charge_summation,
    subcube_loads,
)
from repro.matmul.csr import _assemble, csr_subcube_products
from repro.matmul.kernels import DISPATCH, _dict_submatrix_product, local_product
from repro.matmul.matrix import SemiringMatrix, min_per_position, smallest_per_row, to_csr
from repro.matmul.partition import CubePartition, compute_split_parameters, cube_partition
from repro.matmul.results import MatMulResult


def output_sensitive_mm(
    S: SemiringMatrix,
    T: SemiringMatrix,
    rho_hat: Optional[int] = None,
    clique: Optional[Clique] = None,
    label: str = "theorem8-mm",
    execution: str = "faithful",
    kernel: Optional[str] = None,
) -> MatMulResult:
    """Multiply ``S · T`` with output-sensitive round cost (Theorem 8).

    Parameters
    ----------
    S, T:
        Input matrices over the same semiring.
    rho_hat:
        The output density ρ̂_{ST} if known beforehand (the paper notes all
        its applications know it).  If ``None`` the doubling variant is used.
    clique:
        Accounting context; a fresh one is created if omitted.
    label:
        Phase label under which rounds are charged.
    execution:
        ``"faithful"`` runs the full Lemma 9-13 schedule (cube partition,
        per-subcube products, balancing) and charges the loads it actually
        produces; ``"fast"`` computes the same product with the fast local
        kernels and charges the same formulas from the matrices' measured
        densities.  The two modes charge rounds within a small constant of
        each other (asserted in tests); the distance tools use ``"fast"`` so
        that the polylogarithmic algorithms, which perform hundreds of
        products, stay tractable in wall-clock time.
    kernel:
        Pin the local-product kernel (``"dict"``/``"csr"``/``"dense"``);
        ``None`` lets the cost model choose.  Never affects the result.
    """
    S._check_compatible(T)
    clique = clique or Clique(S.n)
    loads = load_source(execution)

    start_rounds = clique.rounds
    with clique.phase(label):
        if rho_hat is not None:
            product, params = run_schedule(S, T, max(1, rho_hat), clique, loads, kernel)
        else:
            # Doubling variant: restart with doubled estimate until the real
            # output density fits.  Each failed attempt still pays its rounds.
            estimate = 2
            while True:
                product, params = run_schedule(S, T, estimate, clique, loads, kernel)
                params["doubling_estimate"] = estimate
                if product.density() <= estimate or estimate >= S.n:
                    break
                estimate = min(S.n, estimate * 2)
    return MatMulResult(product, clique.rounds - start_rounds, clique, params)


class ScheduleLoads(NamedTuple):
    """What a load source hands :func:`run_schedule` for one pass."""

    #: The ``a``/``b`` split Lemma 9 is charged with and ``params`` reports.
    a: int
    b: int
    #: Input sizes of the work units and the units each node receives.
    s_loads: List[int]
    t_loads: List[int]
    node_assignment: List[List[int]]
    #: Intermediate values each node holds before Lemma 12, and how many
    #: go into the Lemma 13 summation.
    node_sizes: List[int]
    total: int
    product: SemiringMatrix
    #: Source-specific ``params`` entries.
    params: Dict[str, Any]


LoadSource = Callable[..., ScheduleLoads]


def run_schedule(
    S: SemiringMatrix,
    T: SemiringMatrix,
    rho: int,
    clique: Clique,
    loads: LoadSource,
    kernel: Optional[str] = None,
    weight_universe_size: Optional[int] = None,
) -> Tuple[SemiringMatrix, Dict[str, Any]]:
    """One pass of the Section 2.1 schedule with output-density estimate ``rho``.

    ``weight_universe_size`` switches the Section 2.2 filter stage on: the
    product keeps the ``rho`` smallest entries of each row (Theorem 14's
    estimate *is* its output density) and the cutoff search over a universe
    of that size is charged between the products and the balancing.
    """
    n = S.n
    words = S.semiring.words_per_element()
    filtering = weight_universe_size is not None
    rho_s = S.density()
    rho_t = T.density()
    a, b, c = compute_split_parameters(n, rho_s, rho_t, rho)
    load = loads(S, T, a, b, c, rho, rho if filtering else None, kernel)

    # Step 1: cube partitioning (Lemma 9) -- O(1) rounds.
    charge_cube_partition(clique, load.a, load.b)
    # Step 2: input balancing and delivery (Lemmas 10-11).
    charge_input_delivery(clique, load.s_loads, load.t_loads, load.node_assignment, words)
    if filtering:
        # Per-layer, per-row distributed binary search for the cutoff
        # (Lemma 15) -- O(log W) rounds, all searches run in parallel.
        search_rounds = max(1, math.ceil(math.log2(weight_universe_size)))
        clique.charge_rounds_formula(search_rounds, label="filter-binary-search")
        clique.charge_broadcast(label="filter-cutoff-fanout")
    # Step 3: balancing the intermediate products (Lemma 12 / Lemma 16).
    charge_duplication(clique, load.node_sizes, max(1, rho * c), words)
    # Step 4: balanced summation (Lemma 13).
    charge_summation(clique, load.total, words)

    params = {
        "rho_s": rho_s,
        "rho_t": rho_t,
        "rho" if filtering else "rho_hat": rho,
        "a": load.a,
        "b": load.b,
        "c": c,
        **load.params,
    }
    if filtering:
        params["weight_universe_size"] = weight_universe_size
    params["predicted_rounds"] = (rho_s * rho_t * rho) ** (1 / 3) / n ** (2 / 3) + (
        math.log2(weight_universe_size) if filtering else 1
    )
    return load.product, params


# ----------------------------------------------------------------------
# the two load sources
# ----------------------------------------------------------------------
def uniform_loads(
    S: SemiringMatrix, T: SemiringMatrix, a: int, b: int, c: int,
    rho: int, keep: Optional[int], kernel: Optional[str],
) -> ScheduleLoads:
    """``execution="fast"``: loads from measured densities, product from the
    local kernels.

    Every non-zero of S is needed by the ``a`` column blocks, every non-zero
    of T by the ``b`` row blocks, and Lemma 9 balances both evenly over the
    ``n`` nodes.  No partition is built, so Lemma 9 is charged with the
    *computed* ``a``/``b``, and ``params`` says ``"execution": "fast"``
    (the measured source adds no such key: it is the default).
    """
    n = S.n
    product = local_product(S, T, keep=keep, kernel=kernel)
    # Each output position is split over the c middle blocks, and after
    # Lemma 12 (Lemma 15's cutoff, when filtering) a node holds at most
    # rho * c of the intermediate values.
    total = min(product.nnz() * c, rho * n * c)
    return ScheduleLoads(
        a, b,
        [math.ceil(S.nnz() * a / n)] * n,
        [math.ceil(T.nnz() * b / n)] * n,
        [[v] for v in range(n)],
        [math.ceil(total / n)] * n,
        total,
        product,
        {"execution": "fast"},
    )


def measured_loads(
    S: SemiringMatrix, T: SemiringMatrix, a: int, b: int, c: int,
    rho: int, keep: Optional[int], kernel: Optional[str],
) -> ScheduleLoads:
    """``execution="faithful"``: build the Lemma 9 partition and measure.

    Input loads are the exact non-zero counts of every subcube's
    submatrices, intermediate sizes are those of the subcube products the
    nodes really compute, and the product is their union.  Lemma 5 may form
    fewer blocks than asked, so Lemma 9 is charged with the partition's
    *post-clamp* ``a``/``b``.  The products are evaluated on the encoded
    arrays unless the dispatcher picks the dictionary reference (a semiring
    the arrays cannot encode, a ``"dict"`` pin, or operands so small that
    the whole product is cheaper in dictionaries).
    """
    n = S.n
    partition = cube_partition(S, T, a, b, c)
    s_loads, t_loads = subcube_loads(S, T, partition)
    choice = DISPATCH.select(S, T, kernel, allowed=("dict", "csr"))
    evaluate = _dict_intermediates if choice == "dict" else _array_intermediates
    sizes, surviving, product = evaluate(S, T, partition, keep)
    # ``sizes`` sums, per node, the sizes of its subcube products.  Lemma 12
    # speaks of the node's *merged* product (distinct (i, j) per node) and
    # Lemma 16 of the raw sum, but here the two coincide: subcubes that can
    # share an output position differ only in their middle block, and
    # round-robin puts those c <= n consecutive subcubes on c different nodes.
    if keep is None:
        # Theorem 8 (Lemmas 12-13): everything computed is balanced and
        # summed.  Only here does ``params`` report the number of subcubes.
        total = sum(sizes)
        extra = {"subcubes": len(s_loads)}
    else:
        # Theorem 14 (Lemmas 15-16): only the entries below the per-layer
        # cutoffs survive to be balanced and summed, spread evenly up to
        # the rho entries a node may hold of one row.
        total = surviving
        sizes = [min(raw, math.ceil(total / n) + keep) for raw in sizes]
        extra = {}
    return ScheduleLoads(
        partition.a, partition.b, s_loads, t_loads,
        assign_subcubes_to_nodes(len(s_loads), n), sizes, total, product, extra,
    )


def _array_intermediates(
    S: SemiringMatrix, T: SemiringMatrix, partition: CubePartition, keep: Optional[int]
) -> Tuple[List[int], int, SemiringMatrix]:
    """The subcube products on the encoded arrays: per-node sizes, entries
    surviving the per-layer cutoffs (all, without ``keep``), and the
    array-resident product.  Row blocks are disjoint in the output rows, so
    every count adds up and every filter is local to a block."""
    n = S.n
    row_block, col_block, mid_block = partition.labels
    sizes = np.zeros(n, dtype=np.int64)
    surviving = 0
    blocks = []
    for layers, rows, cols, vals in csr_subcube_products(
            S, T, row_block, col_block, mid_block):
        # Round-robin owner of the subcube each intermediate value is in.
        nodes = ((row_block[rows] * partition.a + col_block[cols]) * partition.c
                 + layers) % n
        sizes += np.bincount(nodes, minlength=n)
        if keep is not None:
            chosen = smallest_per_row(layers * n + rows, vals, keep)
            rows, cols, vals = rows[chosen], cols[chosen], vals[chosen]
        surviving += rows.size
        rows, cols, vals = min_per_position(rows, cols, vals, n)
        if keep is not None:
            chosen = smallest_per_row(rows, vals, keep)
            rows, cols, vals = rows[chosen], cols[chosen], vals[chosen]
        blocks.append((rows, cols, vals))
    return sizes.tolist(), surviving, _assemble(to_csr(S), blocks)


def _dict_intermediates(
    S: SemiringMatrix, T: SemiringMatrix, partition: CubePartition, keep: Optional[int]
) -> Tuple[List[int], int, SemiringMatrix]:
    """:func:`_array_intermediates` over dictionaries, for any semiring."""
    n = S.n
    # The c "layer" matrices P_k (Figure 2): layer k collects the subcube
    # products with middle index k.
    layers = [SemiringMatrix(n, S.semiring) for _ in range(partition.c)]
    sizes = [0] * n
    for index, (_, _, k, rows, mids, cols) in enumerate(partition.subcubes()):
        partial = _dict_submatrix_product(S, T, rows, mids, cols)
        sizes[index % n] += len(partial)  # round-robin owner
        for (i, j), value in partial.items():
            layers[k].add_entry(i, j, value)
    if keep is not None:
        layers = [layer.filter_rows(keep) for layer in layers]
    product = SemiringMatrix(n, S.semiring)
    for layer in layers:
        product = product.elementwise_add(layer)
    if keep is not None:
        product = product.filter_rows(keep)
    return sizes, sum(layer.nnz() for layer in layers), product


_LOAD_SOURCES: Dict[str, LoadSource] = {"faithful": measured_loads, "fast": uniform_loads}


def load_source(execution: str) -> LoadSource:
    """The load source of an ``execution`` mode."""
    if execution not in _LOAD_SOURCES:
        raise ValueError(f"unknown execution mode: {execution!r}")
    return _LOAD_SOURCES[execution]
