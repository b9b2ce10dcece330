"""Load balancing steps of the sparse matrix multiplication (Lemmas 10-13).

These helpers compute, from the cube partition and the actual per-subcube
work, the message loads of the three communication-heavy steps of the
Theorem 8 / Theorem 14 algorithms, and charge them to the accounting
context:

* delivering the input submatrices to the nodes responsible for each subcube
  (Lemma 10 balancing + Lemma 11 delivery),
* duplicating over-full intermediate products (Lemma 12), and
* the balanced summation of intermediate values (Lemma 13).

The charges are pure functions of the per-node loads, which we compute
exactly from the partition rather than approximating with the asymptotic
bounds, so measured rounds reflect what the schedule would really cost.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.cclique.accounting import Clique
from repro.matmul.partition import CubePartition, block_weights
from repro.matmul.matrix import SemiringMatrix


def subcube_loads(
    S: SemiringMatrix, T: SemiringMatrix, partition: CubePartition
) -> Tuple[List[int], List[int]]:
    """Per-subcube input sizes: non-zeros of ``S[rows, mids]`` and ``T[mids, cols]``.

    Returned in the order of :meth:`CubePartition.subcubes`.  Subcube
    ``(i, j, k)`` reads the block-``i`` column weights of ``S`` (block-``j``
    row weights of ``T``) over its middle block, so both are one weighted
    count over the subcube index of every ``(i, j, middle index)``.
    """
    mid_block = partition.labels[2]
    b, a, n = mid_block.shape
    s_weights, t_weights = block_weights(S, T, partition.row_sets, partition.col_sets)
    index = (np.arange(b * a).reshape(b, a, 1) * partition.c + mid_block).ravel()
    count = b * a * partition.c
    s_loads = np.bincount(
        index, np.broadcast_to(s_weights[:, None, :], (b, a, n)).ravel(), count)
    t_loads = np.bincount(
        index, np.broadcast_to(t_weights[None, :, :], (b, a, n)).ravel(), count)
    return s_loads.astype(np.int64).tolist(), t_loads.astype(np.int64).tolist()


def assign_subcubes_to_nodes(num_subcubes: int, n: int) -> List[List[int]]:
    """Round-robin assignment of subcube indices to the ``n`` nodes."""
    assignment: List[List[int]] = [[] for _ in range(n)]
    for index in range(num_subcubes):
        assignment[index % n].append(index)
    return assignment


def charge_input_delivery(
    clique: Clique,
    s_loads: Sequence[int],
    t_loads: Sequence[int],
    node_assignment: Sequence[Sequence[int]],
    words_per_element: int,
    label: str = "input-delivery",
) -> float:
    """Charge Lemma 10 + Lemma 11: balance input entries, then deliver them.

    The balancing step is a constant number of sorting/routing rounds on at
    most ``n`` entries per node; the delivery step routes to every node the
    submatrices of its assigned subcubes, whose sizes we know exactly.
    """
    n = clique.n
    rounds = 0.0
    # Lemma 10: distribute weights, sort entries, redistribute -- constant
    # rounds on loads of at most n entries per node.
    rounds += clique.charge_broadcast(label=f"{label}/weights")
    rounds += clique.charge_sorting(n, words_per_item=words_per_element, label=f"{label}/balance-sort")
    rounds += clique.charge_routing(n, n, words_per_element, label=f"{label}/balance-route")

    # Lemma 11: every node receives the submatrices of its assigned subcubes.
    max_recv = 0
    for node, assigned in enumerate(node_assignment):
        recv = sum(s_loads[i] + t_loads[i] for i in assigned)
        max_recv = max(max_recv, recv)
    # Senders hold balanced shares of the duplicated entries, so the send
    # load matches the receive load up to the balancing guarantee.
    total = sum(s_loads) + sum(t_loads)
    max_send = max(max_recv, math.ceil(total / n)) if total else 0
    rounds += clique.charge_routing(
        max_send, max_recv, words_per_element, total_messages=total, label=f"{label}/deliver"
    )
    return rounds


def charge_duplication(
    clique: Clique,
    product_sizes: Sequence[int],
    target_per_node: int,
    words_per_element: int,
    label: str = "duplication",
) -> float:
    """Charge Lemma 12: duplicate over-full intermediate products.

    ``product_sizes[v]`` is the number of intermediate values node ``v``
    produced; nodes whose product exceeds ``target_per_node`` get helpers,
    which requires re-running the Lemma 11 delivery for the duplicated
    subtasks.  We charge a broadcast (to learn the sizes) plus a routing step
    whose load is the total amount of duplicated input.
    """
    rounds = clique.charge_broadcast(label=f"{label}/sizes")
    if target_per_node <= 0:
        return rounds
    duplicated = 0
    max_single = 0
    for size in product_sizes:
        if size > target_per_node:
            copies = size // target_per_node
            duplicated += copies * target_per_node
            max_single = max(max_single, target_per_node)
    if duplicated:
        max_load = max(max_single, math.ceil(duplicated / clique.n))
        rounds += clique.charge_routing(
            max_load,
            max_load,
            words_per_element,
            total_messages=duplicated,
            label=f"{label}/redeliver",
        )
    return rounds


def charge_summation(
    clique: Clique,
    total_intermediate: int,
    words_per_element: int,
    label: str = "summation",
) -> float:
    """Charge Lemma 13: balanced summation of the intermediate values.

    After Lemma 12 every node holds at most ``ceil(total / n)`` values; they
    are summed in repeats of ``n`` values per node, each repeat costing a
    constant number of sorting + routing rounds.
    """
    n = clique.n
    if total_intermediate <= 0:
        return 0.0
    per_node = math.ceil(total_intermediate / n)
    repeats = max(1, math.ceil(per_node / n))
    rounds = 0.0
    for _ in range(repeats):
        rounds += clique.charge_sorting(n, words_per_item=words_per_element, label=f"{label}/sort")
        rounds += clique.charge_broadcast(label=f"{label}/boundaries")
        rounds += clique.charge_routing(n, n, words_per_element, label=f"{label}/redistribute")
    return rounds


def charge_cube_partition(
    clique: Clique, a: int, b: int, label: str = "cube-partition"
) -> float:
    """Charge the communication of Lemma 9 (all steps are O(1) rounds)."""
    n = clique.n
    rounds = 0.0
    # Row / column non-zero counts are broadcast so all nodes compute the
    # same Lemma 5 partitions.
    rounds += clique.charge_broadcast(label=f"{label}/row-counts")
    rounds += clique.charge_broadcast(label=f"{label}/col-counts")
    # Redistribution so node v holds column v of S and row v of T.
    rounds += clique.charge_routing(n, n, 1, label=f"{label}/redistribute")
    # Each node sends its per-(i, j) non-zero counts to the group handling
    # that pair: at most a*b*c = n messages sent and n received per node.
    rounds += clique.charge_routing(min(n, a * b), n, 1, label=f"{label}/group-counts")
    # Each node broadcasts the boundaries of its middle block.
    rounds += clique.charge_broadcast(words=2, label=f"{label}/boundaries")
    return rounds
