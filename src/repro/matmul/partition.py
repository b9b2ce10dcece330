"""Constructive partition lemmas (Lemmas 5-7) and cube partitioning (Lemma 9).

The sparse matrix-multiplication algorithms split the product cube ``V³``
into ``n`` subcubes whose submatrices are all (roughly) equally sparse, so
that one node can be made responsible for each subcube.  The lemmas below
are the deterministic balancing tools used for that split:

* Lemma 5 — partition indices into ``k`` *equal-size* sets with balanced
  weight,
* Lemma 6 — partition indices into ``k`` sets of *consecutive* indices with
  balanced weight,
* Lemma 7 — partition indices into ``k`` consecutive sets balanced with
  respect to *two* weight functions simultaneously (the fencepost merge),
* Lemma 9 — the resulting partition of ``V³`` into subcubes.

Every function is deterministic so that all (simulated) nodes compute the
same partition from the same broadcast information, exactly as the paper
requires.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.matmul.matrix import SemiringMatrix


def balanced_equal_size_partition(weights: Sequence[int], parts: int) -> List[List[int]]:
    """Lemma 5: partition ``range(len(weights))`` into ``parts`` sets of
    (almost) equal size with balanced total weight.

    The construction is the classic longest-processing-time greedy: indices
    are sorted by decreasing weight and each is assigned to the currently
    lightest part that still has capacity.  The resulting per-part weight is
    at most ``W/parts + max_weight``, the bound of Lemma 5.
    """
    n = len(weights)
    parts = max(1, min(parts, n))
    capacity = math.ceil(n / parts)
    order = sorted(range(n), key=lambda i: -weights[i])
    part_weights = [0] * parts
    part_sizes = [0] * parts
    assignment: List[List[int]] = [[] for _ in range(parts)]
    for index in order:
        best = None
        for p in range(parts):
            if part_sizes[p] >= capacity:
                continue
            if best is None or part_weights[p] < part_weights[best]:
                best = p
        if best is None:  # pragma: no cover - defensive; capacity always suffices
            best = min(range(parts), key=lambda p: part_sizes[p])
        assignment[best].append(index)
        part_weights[best] += weights[index]
        part_sizes[best] += 1
    for part in assignment:
        part.sort()
    return assignment


def consecutive_partition(weights: Sequence[int], parts: int) -> List[List[int]]:
    """Lemma 6: partition into at most ``parts`` sets of consecutive indices,
    each of weight at most ``W/parts + max_weight``."""
    n = len(weights)
    parts = max(1, parts)
    total = sum(weights)
    threshold = total / parts
    result: List[List[int]] = []
    current: List[int] = []
    current_weight = 0
    for index in range(n):
        current.append(index)
        current_weight += weights[index]
        if current_weight >= threshold and len(result) < parts - 1:
            result.append(current)
            current = []
            current_weight = 0
    if current or not result:
        result.append(current)
    while len(result) < parts:
        result.append([])
    return result


def consecutive_partition_two_weights(
    weights_a: Sequence[int], weights_b: Sequence[int], parts: int
) -> List[List[int]]:
    """Lemma 7: consecutive partition balanced w.r.t. two weight functions.

    Computes the Lemma 6 partitions for each weight function separately and
    merges their fenceposts, taking every other fencepost; each resulting
    part overlaps at most two parts of either partition, so both weight
    bounds hold up to a factor 2 — exactly the argument in the paper.
    """
    n = len(weights_a)
    if len(weights_b) != n:
        raise ValueError("weight sequences must have equal length")
    parts = max(1, parts)
    partition_a = consecutive_partition(weights_a, parts)
    partition_b = consecutive_partition(weights_b, parts)

    fenceposts = []
    for part in partition_a:
        if part:
            fenceposts.append(part[-1])
    for part in partition_b:
        if part:
            fenceposts.append(part[-1])
    fenceposts = sorted(set(fenceposts))
    # Take every other fencepost (the paper's construction), always keeping
    # the last index so the partition covers the whole range.
    chosen = fenceposts[1::2]
    if not chosen or chosen[-1] != n - 1:
        chosen.append(n - 1)

    result: List[List[int]] = []
    start = 0
    for post in chosen:
        result.append(list(range(start, post + 1)))
        start = post + 1
    while len(result) < parts:
        result.append([])
    return result[:max(parts, len(result))]


@dataclasses.dataclass
class CubePartition:
    """The Lemma 9 partition of ``V³`` into subcubes.

    Attributes
    ----------
    row_sets:
        ``C^S_i`` for ``i in range(b)`` — row blocks of ``S``.
    col_sets:
        ``C^T_j`` for ``j in range(a)`` — column blocks of ``T``.
    mid_sets:
        ``mid_sets[(i, j)][k]`` = ``C^{ij}_k`` for ``k in range(c)`` — the
        middle-dimension blocks, one consecutive partition per ``(i, j)``.
    a, b, c:
        The split parameters (``a``/``b`` after clamping to the number of
        blocks Lemma 5 could actually form).
    """

    row_sets: List[List[int]]
    col_sets: List[List[int]]
    mid_sets: Dict[Tuple[int, int], List[List[int]]]
    a: int
    b: int
    c: int

    def subcubes(self) -> List[Tuple[int, int, int, List[int], List[int], List[int]]]:
        """Enumerate subcubes as ``(i, j, k, rows, mids, cols)``; subcube
        ``(i, j, k)`` has index ``(i·a + j)·c + k`` in this order."""
        out = []
        for i, rows in enumerate(self.row_sets):
            for j, cols in enumerate(self.col_sets):
                for k, mids in enumerate(self.mid_sets[(i, j)]):
                    out.append((i, j, k, rows, mids, cols))
        return out

    def num_subcubes(self) -> int:
        return self.a * self.b * self.c

    @functools.cached_property
    def labels(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The partition as label arrays: ``row_block[r] = i``,
        ``col_block[col] = j`` and ``mid_block[i, j, m] = k``."""
        n = sum(map(len, self.row_sets))
        mid_block = np.empty((self.b, self.a, n), dtype=np.int64)
        for (i, j), mids in self.mid_sets.items():
            mid_block[i, j] = np.repeat(np.arange(self.c), list(map(len, mids)))
        return _block_labels(self.row_sets, n), _block_labels(self.col_sets, n), mid_block


def _block_labels(blocks: List[List[int]], n: int) -> np.ndarray:
    """``labels[v]`` = the index of the block containing ``v``."""
    labels = np.empty(n, dtype=np.int64)
    for index, members in enumerate(blocks):
        labels[members] = index
    return labels


def block_weights(
    S: SemiringMatrix, T: SemiringMatrix, row_sets: List[List[int]], col_sets: List[List[int]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Column weights of ``S`` restricted to each row block (``b x n``) and
    row weights of ``T`` restricted to each column block (``a x n``)."""
    n = S.n
    s_rows, s_cols = S._pattern()
    t_rows, t_cols = T._pattern()
    s_weights = np.bincount(_block_labels(row_sets, n)[s_rows] * n + s_cols,
                            minlength=len(row_sets) * n)
    t_weights = np.bincount(_block_labels(col_sets, n)[t_cols] * n + t_rows,
                            minlength=len(col_sets) * n)
    return s_weights.reshape(-1, n), t_weights.reshape(-1, n)


def compute_split_parameters(
    n: int, rho_s: int, rho_t: int, rho_p: int
) -> Tuple[int, int, int]:
    """The a, b, c parameters of Theorem 8 (clamped to ``[1, n]``).

    ``a = (ρ_T ρ_P n)^{1/3} / ρ_S^{2/3}``,
    ``b = (ρ_S ρ_P n)^{1/3} / ρ_T^{2/3}``,
    ``c = (ρ_S ρ_T n)^{1/3} / ρ_P^{2/3}``; their product is ``n`` before
    rounding.
    """
    rho_s = max(1, rho_s)
    rho_t = max(1, rho_t)
    rho_p = max(1, rho_p)

    def clamp(value: float) -> int:
        return int(min(n, max(1, math.ceil(value))))

    a = clamp((rho_t * rho_p * n) ** (1 / 3) / rho_s ** (2 / 3))
    b = clamp((rho_s * rho_p * n) ** (1 / 3) / rho_t ** (2 / 3))
    c = clamp((rho_s * rho_t * n) ** (1 / 3) / rho_p ** (2 / 3))
    return a, b, c


def cube_partition(
    S: SemiringMatrix,
    T: SemiringMatrix,
    a: int,
    b: int,
    c: int,
) -> CubePartition:
    """Lemma 9: partition ``V³`` into ``a·b·c`` balanced subcubes.

    The row blocks balance the number of non-zero entries of ``S`` per block,
    the column blocks balance the non-zero entries of ``T`` per block, and
    for every (row block, column block) pair the middle dimension is split
    into consecutive blocks balancing the remaining ``S``-column /
    ``T``-row weights simultaneously (Lemma 7).  Only the non-zero pattern
    is read, as counts over the operands' arrays.
    """
    row_sets = balanced_equal_size_partition(S._row_counts().tolist(), b)
    col_sets = balanced_equal_size_partition(T._col_counts().tolist(), a)
    s_weights, t_weights = (
        weights.tolist() for weights in block_weights(S, T, row_sets, col_sets))
    mid_sets = {
        (i, j): consecutive_partition_two_weights(s_weights[i], t_weights[j], c)
        for i in range(len(row_sets))
        for j in range(len(col_sets))
    }
    return CubePartition(
        row_sets=row_sets,
        col_sets=col_sets,
        mid_sets=mid_sets,
        a=len(col_sets),
        b=len(row_sets),
        c=c,
    )
