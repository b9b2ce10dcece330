"""Hitting sets (Lemma 4).

Given subsets ``S_v`` of size at least ``k`` (one per node), a hitting set
``A`` contains at least one node of every ``S_v``.  The paper uses the
deterministic Congested Clique construction of Parter and Yogev, which
produces a hitting set of size ``O(n log n / k)`` in ``O((log log n)^3)``
rounds; we reproduce the same size bound with a deterministic greedy
(set-cover) construction and charge the stated number of rounds, and also
provide the classic seeded random construction for comparison.
"""

from __future__ import annotations

import math
import random
from itertools import chain
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.cclique.accounting import Clique


def greedy_hitting_set(
    sets: Union[Sequence[Sequence[int]], np.ndarray],
    universe_size: int,
    clique: Optional[Clique] = None,
    label: str = "hitting-set",
) -> List[int]:
    """Deterministic hitting set via greedy set cover.

    Parameters
    ----------
    sets:
        The subsets to hit (empty subsets are ignored): node-id sequences,
        or a 2-D id array with one subset a row, padded with ``-1``.
    universe_size:
        Number of nodes ``n``.
    clique:
        If given, the Lemma 4 round cost ``O((log log n)^3)`` is charged.

    Returns
    -------
    A sorted list of chosen nodes.  The greedy rule (always pick the node
    covering the most not-yet-hit subsets, ties to the smallest id)
    guarantees a set of size at most ``(ln m + 1) · OPT`` where ``m`` is
    the number of subsets; since ``OPT <= ceil(n / k)`` for subsets of
    size ``>= k`` this matches the ``O(n log n / k)`` bound of Lemma 4.
    """
    if clique is not None:
        clique.charge_hitting_set(label=label)

    if isinstance(sets, np.ndarray) and sets.ndim == 2:
        rows, slots = np.nonzero(sets >= 0)
        nodes = sets[rows, slots]
    else:
        sizes = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
        rows = np.repeat(np.arange(len(sizes)), sizes)
        nodes = np.fromiter(chain.from_iterable(sets), dtype=np.int64,
                            count=int(sizes.sum()))
    # member[s, v]: subset s holds node v and is not hit yet.
    member = np.zeros((len(sets), universe_size), dtype=bool)
    member[rows, nodes] = True
    counts = member.sum(axis=0)
    chosen: List[int] = []
    while True:
        node = int(np.argmax(counts))  # the first maximum: the smallest id
        if counts[node] == 0:
            return sorted(chosen)
        chosen.append(node)
        hit = np.flatnonzero(member[:, node])
        counts -= member[hit].sum(axis=0)
        member[hit] = False


def random_hitting_set(
    sets: Sequence[Sequence[int]],
    universe_size: int,
    k: int,
    seed: Optional[int] = None,
    clique: Optional[Clique] = None,
    label: str = "hitting-set",
) -> List[int]:
    """Randomized hitting set: include each node with probability ``ln n / k``.

    Retries with doubled probability until every subset is hit, so the
    result is always a valid hitting set (the first attempt succeeds with
    high probability, matching the textbook argument quoted in the paper).
    """
    if clique is not None:
        clique.charge_hitting_set(label=label)
    rng = random.Random(seed)
    n = universe_size
    probability = min(1.0, math.log(max(2, n)) / max(1, k))
    non_empty = [set(subset) for subset in sets if subset]
    while True:
        chosen = {node for node in range(n) if rng.random() < probability}
        if all(subset & chosen for subset in non_empty):
            return sorted(chosen)
        probability = min(1.0, probability * 2)


def verify_hitting_set(sets: Sequence[Sequence[int]], hitting_set: Sequence[int]) -> bool:
    """Return ``True`` if every non-empty subset contains a chosen node."""
    chosen = set(hitting_set)
    return all((not subset) or (set(subset) & chosen) for subset in sets)
