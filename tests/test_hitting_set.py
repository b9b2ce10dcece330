"""Tests for hitting-set constructions (Lemma 4)."""

from __future__ import annotations

import heapq
import math
import random

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cclique import Clique
from repro.distance import greedy_hitting_set, random_hitting_set
from repro.distance.hitting_set import verify_hitting_set


def random_sets(n, k, count, seed):
    rng = random.Random(seed)
    return [rng.sample(range(n), k) for _ in range(count)]


def reference_greedy_hitting_set(sets):
    """The greedy rule over Python sets: a lazy max-heap keyed by
    (not-yet-hit subsets, node id), counts refreshed on pop."""
    alive = {index: set(subset) for index, subset in enumerate(sets) if subset}
    membership = {}
    for index, subset in alive.items():
        for node in subset:
            membership.setdefault(node, set()).add(index)
    covered = set()
    heap = [(-len(indices), node) for node, indices in membership.items()]
    heapq.heapify(heap)
    chosen = []
    while len(covered) < len(alive) and heap:
        neg_count, node = heapq.heappop(heap)
        current = len(membership[node] - covered)
        if current == 0:
            continue
        if -neg_count != current:
            heapq.heappush(heap, (-current, node))
            continue
        chosen.append(node)
        covered |= membership[node]
    return sorted(chosen)


def padded(sets, width):
    """``sets`` as a 2-D id array, one row a subset, padded with ``-1``."""
    table = np.full((len(sets), width), -1, dtype=np.int64)
    for row, subset in enumerate(sets):
        table[row, :len(subset)] = subset
    return table


class TestGreedyHittingSet:
    def test_hits_every_set(self):
        sets = random_sets(50, 8, 50, seed=1)
        hitting = greedy_hitting_set(sets, 50)
        assert verify_hitting_set(sets, hitting)

    def test_empty_sets_are_ignored(self):
        sets = [[1, 2], [], [3]]
        hitting = greedy_hitting_set(sets, 5)
        assert verify_hitting_set(sets, hitting)

    def test_no_sets_returns_empty(self):
        assert greedy_hitting_set([], 10) == []
        assert greedy_hitting_set([[], []], 10) == []

    def test_single_common_element_is_found(self):
        sets = [[7, i] for i in range(20) if i != 7]
        hitting = greedy_hitting_set(sets, 20)
        assert hitting == [7]

    def test_size_bound_of_lemma4(self):
        """Size O(n log n / k) for sets of size >= k."""
        n, k = 64, 16
        sets = random_sets(n, k, n, seed=2)
        hitting = greedy_hitting_set(sets, n)
        bound = math.ceil(n * (math.log(n) + 1) / k)
        assert len(hitting) <= bound

    def test_deterministic(self):
        sets = random_sets(30, 5, 30, seed=3)
        assert greedy_hitting_set(sets, 30) == greedy_hitting_set(sets, 30)

    def test_charges_lemma4_rounds_when_clique_given(self):
        clique = Clique(32)
        sets = random_sets(32, 6, 32, seed=4)
        greedy_hitting_set(sets, 32, clique=clique)
        assert clique.rounds == clique.spec.hitting_set_rounds(32)

    def test_disjoint_sets_need_one_node_each(self):
        sets = [[0, 1], [2, 3], [4, 5]]
        hitting = greedy_hitting_set(sets, 6)
        assert len(hitting) == 3
        assert verify_hitting_set(sets, hitting)

    def test_ties_go_to_the_smallest_id(self):
        assert greedy_hitting_set([[3, 1], [1, 3], [5, 4]], 6) == [1, 4]

    def test_padded_array_matches_sequences(self):
        sets = [[4, 2, 9], [], [7], [2, 2, 5], [0, 1, 8]]
        table = padded(sets, 4)
        assert greedy_hitting_set(table, 10) == greedy_hitting_set(sets, 10)
        assert greedy_hitting_set(np.full((3, 2), -1), 5) == []

    def test_matches_the_heap_reference(self):
        rng = random.Random(31)
        for _ in range(300):
            n = rng.randint(1, 40)
            sets = [rng.sample(range(n), rng.randint(0, min(n, 8)))
                    for _ in range(rng.randint(0, 2 * n))]
            expected = reference_greedy_hitting_set(sets)
            assert greedy_hitting_set(sets, n) == expected
            assert greedy_hitting_set(padded(sets, 8), n) == expected


class TestRandomHittingSet:
    def test_hits_every_set(self):
        sets = random_sets(50, 10, 50, seed=5)
        hitting = random_hitting_set(sets, 50, k=10, seed=6)
        assert verify_hitting_set(sets, hitting)

    def test_deterministic_given_seed(self):
        sets = random_sets(40, 8, 40, seed=7)
        a = random_hitting_set(sets, 40, k=8, seed=8)
        b = random_hitting_set(sets, 40, k=8, seed=8)
        assert a == b

    def test_expected_size_scales_inversely_with_k(self):
        n = 200
        big_k_sets = random_sets(n, 64, n, seed=9)
        small_k_sets = random_sets(n, 8, n, seed=10)
        big_k = random_hitting_set(big_k_sets, n, k=64, seed=11)
        small_k = random_hitting_set(small_k_sets, n, k=8, seed=11)
        assert len(big_k) < len(small_k)

    def test_charges_rounds_when_clique_given(self):
        clique = Clique(32)
        sets = random_sets(32, 6, 32, seed=12)
        random_hitting_set(sets, 32, k=6, seed=13, clique=clique)
        assert clique.rounds > 0


class TestVerifyHittingSet:
    def test_detects_missed_set(self):
        sets = [[1, 2], [3, 4]]
        assert not verify_hitting_set(sets, [1])
        assert verify_hitting_set(sets, [1, 3])

    def test_empty_sets_always_ok(self):
        assert verify_hitting_set([[], []], [])


@given(
    n=st.integers(min_value=4, max_value=40),
    k=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=500),
)
@settings(max_examples=40, deadline=None)
def test_greedy_hitting_set_property(n, k, seed):
    """The greedy hitting set always hits every set, for any parameters."""
    k = min(k, n)
    sets = random_sets(n, k, n, seed)
    hitting = greedy_hitting_set(sets, n)
    assert verify_hitting_set(sets, hitting)
    assert all(0 <= v < n for v in hitting)
