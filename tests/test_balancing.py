"""Tests for the balancing / charging helpers (Lemmas 10-13)."""

from __future__ import annotations

from conftest import random_matrix, submatrix_nnz
from repro.cclique import Clique
from repro.matmul.balancing import (
    assign_subcubes_to_nodes,
    charge_cube_partition,
    charge_duplication,
    charge_input_delivery,
    charge_summation,
    subcube_loads,
)
from repro.matmul.partition import cube_partition


class TestSubcubeLoads:
    def test_loads_sum_to_duplicated_nnz(self):
        n = 16
        S = random_matrix(n, 80, 1)
        T = random_matrix(n, 80, 2)
        partition = cube_partition(S, T, a=2, b=2, c=2)
        s_loads, t_loads = subcube_loads(S, T, partition)
        # every S entry appears once per column block (a of them), every T
        # entry once per row block (b of them)
        assert sum(s_loads) == S.nnz() * partition.a
        assert sum(t_loads) == T.nnz() * partition.b

    def test_load_lists_align_with_subcube_enumeration(self):
        n = 12
        S = random_matrix(n, 40, 3)
        T = random_matrix(n, 40, 4)
        partition = cube_partition(S, T, a=2, b=2, c=1)
        s_loads, t_loads = subcube_loads(S, T, partition)
        subcubes = partition.subcubes()
        assert len(s_loads) == len(subcubes) == len(t_loads)
        for load, (_, _, _, rows, mids, cols) in zip(s_loads, subcubes):
            assert load == submatrix_nnz(S, rows, mids)


class TestAssignment:
    def test_round_robin_assignment_is_balanced(self):
        assignment = assign_subcubes_to_nodes(10, 4)
        sizes = [len(a) for a in assignment]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_fewer_subcubes_than_nodes(self):
        assignment = assign_subcubes_to_nodes(3, 8)
        assert sum(len(a) for a in assignment) == 3


    def test_round_robin_separates_the_middle_blocks_of_one_pair(self):
        """Subcubes that can share an output position -- same (i, j),
        different middle block -- never land on one node, so a node's
        merged intermediate product is as large as its raw one."""
        n = 16
        partition = cube_partition(
            random_matrix(n, 120, 5), random_matrix(n, 120, 6), a=2, b=3, c=4)
        owners = {}
        for index, (i, j, _, _, _, _) in enumerate(partition.subcubes()):
            owners.setdefault((i, j), []).append(index % n)
        assert all(len(set(nodes)) == partition.c for nodes in owners.values())


class TestCharges:
    def test_input_delivery_charges_positive_rounds(self):
        clique = Clique(16)
        rounds = charge_input_delivery(
            clique, [10] * 16, [10] * 16, [[i] for i in range(16)], words_per_element=1
        )
        assert rounds > 0
        assert clique.rounds == rounds

    def test_input_delivery_scales_with_load(self):
        light = Clique(16)
        heavy = Clique(16)
        assignment = [[i] for i in range(16)]
        charge_input_delivery(light, [16] * 16, [16] * 16, assignment, 1)
        charge_input_delivery(heavy, [16 * 16] * 16, [16 * 16] * 16, assignment, 1)
        assert heavy.rounds > light.rounds

    def test_duplication_free_when_balanced(self):
        balanced = Clique(16)
        unbalanced = Clique(16)
        charge_duplication(balanced, [4] * 16, target_per_node=8, words_per_element=1)
        charge_duplication(
            unbalanced, [4] * 15 + [400], target_per_node=8, words_per_element=1
        )
        # the unbalanced case pays extra routing on top of the size broadcast
        assert unbalanced.rounds > balanced.rounds

    def test_summation_repeats_scale_with_volume(self):
        small = Clique(16)
        large = Clique(16)
        charge_summation(small, 16 * 16, 1)
        charge_summation(large, 16 * 16 * 8, 1)
        assert large.rounds > small.rounds

    def test_summation_zero_volume_is_free(self):
        clique = Clique(16)
        assert charge_summation(clique, 0, 1) == 0.0

    def test_cube_partition_charge_is_constant_in_n(self):
        small = Clique(32)
        large = Clique(256)
        r_small = charge_cube_partition(small, 4, 4)
        r_large = charge_cube_partition(large, 8, 8)
        # O(1) rounds regardless of n (same number of primitive invocations)
        assert abs(r_small - r_large) <= 4

    def test_words_multiply_the_charge(self):
        one_word = Clique(16)
        two_words = Clique(16)
        assignment = [[i] for i in range(16)]
        charge_input_delivery(one_word, [64] * 16, [64] * 16, assignment, 1)
        charge_input_delivery(two_words, [64] * 16, [64] * 16, assignment, 2)
        assert two_words.rounds >= one_word.rounds
