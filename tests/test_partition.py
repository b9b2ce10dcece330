"""Tests for the partition lemmas (Lemmas 5-7, 9)."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_matrix, submatrix_nnz
from repro.matmul.partition import (
    balanced_equal_size_partition,
    compute_split_parameters,
    consecutive_partition,
    consecutive_partition_two_weights,
    cube_partition,
)


class TestLemma5:
    def test_is_a_partition(self):
        weights = [3, 1, 4, 1, 5, 9, 2, 6]
        parts = balanced_equal_size_partition(weights, 4)
        flat = sorted(index for part in parts for index in part)
        assert flat == list(range(8))

    def test_sizes_are_balanced(self):
        weights = [1] * 12
        parts = balanced_equal_size_partition(weights, 4)
        assert all(len(part) == 3 for part in parts)

    def test_weight_bound_of_lemma5(self):
        weights = [random.Random(1).randint(0, 50) for _ in range(40)]
        k = 5
        parts = balanced_equal_size_partition(weights, k)
        bound = sum(weights) / k + max(weights)
        for part in parts:
            assert sum(weights[i] for i in part) <= bound + 1e-9

    def test_more_parts_than_items(self):
        parts = balanced_equal_size_partition([5, 1], 10)
        flat = sorted(index for part in parts for index in part)
        assert flat == [0, 1]

    @given(
        weights=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=60),
        k=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_properties(self, weights, k):
        parts = balanced_equal_size_partition(weights, k)
        flat = sorted(index for part in parts for index in part)
        assert flat == list(range(len(weights)))
        capacity = math.ceil(len(weights) / min(k, len(weights)))
        assert all(len(part) <= capacity for part in parts)


class TestLemma6:
    def test_parts_are_consecutive(self):
        weights = [2, 8, 1, 1, 9, 3, 3, 3]
        parts = consecutive_partition(weights, 3)
        for part in parts:
            if part:
                assert part == list(range(part[0], part[-1] + 1))

    def test_covers_all_indices_in_order(self):
        weights = [1] * 10
        parts = consecutive_partition(weights, 3)
        flat = [index for part in parts for index in part]
        assert flat == list(range(10))

    def test_weight_bound_of_lemma6(self):
        rng = random.Random(2)
        weights = [rng.randint(0, 30) for _ in range(50)]
        k = 6
        parts = consecutive_partition(weights, k)
        bound = sum(weights) / k + max(weights)
        for part in parts:
            assert sum(weights[i] for i in part) <= bound + 1e-9

    def test_produces_at_most_k_nonempty_parts_plus_padding(self):
        weights = [5] * 7
        parts = consecutive_partition(weights, 3)
        assert len(parts) >= 3
        assert sum(1 for part in parts if part) <= 3


class TestLemma7:
    def test_covers_all_indices_consecutively(self):
        a = [1, 5, 2, 8, 1, 1, 9, 2]
        b = [3, 1, 1, 1, 7, 2, 2, 6]
        parts = consecutive_partition_two_weights(a, b, 3)
        flat = [index for part in parts for index in part]
        assert flat == list(range(8))
        for part in parts:
            if part:
                assert part == list(range(part[0], part[-1] + 1))

    def test_double_weight_bound_of_lemma7(self):
        rng = random.Random(3)
        a = [rng.randint(0, 20) for _ in range(60)]
        b = [rng.randint(0, 20) for _ in range(60)]
        k = 5
        parts = consecutive_partition_two_weights(a, b, k)
        bound_a = 2 * (sum(a) / k + max(a))
        bound_b = 2 * (sum(b) / k + max(b))
        for part in parts:
            assert sum(a[i] for i in part) <= bound_a + 1e-9
            assert sum(b[i] for i in part) <= bound_b + 1e-9

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            consecutive_partition_two_weights([1, 2], [1], 2)


class TestSplitParameters:
    def test_product_close_to_n(self):
        n = 1000
        a, b, c = compute_split_parameters(n, 10, 10, 10)
        # before rounding a*b*c = n exactly; rounding inflates by < 8x
        assert n <= a * b * c <= 8 * n

    def test_dense_output_gives_clt18_shape(self):
        # With rho_p = n the c parameter collapses towards 1.
        n = 512
        _, _, c = compute_split_parameters(n, 4, 4, n)
        a, b, _ = compute_split_parameters(n, 4, 4, n)
        assert c <= 2
        assert a >= 8 and b >= 8

    def test_parameters_clamped_to_valid_range(self):
        a, b, c = compute_split_parameters(16, 1, 1, 1)
        assert 1 <= a <= 16 and 1 <= b <= 16 and 1 <= c <= 16

    def test_zero_densities_treated_as_one(self):
        a, b, c = compute_split_parameters(16, 0, 0, 0)
        assert min(a, b, c) >= 1


class TestCubePartition:
    def test_subcubes_cover_the_cube_exactly_once(self):
        S = random_matrix(12, 40, 4)
        T = random_matrix(12, 40, 5)
        partition = cube_partition(S, T, a=2, b=3, c=2)
        seen = set()
        for _, _, _, rows, mids, cols in partition.subcubes():
            for r in rows:
                for m in mids:
                    for col in cols:
                        key = (r, m, col)
                        assert key not in seen
                        seen.add(key)
        assert len(seen) == 12 ** 3

    def test_row_blocks_partition_nodes(self):
        S = random_matrix(10, 30, 6)
        T = random_matrix(10, 30, 7)
        partition = cube_partition(S, T, a=2, b=2, c=2)
        rows = sorted(v for block in partition.row_sets for v in block)
        cols = sorted(v for block in partition.col_sets for v in block)
        assert rows == list(range(10))
        assert cols == list(range(10))

    def test_mid_partition_per_pair(self):
        S = random_matrix(10, 30, 8)
        T = random_matrix(10, 30, 9)
        partition = cube_partition(S, T, a=2, b=2, c=3)
        for (i, j), mids in partition.mid_sets.items():
            flat = sorted(v for block in mids for v in block)
            assert flat == list(range(10))

    def test_num_subcubes(self):
        S = random_matrix(9, 20, 10)
        T = random_matrix(9, 20, 11)
        partition = cube_partition(S, T, a=3, b=3, c=1)
        assert len(partition.subcubes()) == partition.a * partition.b * partition.c

    def test_input_load_balance(self):
        """Submatrix loads should respect the Lemma 9 bounds O(rho*n/bc + n)."""
        n = 24
        S = random_matrix(n, 200, 12)
        T = random_matrix(n, 200, 13)
        a = b = c = 2
        partition = cube_partition(S, T, a=a, b=b, c=c)
        rho_s, rho_t = S.density(), T.density()
        bound_s = 4 * (rho_s * n / (b * c) + n)
        bound_t = 4 * (rho_t * n / (a * c) + n)
        for _, _, _, rows, mids, cols in partition.subcubes():
            assert submatrix_nnz(S, rows, mids) <= bound_s
            assert submatrix_nnz(T, mids, cols) <= bound_t
