"""Tests for the local product kernels (sparse dicts vs numpy dense)."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.matmul import SemiringMatrix
from repro.matmul.dense import from_dense_array, minplus_matmul_arrays, to_dense_array
from repro.matmul.kernels import (
    iterated_squaring,
    local_product,
    sparse_dict_product,
    submatrix_product,
)
from repro.semiring import MIN_PLUS, AugmentedEntry, augmented_semiring_for


def random_matrix(n, nnz, seed, semiring=MIN_PLUS, max_value=40):
    rng = random.Random(seed)
    matrix = SemiringMatrix(n, semiring)
    for _ in range(nnz):
        i, j = rng.randrange(n), rng.randrange(n)
        if semiring is MIN_PLUS:
            matrix.set(i, j, float(rng.randint(1, max_value)))
        else:
            matrix.set(i, j, AugmentedEntry(rng.randint(1, max_value), rng.randint(1, 3)))
    return matrix


def naive_product(S, T):
    """Straightforward O(n^3) reference product."""
    semiring = S.semiring
    result = SemiringMatrix(S.n, semiring)
    for i in range(S.n):
        for j in range(S.n):
            total = semiring.zero
            for k in range(S.n):
                total = semiring.add(total, semiring.mul(S.get(i, k), T.get(k, j)))
            if not semiring.is_zero(total):
                result.set(i, j, total)
    return result


class TestSparseDictProduct:
    def test_matches_naive_minplus(self):
        S = random_matrix(10, 30, 1)
        T = random_matrix(10, 30, 2)
        assert sparse_dict_product(S, T).equals(naive_product(S, T))

    def test_matches_naive_augmented(self):
        sr = augmented_semiring_for(10, 40)
        S = random_matrix(10, 30, 3, semiring=sr)
        T = random_matrix(10, 30, 4, semiring=sr)
        assert sparse_dict_product(S, T).equals(naive_product(S, T))

    def test_identity_is_neutral(self):
        S = random_matrix(8, 20, 5)
        identity = SemiringMatrix.identity(8, MIN_PLUS)
        assert sparse_dict_product(S, identity).equals(S)
        assert sparse_dict_product(identity, S).equals(S)

    def test_empty_matrices(self):
        S = SemiringMatrix(5)
        T = random_matrix(5, 10, 6)
        assert sparse_dict_product(S, T).nnz() == 0
        assert sparse_dict_product(T, S).nnz() == 0


class TestNumpyKernels:
    def test_to_from_dense_roundtrip_minplus(self):
        S = random_matrix(12, 40, 7)
        assert from_dense_array(to_dense_array(S), MIN_PLUS).equals(S)

    def test_to_from_dense_roundtrip_augmented(self):
        sr = augmented_semiring_for(12, 40)
        S = random_matrix(12, 40, 8, semiring=sr)
        assert from_dense_array(to_dense_array(S), sr).equals(S)

    def test_minplus_matmul_arrays_matches_dict(self):
        S = random_matrix(16, 120, 9)
        T = random_matrix(16, 120, 10)
        dense = minplus_matmul_arrays(to_dense_array(S), to_dense_array(T))
        assert from_dense_array(dense, MIN_PLUS).equals(sparse_dict_product(S, T))

    def test_minplus_matmul_arrays_augmented_matches_dict(self):
        sr = augmented_semiring_for(16, 40)
        S = random_matrix(16, 120, 11, semiring=sr)
        T = random_matrix(16, 120, 12, semiring=sr)
        dense = minplus_matmul_arrays(to_dense_array(S), to_dense_array(T))
        np.minimum(dense, sr.inf_code, out=dense)
        assert from_dense_array(dense, sr).equals(sparse_dict_product(S, T))

    def test_blocked_product_independent_of_block_size(self):
        S = random_matrix(20, 150, 13)
        A = to_dense_array(S)
        assert np.array_equal(
            minplus_matmul_arrays(A, A, block=3), minplus_matmul_arrays(A, A, block=64)
        )


class TestLocalProductDispatch:
    def test_dense_path_matches_sparse_path(self):
        # n = 60 with ~40% fill triggers the numpy path.
        S = random_matrix(60, 1500, 14)
        T = random_matrix(60, 1500, 15)
        assert local_product(S, T).equals(sparse_dict_product(S, T))

    def test_keep_filters_output_rows(self):
        S = random_matrix(20, 100, 16)
        T = random_matrix(20, 100, 17)
        filtered = local_product(S, T, keep=2)
        full = sparse_dict_product(S, T)
        for i in range(20):
            expected = sorted(full.rows[i].items(), key=lambda kv: (kv[1], kv[0]))[:2]
            got = sorted(filtered.rows[i].items(), key=lambda kv: (kv[1], kv[0]))
            assert [v for _, v in got] == [v for _, v in expected]


class TestSubmatrixProduct:
    def test_full_cube_equals_full_product(self):
        S = random_matrix(12, 50, 18)
        T = random_matrix(12, 50, 19)
        everything = list(range(12))
        partial = submatrix_product(S, T, everything, everything, everything)
        full = sparse_dict_product(S, T)
        assert partial == {
            (i, j): v for i in range(12) for j, v in full.rows[i].items()
        }

    def test_restricted_cube_only_touches_requested_positions(self):
        S = random_matrix(12, 50, 20)
        T = random_matrix(12, 50, 21)
        partial = submatrix_product(S, T, [0, 1], list(range(12)), [4, 5])
        assert all(i in (0, 1) and j in (4, 5) for i, j in partial)

    def test_partition_of_mids_recomposes_product(self):
        S = random_matrix(12, 60, 22)
        T = random_matrix(12, 60, 23)
        everything = list(range(12))
        part1 = submatrix_product(S, T, everything, list(range(6)), everything)
        part2 = submatrix_product(S, T, everything, list(range(6, 12)), everything)
        combined = SemiringMatrix(12, MIN_PLUS)
        for chunk in (part1, part2):
            for (i, j), value in chunk.items():
                combined.add_entry(i, j, value)
        assert combined.equals(sparse_dict_product(S, T))


class TestIteratedSquaring:
    def test_squaring_path_graph_distances(self):
        # Path weight matrix: W^n gives the full distance row.
        n = 8
        W = SemiringMatrix(n, MIN_PLUS)
        for i in range(n):
            W.set(i, i, 0.0)
        for i in range(n - 1):
            W.set(i, i + 1, 1.0)
            W.set(i + 1, i, 1.0)
        powered = iterated_squaring(W, n)
        assert powered.get(0, n - 1) == n - 1

    def test_power_must_be_positive(self):
        W = SemiringMatrix(4, MIN_PLUS)
        with pytest.raises(ValueError):
            iterated_squaring(W, 0)


@given(
    seed_s=st.integers(min_value=0, max_value=10_000),
    seed_t=st.integers(min_value=0, max_value=10_000),
    nnz=st.integers(min_value=0, max_value=60),
)
@settings(max_examples=30, deadline=None)
def test_product_kernels_agree_property(seed_s, seed_t, nnz):
    """The dict kernel and the numpy kernel always produce the same matrix."""
    S = random_matrix(14, nnz, seed_s)
    T = random_matrix(14, nnz, seed_t)
    dict_result = sparse_dict_product(S, T)
    dense = minplus_matmul_arrays(to_dense_array(S), to_dense_array(T))
    assert from_dense_array(dense, MIN_PLUS).equals(dict_result)
