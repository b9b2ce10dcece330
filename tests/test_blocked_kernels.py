"""Tests for the blocked dense kernel tier and cost memoization.

Contract: the ``dense-blocked`` tier is bit-identical to the
dict reference on their domain (the min-plus family, including the
augmented encoding), ineligible pins fall back (env) or raise (explicit),
and the dispatcher's cost estimates are memoized across a call chain.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.matmul import SemiringMatrix
from repro.matmul.dense import minplus_blocked, minplus_matmul_arrays
from repro.matmul.kernels import (
    DISPATCH,
    KERNEL_ENV_VAR,
    KernelDispatch,
    iterated_squaring,
    local_product,
    sparse_dict_product,
)
from repro.matmul.witness import witnessed_product
from repro.semiring import BOOLEAN, MIN_PLUS, augmented_semiring_for
from repro.semiring.base import Semiring

def random_matrix(n, nnz, seed, semiring=MIN_PLUS, max_value=40):
    """Random sparse matrix; nnz entry *attempts* (duplicates collapse)."""
    rng = random.Random(seed)
    matrix = SemiringMatrix(n, semiring)
    for _ in range(nnz):
        i, j = rng.randrange(n), rng.randrange(n)
        if semiring is MIN_PLUS:
            matrix.set(i, j, float(rng.randint(1, max_value)))
        else:
            matrix.set(i, j, semiring.make(rng.randint(1, max_value),
                                           rng.randint(1, 3)))
    return matrix


def semiring_for(name: str, n: int) -> Semiring:
    return MIN_PLUS if name == "minplus" else augmented_semiring_for(n, 40)


# ----------------------------------------------------------------------
# array-level kernels
# ----------------------------------------------------------------------
class TestBlockedArrays:
    @pytest.mark.parametrize("tiles", [(16, 128, 128), (3, 5, 7), (1, 1, 1)])
    def test_blocked_matches_rowblock_any_tiling(self, tiles):
        rng = np.random.default_rng(3)
        A = rng.uniform(0.0, 50.0, size=(23, 23))
        B = rng.uniform(0.0, 50.0, size=(23, 23))
        A[rng.random(A.shape) < 0.3] = np.inf
        B[rng.random(B.shape) < 0.3] = np.inf
        expected = minplus_matmul_arrays(A, B)
        got = minplus_blocked(A, B, *tiles)
        np.testing.assert_array_equal(got, expected)

    def test_blocked_rectangular_slab(self):
        # Rectangular operands: (r, m) x (m, c).
        rng = np.random.default_rng(4)
        A = rng.uniform(0.0, 9.0, size=(5, 17))
        B = rng.uniform(0.0, 9.0, size=(17, 11))
        full = minplus_blocked(
            np.vstack([A, np.full((12, 17), np.inf)]), B)[:5]
        np.testing.assert_array_equal(minplus_blocked(A, B), full)

    def test_blocked_int64_codes(self):
        # The augmented encoding runs through the same kernel as int64.
        rng = np.random.default_rng(5)
        inf_code = 10_000
        A = rng.integers(1, 500, size=(14, 14)).astype(np.int64)
        B = rng.integers(1, 500, size=(14, 14)).astype(np.int64)
        A[rng.random(A.shape) < 0.4] = inf_code
        B[rng.random(B.shape) < 0.4] = inf_code
        expected = minplus_matmul_arrays(A, B)
        np.testing.assert_array_equal(minplus_blocked(A, B), expected)

    def test_blocked_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            minplus_blocked(np.zeros((3, 4)), np.zeros((5, 3)))


# ----------------------------------------------------------------------
# matrix-level tiers vs the dict reference
# ----------------------------------------------------------------------
class TestBlockedTiers:
    @settings(max_examples=25, deadline=None)
    @given(
        # n >= 4 keeps product hop counts (<= 6 here) inside the augmented
        # encoding's hop_base = 2n + 2 capacity — the tiers' common domain.
        n=st.integers(min_value=4, max_value=14),
        nnz=st.integers(min_value=0, max_value=60),
        seed=st.integers(min_value=0, max_value=2**31),
        name=st.sampled_from(["minplus", "augmented"]),
    )
    def test_tiers_match_dict_reference(self, n, nnz, seed, name):
        semiring = semiring_for(name, n)
        S = random_matrix(n, nnz, seed, semiring=semiring)
        T = random_matrix(n, nnz, seed + 1, semiring=semiring)
        expected = sparse_dict_product(S, T)
        assert local_product(S, T, kernel="dense-blocked").equals(expected)

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=12),
        nnz=st.integers(min_value=0, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31),
        keep=st.integers(min_value=1, max_value=6),
    )
    def test_filtered_product_blocked(self, n, nnz, seed, keep):
        S = random_matrix(n, nnz, seed)
        T = random_matrix(n, nnz, seed + 1)
        expected = local_product(S, T, keep=keep, kernel="dict")
        got = local_product(S, T, keep=keep, kernel="dense-blocked")
        assert got.equals(expected)

    def test_iterated_squaring_blocked(self):
        W = random_matrix(13, 50, 17)
        expected = iterated_squaring(W, 8, kernel="dict")
        assert iterated_squaring(W, 8, kernel="dense-blocked").equals(expected)

    def test_explicit_blocked_rejected_for_boolean(self):
        S = random_matrix(8, 20, 1, semiring=MIN_PLUS)
        B = SemiringMatrix(8, BOOLEAN)
        B.set(0, 1, True)
        with pytest.raises(ValueError, match="does not support"):
            local_product(B, B, kernel="dense-blocked")
        # Witnessed products have no dense variant at all.
        aug = augmented_semiring_for(8, 40)
        SA = random_matrix(8, 20, 2, semiring=aug)
        with pytest.raises(ValueError):
            witnessed_product(SA, SA, kernel="dense-blocked")
        assert S is not None  # keep the minplus matrix referenced

    def test_env_pin_falls_back_when_ineligible(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "dense-blocked")
        B = SemiringMatrix(6, BOOLEAN)
        B.set(0, 1, True)
        B.set(1, 2, True)
        expected = sparse_dict_product(B, B)
        # Boolean cannot run a dense tier: the pin silently falls back.
        assert local_product(B, B).equals(expected)
        S = random_matrix(10, 30, 3)
        assert DISPATCH.select(S, S) == "dense-blocked"


# ----------------------------------------------------------------------
# cost memoization (the iterated-squaring select() hot path)
# ----------------------------------------------------------------------
class TestCostMemoization:
    @staticmethod
    def counting_estimates(monkeypatch):
        calls = {"n": 0}
        original = KernelDispatch.estimated_products

        def counting(S_, T_):
            calls["n"] += 1
            return original(S_, T_)

        monkeypatch.setattr(KernelDispatch, "estimated_products",
                            staticmethod(counting))
        return calls

    def test_costs_memoized_per_operand_pair(self, monkeypatch):
        calls = self.counting_estimates(monkeypatch)
        dispatch = KernelDispatch()
        S = random_matrix(12, 40, 9)
        T = random_matrix(12, 40, 10)
        first = dispatch.costs(S, T)
        assert dispatch.costs(S, T) == first
        assert calls["n"] == 1  # served from the memo on S
        dispatch.costs(S, S)  # another right operand: estimated afresh
        assert calls["n"] == 2

    def test_costs_return_value_is_a_copy(self):
        dispatch = KernelDispatch()
        S = random_matrix(10, 30, 11)
        out = dispatch.costs(S, S)
        out["dict"] = -1.0
        assert dispatch.costs(S, S)["dict"] != -1.0

    def test_mutation_misses_the_cache(self, monkeypatch):
        calls = self.counting_estimates(monkeypatch)
        dispatch = KernelDispatch()
        S = SemiringMatrix(5, MIN_PLUS)
        T = SemiringMatrix(5, MIN_PLUS)
        S.set(0, 1, 2.0)
        T.set(1, 2, 2.0)
        before = dispatch.costs(S, T)
        T.set(1, 3, 4.0)  # mutating either operand drops the memo
        assert dispatch.costs(S, T)["dict"] == 2 * before["dict"]
        S.set(2, 1, 4.0)
        assert dispatch.costs(S, T)["dict"] == 4 * before["dict"]
        assert calls["n"] == 3

    def test_memo_does_not_alias_a_freed_operand(self):
        """The squaring loops free and allocate same-shape matrices; a new
        operand that reuses a freed one's ``id`` must not be served the old
        estimate."""
        dispatch = KernelDispatch()
        S = SemiringMatrix(8, MIN_PLUS, [{0: 1.0, 1: 1.0} for _ in range(8)])
        for trial in range(50):
            # Same n and nnz every time; only the layout (and so the
            # product count) differs.
            rows = [dict() for _ in range(8)]
            rows[5 * (trial % 2)] = {j: 1.0 for j in range(4)}
            T = SemiringMatrix(8, MIN_PLUS, rows)
            expected = 0 if trial % 2 else 8 * 4
            assert dispatch.costs(S, T)["dict"] == expected
            del T, rows

    def test_select_uses_memoized_costs(self, monkeypatch):
        calls = self.counting_estimates(monkeypatch)
        dispatch = KernelDispatch()
        S = random_matrix(12, 40, 14)
        for _ in range(5):
            dispatch.select(S, S)
        assert calls["n"] == 1
