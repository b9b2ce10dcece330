"""Tests for the CSR kernel layer and the kernel dispatcher.

The contract under test: every kernel (dict / CSR / dense) produces the
*identical* matrix on its common domain, for every supported semiring,
including ρ-filtered products, restricted subcube products, and witnessed
products — so the dispatcher's choice can never change a result, only its
wall-clock.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.matmul import SemiringMatrix, from_csr, to_csr
from repro.matmul.csr import csr_product, csr_witnessed_product
from repro.matmul.matrix import csr_supported
from repro.matmul.kernels import (
    DISPATCH,
    KERNEL_ENV_VAR,
    _dict_submatrix_product,
    local_product,
    sparse_dict_product,
    submatrix_product,
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
        elif semiring is BOOLEAN:
            matrix.set(i, j, True)
        else:
            matrix.set(i, j, semiring.make(rng.randint(1, max_value), rng.randint(1, 3)))
    return matrix


def semiring_for(name: str, n: int) -> Semiring:
    if name == "minplus":
        return MIN_PLUS
    if name == "boolean":
        return BOOLEAN
    return augmented_semiring_for(n, 40)


# ----------------------------------------------------------------------
# round-trips
# ----------------------------------------------------------------------
class TestCSRRoundtrip:
    @pytest.mark.parametrize("name", ["minplus", "boolean", "augmented"])
    def test_to_from_csr(self, name):
        semiring = semiring_for(name, 12)
        M = random_matrix(12, 40, 7, semiring=semiring)
        assert from_csr(to_csr(M)).equals(M)

    def test_empty_matrix(self):
        M = SemiringMatrix(6)
        csr = to_csr(M)
        assert csr.nnz == 0
        assert from_csr(csr).equals(M)

    def test_csr_is_cached_and_invalidated(self):
        M = random_matrix(10, 20, 8)
        first = to_csr(M)
        assert to_csr(M) is first
        M.set(0, 0, 3.0)
        second = to_csr(M)
        assert second is not first
        assert from_csr(second).equals(M)

    def test_unsupported_semiring_raises(self):
        class WeirdSemiring(Semiring):
            name = "weird"
            zero = property(lambda self: 0)
            one = property(lambda self: 1)

            def add(self, x, y):
                return max(x, y)

            def mul(self, x, y):
                return x * y

        assert not csr_supported(WeirdSemiring())
        M = SemiringMatrix(4, WeirdSemiring())
        with pytest.raises(TypeError):
            to_csr(M)


# ----------------------------------------------------------------------
# statistic caching on the matrix
# ----------------------------------------------------------------------
class TestMatrixStatCache:
    def test_stats_invalidate_on_set(self):
        M = random_matrix(10, 30, 9)
        before = (M.nnz(), M.col_nnz(), M.density(), M.max_row_nnz())
        M.set(0, 5, 1.0)
        M.set(0, 6, 1.0)
        fresh = SemiringMatrix(10, MIN_PLUS, [dict(row) for row in M.rows])
        assert M.nnz() == fresh.nnz()
        assert M.col_nnz() == fresh.col_nnz()
        assert M.density() == fresh.density()
        assert M.max_row_nnz() == fresh.max_row_nnz()
        assert before[0] <= M.nnz()

    def test_stats_invalidate_on_add_entry(self):
        M = SemiringMatrix(4, MIN_PLUS)
        assert M.nnz() == 0
        M.add_entry(1, 2, 5.0)
        assert M.nnz() == 1
        assert M.col_nnz()[2] == 1

    def test_col_nnz_returns_copy(self):
        M = random_matrix(6, 10, 10)
        counts = M.col_nnz()
        counts[0] = 999
        assert M.col_nnz()[0] != 999 or M.col_nnz() != counts

    def test_direct_row_mutation_needs_invalidate(self):
        M = random_matrix(6, 10, 11)
        M.nnz()
        M.rows[0][0] = 1.0  # bypasses set()
        M.invalidate_cache()
        assert M.nnz() == sum(len(row) for row in M.rows)


# ----------------------------------------------------------------------
# product equality: CSR vs dict, all semirings
# ----------------------------------------------------------------------
@given(
    name=st.sampled_from(["minplus", "boolean", "augmented"]),
    seed_s=st.integers(min_value=0, max_value=10_000),
    seed_t=st.integers(min_value=0, max_value=10_000),
    nnz=st.integers(min_value=0, max_value=80),
)
@settings(max_examples=60, deadline=None)
def test_csr_product_matches_dict_property(name, seed_s, seed_t, nnz):
    """The CSR kernel and the dict kernel always produce the same matrix."""
    semiring = semiring_for(name, 14)
    S = random_matrix(14, nnz, seed_s, semiring=semiring)
    T = random_matrix(14, nnz, seed_t, semiring=semiring)
    assert csr_product(S, T).equals(sparse_dict_product(S, T))


@given(
    name=st.sampled_from(["minplus", "augmented"]),
    seed=st.integers(min_value=0, max_value=10_000),
    nnz=st.integers(min_value=0, max_value=80),
    keep=st.integers(min_value=0, max_value=14),
)
@settings(max_examples=40, deadline=None)
def test_csr_keep_matches_filter_rows_property(name, seed, nnz, keep):
    """ρ-filtering inside the CSR kernel equals dict product + filter_rows."""
    semiring = semiring_for(name, 14)
    S = random_matrix(14, nnz, seed, semiring=semiring)
    T = random_matrix(14, nnz, seed + 1, semiring=semiring)
    expected = sparse_dict_product(S, T).filter_rows(keep)
    assert csr_product(S, T, keep=keep).equals(expected)


class TestCSRProductEdgeCases:
    def test_empty_operands(self):
        S = SemiringMatrix(5)
        T = random_matrix(5, 10, 1)
        assert csr_product(S, T).nnz() == 0
        assert csr_product(T, S).nnz() == 0

    def test_rows_with_no_entries(self):
        # Rows 0 and 3 empty in S; row 2 empty in T (an "all-∞ row").
        S = SemiringMatrix(4, MIN_PLUS, [{}, {0: 1.0, 2: 2.0}, {1: 3.0}, {}])
        T = SemiringMatrix(4, MIN_PLUS, [{3: 1.0}, {0: 2.0}, {}, {1: 4.0}])
        assert csr_product(S, T).equals(sparse_dict_product(S, T))

    def test_identity_is_neutral(self):
        S = random_matrix(9, 25, 2)
        identity = SemiringMatrix.identity(9, MIN_PLUS)
        assert csr_product(S, identity).equals(S)
        assert csr_product(identity, S).equals(S)

    def test_dense_operands_hit_accumulator_path(self):
        # ~60% fill guarantees the dense-accumulator branch runs.
        S = random_matrix(40, 1000, 3)
        T = random_matrix(40, 1000, 4)
        assert csr_product(S, T).equals(sparse_dict_product(S, T))

    def test_boolean_pattern_product(self):
        S = random_matrix(16, 60, 5).boolean_pattern()
        T = random_matrix(16, 60, 6).boolean_pattern()
        assert csr_product(S, T).equals(sparse_dict_product(S, T))


# ----------------------------------------------------------------------
# restricted subcube products
# ----------------------------------------------------------------------
@given(
    name=st.sampled_from(["minplus", "boolean", "augmented"]),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=30, deadline=None)
def test_csr_submatrix_matches_dict_property(name, seed):
    semiring = semiring_for(name, 12)
    S = random_matrix(12, 50, seed, semiring=semiring)
    T = random_matrix(12, 50, seed + 1, semiring=semiring)
    rng = random.Random(seed)
    rows = sorted(rng.sample(range(12), rng.randint(1, 12)))
    mids = sorted(rng.sample(range(12), rng.randint(1, 12)))
    cols = sorted(rng.sample(range(12), rng.randint(1, 12)))
    assert submatrix_product(S, T, rows, mids, cols, kernel="csr") == \
        _dict_submatrix_product(S, T, rows, mids, cols)


def test_submatrix_dispatch_pin():
    S = random_matrix(12, 50, 3)
    T = random_matrix(12, 50, 4)
    everything = list(range(12))
    expected = _dict_submatrix_product(S, T, everything, everything, everything)
    assert submatrix_product(S, T, everything, everything, everything,
                             kernel="csr") == expected
    assert submatrix_product(S, T, everything, everything, everything,
                             kernel="dict") == expected
    with pytest.raises(ValueError):
        submatrix_product(S, T, everything, everything, everything,
                          kernel="dense")


# ----------------------------------------------------------------------
# witnessed products
# ----------------------------------------------------------------------
@given(
    name=st.sampled_from(["minplus", "augmented"]),
    seed=st.integers(min_value=0, max_value=10_000),
    nnz=st.integers(min_value=0, max_value=60),
)
@settings(max_examples=30, deadline=None)
def test_csr_witnessed_matches_dict_property(name, seed, nnz):
    """Values AND witnesses agree (small weights force plenty of ties)."""
    semiring = semiring_for(name, 12)
    S = random_matrix(12, nnz, seed, semiring=semiring, max_value=5)
    T = random_matrix(12, nnz, seed + 1, semiring=semiring, max_value=5)
    reference = witnessed_product(S, T, kernel="dict")
    product, witnesses = csr_witnessed_product(S, T)
    assert product.equals(reference.product)
    assert witnesses == reference.witnesses


# ----------------------------------------------------------------------
# dispatcher: pinning, env var, kernel independence
# ----------------------------------------------------------------------
KERNELS_BY_SEMIRING = {
    "minplus": ("dict", "csr", "dense"),
    "augmented": ("dict", "csr", "dense"),
    "boolean": ("dict", "csr"),
}


@pytest.mark.parametrize("name", ["minplus", "boolean", "augmented"])
def test_local_product_independent_of_kernel(name):
    """Regression: local_product results never depend on the kernel chosen."""
    semiring = semiring_for(name, 20)
    S = random_matrix(20, 120, 21, semiring=semiring)
    T = random_matrix(20, 120, 22, semiring=semiring)
    results = {
        kernel: local_product(S, T, kernel=kernel)
        for kernel in KERNELS_BY_SEMIRING[name]
    }
    reference = results.pop("dict")
    for kernel, result in results.items():
        assert result.equals(reference), f"{kernel} differs from dict"
    if semiring.is_ordered():
        filtered = {
            kernel: local_product(S, T, keep=3, kernel=kernel)
            for kernel in KERNELS_BY_SEMIRING[name]
        }
        expected = filtered.pop("dict")
        for kernel, result in filtered.items():
            assert result.equals(expected), f"{kernel} differs filtered"


def test_pinning_unsupported_kernel_raises():
    S = random_matrix(8, 20, 1, semiring=BOOLEAN)
    T = random_matrix(8, 20, 2, semiring=BOOLEAN)
    with pytest.raises(ValueError, match="dense"):
        local_product(S, T, kernel="dense")
    with pytest.raises(ValueError, match="unknown kernel"):
        local_product(S, T, kernel="blas")


def test_keep_on_unordered_semiring_raises_for_every_kernel():
    """Filtering a Boolean product must fail identically on all kernels."""
    S = random_matrix(8, 20, 1, semiring=BOOLEAN)
    T = random_matrix(8, 20, 2, semiring=BOOLEAN)
    with pytest.raises(TypeError, match="ordered"):
        csr_product(S, T, keep=2)
    for kernel in (None, "dict", "csr"):
        with pytest.raises(TypeError, match="ordered"):
            local_product(S, T, keep=2, kernel=kernel)


def test_env_var_pins_kernel(monkeypatch):
    S = random_matrix(10, 30, 3)
    T = random_matrix(10, 30, 4)
    expected = sparse_dict_product(S, T)
    for pinned in ("dict", "csr", "dense", "auto"):
        monkeypatch.setenv(KERNEL_ENV_VAR, pinned)
        assert local_product(S, T).equals(expected), pinned
    # Env pinning an ineligible kernel falls back to the cost model.
    SB = random_matrix(10, 30, 5, semiring=BOOLEAN)
    TB = random_matrix(10, 30, 6, semiring=BOOLEAN)
    monkeypatch.setenv(KERNEL_ENV_VAR, "dense")
    assert local_product(SB, TB).equals(sparse_dict_product(SB, TB))
    monkeypatch.setenv(KERNEL_ENV_VAR, "nonsense")
    with pytest.raises(ValueError):
        local_product(S, T)


def test_dispatch_cost_model_prefers_dict_when_tiny():
    S = random_matrix(6, 5, 7)
    T = random_matrix(6, 5, 8)
    assert DISPATCH.select(S, T) == "dict"


def test_dispatch_cost_model_prefers_vectorised_when_big():
    S = random_matrix(128, 128 * 16, 9)
    T = random_matrix(128, 128 * 16, 10)
    assert DISPATCH.select(S, T) in ("csr", "dense")


def test_estimated_products_exact_on_small_case():
    S = SemiringMatrix(3, MIN_PLUS, [{0: 1.0, 1: 1.0}, {1: 1.0}, {}])
    T = SemiringMatrix(3, MIN_PLUS, [{0: 1.0, 1: 1.0, 2: 1.0}, {2: 1.0}, {}])
    # col_nnz(S) = [1, 2, 0]; row_nnz(T) = [3, 1, 0] -> 1*3 + 2*1 = 5.
    assert DISPATCH.estimated_products(S, T) == 5


# ----------------------------------------------------------------------
# end-to-end: a distance tool is kernel-independent
# ----------------------------------------------------------------------
def test_k_nearest_independent_of_kernel():
    from repro.distance import k_nearest
    from repro.graphs import random_weighted_graph

    graph = random_weighted_graph(24, average_degree=5, max_weight=9, seed=33)
    results = {
        kernel: k_nearest(graph, 4, kernel=kernel)
        for kernel in ("dict", "csr", "dense")
    }
    for kernel in ("csr", "dense"):
        assert results[kernel].neighbors == results["dict"].neighbors, kernel
        assert results[kernel].matrix.equals(results["dict"].matrix), kernel

