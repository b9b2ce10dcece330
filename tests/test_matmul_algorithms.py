"""Tests for the Congested Clique matrix-multiplication algorithms
(Theorem 8, Theorem 14, and the dense / CLT18 baselines)."""

from __future__ import annotations

import ast
import hashlib
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.matmul
from repro.cclique import Clique
from repro.matmul import (
    SemiringMatrix,
    dense_mm,
    filtered_mm,
    from_csr,
    output_sensitive_mm,
    sparse_mm_clt18,
    to_csr,
)
from repro.matmul.kernels import KERNEL_ENV_VAR, sparse_dict_product
from repro.semiring import BOOLEAN, MIN_PLUS, AugmentedEntry, augmented_semiring_for
from repro.semiring.base import Semiring


def random_matrix(n, nnz, seed, semiring=MIN_PLUS, max_value=50):
    rng = random.Random(seed)
    matrix = SemiringMatrix(n, semiring)
    for _ in range(nnz):
        i, j = rng.randrange(n), rng.randrange(n)
        if semiring is MIN_PLUS:
            matrix.set(i, j, float(rng.randint(1, max_value)))
        else:
            matrix.set(i, j, AugmentedEntry(rng.randint(1, max_value), 1))
    return matrix


def per_row_matrix(n, per_row, seed):
    """``per_row`` entry attempts in every row (the execution-mode ablation's
    operands: the densities the higher-level algorithms multiply at)."""
    rng = random.Random(seed)
    matrix = SemiringMatrix(n, MIN_PLUS)
    for i in range(n):
        for _ in range(per_row):
            matrix.set(i, rng.randrange(n), float(rng.randint(1, 99)))
    return matrix


def mode_operands(n, nnz, seed, rho, rho_at_96):
    """``(S, T, rho)`` cases of the fast/faithful comparisons: one small
    random pair, then n=96 at four per-row densities."""
    return [pytest.param(random_matrix(n, nnz, seed), random_matrix(n, nnz, seed + 1),
                         rho, id=f"n={n}-nnz={nnz}")] + [
        pytest.param(per_row_matrix(96, d, d), per_row_matrix(96, d, d + 100),
                     rho_at_96, id=f"n=96-per_row={d}")
        for d in (2, 4, 8, 16)]


def assert_is_filtered_version(filtered, full, rho):
    """Check the three conditions of the ρ-filtered definition (Section 2.2)."""
    for i in range(full.n):
        full_row = full.rows[i]
        filtered_row = filtered.rows[i]
        # (1) every kept entry appears in the full product with the same value
        for j, value in filtered_row.items():
            assert full_row[j] == value
        # (2) the row keeps exactly min(sigma, rho) entries
        assert len(filtered_row) == min(len(full_row), rho)
        # (3) every discarded entry is at least as large as every kept entry
        if filtered_row and len(full_row) > len(filtered_row):
            kept_max = max(filtered_row.values())
            for j, value in full_row.items():
                if j not in filtered_row:
                    assert value >= kept_max


class TestOutputSensitiveMM:
    def test_correct_product_small(self):
        S = random_matrix(20, 60, 1)
        T = random_matrix(20, 60, 2)
        reference = sparse_dict_product(S, T)
        result = output_sensitive_mm(S, T, rho_hat=reference.density())
        assert result.product.equals(reference)

    def test_correct_product_augmented_semiring(self):
        sr = augmented_semiring_for(16, 50)
        S = random_matrix(16, 50, 3, semiring=sr)
        T = random_matrix(16, 50, 4, semiring=sr)
        reference = sparse_dict_product(S, T)
        result = output_sensitive_mm(S, T, rho_hat=reference.density())
        assert result.product.equals(reference)

    def test_doubling_variant_finds_density(self):
        S = random_matrix(20, 80, 5)
        T = random_matrix(20, 80, 6)
        reference = sparse_dict_product(S, T)
        result = output_sensitive_mm(S, T)  # rho_hat unknown
        assert result.product.equals(reference)
        assert result.params["doubling_estimate"] >= reference.density() or result.params[
            "doubling_estimate"
        ] >= 20

    @pytest.mark.parametrize("S, T, rho_hat", mode_operands(24, 100, 7, 24, 96))
    def test_fast_mode_matches_faithful_product(self, S, T, rho_hat):
        faithful = output_sensitive_mm(S, T, rho_hat=rho_hat, execution="faithful")
        fast = output_sensitive_mm(S, T, rho_hat=rho_hat, execution="fast")
        assert faithful.product.equals(fast.product)

    @pytest.mark.parametrize("S, T, rho_hat", mode_operands(32, 150, 9, 32, 96))
    def test_fast_and_faithful_round_charges_are_comparable(self, S, T, rho_hat):
        faithful = output_sensitive_mm(S, T, rho_hat=rho_hat, execution="faithful")
        fast = output_sensitive_mm(S, T, rho_hat=rho_hat, execution="fast")
        assert faithful.rounds > 0 and fast.rounds > 0
        ratio = faithful.rounds / fast.rounds
        assert 1 / 4 <= ratio <= 4

    def test_rounds_accumulate_in_shared_clique(self):
        clique = Clique(16)
        S = random_matrix(16, 40, 11)
        T = random_matrix(16, 40, 12)
        first = output_sensitive_mm(S, T, rho_hat=16, clique=clique)
        second = output_sensitive_mm(S, T, rho_hat=16, clique=clique)
        assert clique.rounds == pytest.approx(first.rounds + second.rounds)

    def test_invalid_execution_mode_rejected(self):
        S = random_matrix(8, 10, 13)
        with pytest.raises(ValueError):
            output_sensitive_mm(S, S, execution="warp-speed")

    def test_empty_matrices(self):
        S = SemiringMatrix(10, MIN_PLUS)
        result = output_sensitive_mm(S, S, rho_hat=1)
        assert result.product.nnz() == 0

    def test_identity_times_matrix(self):
        S = random_matrix(12, 30, 14)
        identity = SemiringMatrix.identity(12, MIN_PLUS)
        result = output_sensitive_mm(identity, S, rho_hat=S.density())
        assert result.product.equals(S)

    def test_params_reported(self):
        S = random_matrix(12, 30, 15)
        result = output_sensitive_mm(S, S, rho_hat=4)
        for key in ("rho_s", "rho_t", "rho_hat", "a", "b", "c", "predicted_rounds"):
            assert key in result.params

    def test_star_pattern_dense_output(self):
        """A star adjacency matrix is sparse but its square is dense (the
        paper's motivating example); the product must still be correct."""
        n = 16
        S = SemiringMatrix(n, MIN_PLUS)
        for leaf in range(1, n):
            S.set(0, leaf, 1.0)
            S.set(leaf, 0, 1.0)
        reference = sparse_dict_product(S, S)
        result = output_sensitive_mm(S, S, rho_hat=reference.density())
        assert result.product.equals(reference)
        assert reference.density() >= n - 2  # dense output despite sparse input


class TestFilteredMM:
    def test_output_is_valid_filtered_version(self):
        S = random_matrix(20, 120, 16)
        T = random_matrix(20, 120, 17)
        full = sparse_dict_product(S, T)
        for rho in (1, 3, 8):
            result = filtered_mm(S, T, rho=rho)
            assert_is_filtered_version(result.product, full, rho)

    @pytest.mark.parametrize("S, T, rho", mode_operands(20, 100, 18, 4, 4))
    def test_fast_mode_matches_faithful(self, S, T, rho):
        faithful = filtered_mm(S, T, rho=rho, execution="faithful")
        fast = filtered_mm(S, T, rho=rho, execution="fast")
        assert faithful.product.equals(fast.product)
        assert 1 / 4 <= faithful.rounds / fast.rounds <= 4

    def test_rho_larger_than_n_keeps_everything(self):
        S = random_matrix(12, 40, 20)
        T = random_matrix(12, 40, 21)
        result = filtered_mm(S, T, rho=100)
        assert result.product.equals(sparse_dict_product(S, T))

    def test_augmented_semiring_filtering(self):
        sr = augmented_semiring_for(14, 30)
        S = random_matrix(14, 60, 22, semiring=sr)
        T = random_matrix(14, 60, 23, semiring=sr)
        full = sparse_dict_product(S, T)
        result = filtered_mm(S, T, rho=3)
        assert_is_filtered_version(result.product, full, 3)

    def test_invalid_rho_rejected(self):
        S = random_matrix(8, 10, 24)
        with pytest.raises(ValueError):
            filtered_mm(S, S, rho=0)

    def test_unordered_semiring_rejected(self):
        from repro.semiring import BOOLEAN

        S = SemiringMatrix(8, BOOLEAN)
        with pytest.raises(TypeError):
            filtered_mm(S, S, rho=2)

    def test_binary_search_cost_scales_with_universe(self):
        S = random_matrix(16, 60, 25)
        T = random_matrix(16, 60, 26)
        small = filtered_mm(S, T, rho=2, weight_universe_size=4)
        large = filtered_mm(S, T, rho=2, weight_universe_size=1 << 20)
        assert large.rounds > small.rounds

    def test_filtered_rounds_do_not_blow_up_with_dense_true_output(self):
        """The whole point of Theorem 14: even if the true product is dense,
        the cost depends only on rho (plus log W)."""
        n = 32
        # Star-like pattern: very dense product.
        S = SemiringMatrix(n, MIN_PLUS)
        for leaf in range(1, n):
            S.set(0, leaf, float(leaf))
            S.set(leaf, 0, float(leaf))
            S.set(leaf, leaf, 0.0)
        S.set(0, 0, 0.0)
        dense_estimate = output_sensitive_mm(S, S, rho_hat=n)
        sparse_output = filtered_mm(S, S, rho=2)
        # The filtered run must not be slower than the dense-output run by
        # more than the binary-search additive term.
        assert sparse_output.rounds <= dense_estimate.rounds + 3 * math.log2(32 ** 3)


class TestBaselineMMs:
    def test_dense_mm_correct(self):
        S = random_matrix(18, 100, 27)
        T = random_matrix(18, 100, 28)
        result = dense_mm(S, T)
        assert result.product.equals(sparse_dict_product(S, T))

    def test_dense_mm_rounds_scale_as_cube_root(self):
        small_n, large_n = 27, 216
        small = dense_mm(random_matrix(small_n, 50, 29), random_matrix(small_n, 50, 30))
        large = dense_mm(random_matrix(large_n, 50, 31), random_matrix(large_n, 50, 32))
        # n^{4/3}/n = n^{1/3}: 216^{1/3} / 27^{1/3} = 2, so the round ratio
        # should be roughly 2 (allowing rounding slack).
        assert 1.2 <= large.rounds / small.rounds <= 4

    def test_clt18_correct(self):
        S = random_matrix(18, 80, 33)
        T = random_matrix(18, 80, 34)
        result = sparse_mm_clt18(S, T)
        assert result.product.equals(sparse_dict_product(S, T))

    def test_theorem8_beats_clt18_when_output_sparse(self):
        """Theorem 8's advantage: sparse output lowers the cost below CLT18."""
        n = 64
        # Block-diagonal-ish sparse matrices whose product is also sparse.
        S = SemiringMatrix(n, MIN_PLUS)
        for i in range(n):
            S.set(i, (i + 1) % n, 1.0)
            S.set(i, i, 0.0)
        reference = sparse_dict_product(S, S)
        ours = output_sensitive_mm(S, S, rho_hat=reference.density())
        baseline = sparse_mm_clt18(S, S)
        assert ours.product.equals(baseline.product)
        assert ours.rounds <= baseline.rounds

    def test_clt18_reports_predicted_rounds(self):
        S = random_matrix(16, 40, 35)
        result = sparse_mm_clt18(S, S)
        assert result.params["algorithm"] == "clt18"
        assert result.params["predicted_rounds"] > 0


@given(
    nnz=st.integers(min_value=0, max_value=80),
    seed=st.integers(min_value=0, max_value=1_000),
    rho=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=25, deadline=None)
def test_filtered_mm_property(nnz, seed, rho):
    """filtered_mm always returns a valid ρ-filtered version of the product."""
    S = random_matrix(12, nnz, seed)
    T = random_matrix(12, nnz, seed + 1)
    full = sparse_dict_product(S, T)
    result = filtered_mm(S, T, rho=rho, execution="fast")
    assert_is_filtered_version(result.product, full, rho)


@given(
    nnz=st.integers(min_value=0, max_value=80),
    seed=st.integers(min_value=0, max_value=1_000),
)
@settings(max_examples=25, deadline=None)
def test_output_sensitive_mm_property(nnz, seed):
    """output_sensitive_mm (doubling variant) always equals the true product."""
    S = random_matrix(12, nnz, seed)
    T = random_matrix(12, nnz, seed + 7)
    assert output_sensitive_mm(S, T).product.equals(sparse_dict_product(S, T))


# ----------------------------------------------------------------------
# golden table: rounds, product and params keys of every round-charged
# product in both execution modes (values captured at commit 0c7060e;
# regenerate with ``golden_table()`` only for an intended change)
# ----------------------------------------------------------------------
class WeirdSemiring(Semiring):
    """Not CSR-encodable (the one of ``test_csr_kernels.py``): add is max,
    so every product over it takes the dictionary path."""

    name = "weird"
    zero = property(lambda self: 0)
    one = property(lambda self: 1)

    def add(self, x, y):
        return max(x, y)

    def mul(self, x, y):
        return x * y


GOLDEN = json.loads(
    Path(__file__).with_name("golden_matmul_schedule.json").read_text())

GOLDEN_SEMIRINGS = {
    "minplus": lambda n: (MIN_PLUS, lambda rng: float(rng.randint(1, 99))),
    "augmented": lambda n: (
        augmented_semiring_for(n, 99),
        lambda rng: AugmentedEntry(rng.randint(1, 99), rng.randint(1, 3))),
    "boolean": lambda n: (BOOLEAN, lambda rng: True),
    "weird": lambda n: (WeirdSemiring(), lambda rng: rng.randint(1, 9)),
}

GOLDEN_PRODUCTS = {
    "filtered_mm": lambda S, T, d, **kw: filtered_mm(S, T, rho=4, **kw),
    "output_sensitive_mm[rho_hat]":
        lambda S, T, d, **kw: output_sensitive_mm(S, T, rho_hat=2 * d, **kw),
    "output_sensitive_mm[doubling]":
        lambda S, T, d, **kw: output_sensitive_mm(S, T, **kw),
    "sparse_mm_clt18": lambda S, T, d, **kw: sparse_mm_clt18(S, T, **kw),
}


def golden_operands(name, n, per_row):
    semiring, draw = GOLDEN_SEMIRINGS[name](n)
    operands = []
    for seed in (per_row, per_row + 100):
        rng = random.Random(seed)
        matrix = SemiringMatrix(n, semiring)
        for i in range(n):
            for _ in range(per_row):
                matrix.set(i, rng.randrange(n), draw(rng))
        operands.append(matrix)
    return operands


def golden_row(product, S, T, per_row, execution):
    """``[rounds, product digest, sorted params]`` or the exception's name."""
    try:
        result = GOLDEN_PRODUCTS[product](S, T, per_row, execution=execution)
    except TypeError as error:
        return [type(error).__name__]
    entries = sorted(
        (i, j, tuple(map(float, v)) if isinstance(v, tuple) else float(v))
        for i, j, v in result.product.entries())
    digest = hashlib.sha256(repr(entries).encode()).hexdigest()[:16]
    return [result.rounds, digest, sorted(result.params)]


def golden_rows(name, n, per_row):
    S, T = golden_operands(name, n, per_row)
    return {
        f"{product}/{execution}/{name}/n={n}/d={per_row}":
            golden_row(product, S, T, per_row, execution)
        for product in GOLDEN_PRODUCTS
        for execution in ("faithful", "fast")
    }


def golden_table():
    table = {}
    for name in GOLDEN_SEMIRINGS:
        for n in (16, 48, 96):
            for per_row in (2, 8, 16):
                table.update(golden_rows(name, n, per_row))
    return table


@pytest.mark.parametrize("per_row", (2, 8, 16))
@pytest.mark.parametrize("n", (16, 48, 96))
@pytest.mark.parametrize("name", GOLDEN_SEMIRINGS)
def test_schedule_matches_golden_table(name, n, per_row):
    """Rounds, product and ``params`` keys of every round-charged product,
    in both execution modes, are those of the parent commit."""
    rows = golden_rows(name, n, per_row)
    assert rows == {key: GOLDEN[key] for key in rows}


def test_golden_table_covers_the_grid():
    assert len(GOLDEN) == len(GOLDEN_PRODUCTS) * 2 * len(GOLDEN_SEMIRINGS) * 3 * 3


@pytest.mark.parametrize("name", ["minplus", "augmented", "boolean"])
def test_faithful_schedule_stays_on_the_arrays(name, monkeypatch):
    """Array-resident operands in, array-resident product out: the measured
    load source never decodes a dictionary for an encodable semiring."""
    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
    products = [p for p in GOLDEN_PRODUCTS if name != "boolean" or p != "filtered_mm"]
    for product in products:
        S, T = (from_csr(to_csr(M)) for M in golden_operands(name, 48, 8))
        assert not S.materialised and not T.materialised
        result = GOLDEN_PRODUCTS[product](S, T, 8, execution="faithful")
        assert not S.materialised and not T.materialised, product
        assert not result.product.materialised, product
        reference = GOLDEN_PRODUCTS[product](S, T, 8, execution="faithful", kernel="dict")
        assert result.product.equals(reference.product), product
        assert result.rounds == reference.rounds, product


def test_schedule_is_written_once():
    """Each charge helper and the split parameters have exactly one call
    site in ``repro.matmul`` outside the module that defines them."""
    package = Path(repro.matmul.__file__).parent
    helpers = {
        "charge_cube_partition": "balancing.py",
        "charge_input_delivery": "balancing.py",
        "charge_duplication": "balancing.py",
        "charge_summation": "balancing.py",
        "compute_split_parameters": "partition.py",
    }
    for helper, home in helpers.items():
        calls = [
            (path.name, node.lineno)
            for path in sorted(package.glob("*.py")) if path.name != home
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == helper
        ]
        assert len(calls) == 1, (helper, calls)
