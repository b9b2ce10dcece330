"""Unit tests for SemiringMatrix."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.matmul import SemiringMatrix
from repro.semiring import BOOLEAN, MIN_PLUS, AugmentedEntry, augmented_semiring_for


def build(entries, n=6, semiring=MIN_PLUS):
    return SemiringMatrix.from_entries(n, entries, semiring)


class TestBasics:
    def test_empty_matrix(self):
        matrix = SemiringMatrix(4)
        assert matrix.nnz() == 0
        assert matrix.density() == 1  # density is at least 1 by definition
        assert matrix.get(1, 2) == math.inf

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            SemiringMatrix(0)

    def test_set_get(self):
        matrix = SemiringMatrix(4)
        matrix.set(1, 2, 5.0)
        assert matrix.get(1, 2) == 5.0
        assert matrix.nnz() == 1

    def test_setting_zero_removes_entry(self):
        matrix = SemiringMatrix(4)
        matrix.set(1, 2, 5.0)
        matrix.set(1, 2, math.inf)
        assert matrix.nnz() == 0

    def test_add_entry_uses_semiring_addition(self):
        matrix = SemiringMatrix(4)
        matrix.add_entry(0, 0, 7.0)
        matrix.add_entry(0, 0, 3.0)
        assert matrix.get(0, 0) == 3.0  # min

    def test_add_entry_ignores_zero(self):
        matrix = SemiringMatrix(4)
        matrix.add_entry(0, 0, math.inf)
        assert matrix.nnz() == 0

    def test_identity(self):
        identity = SemiringMatrix.identity(3, MIN_PLUS)
        assert identity.nnz() == 3
        assert identity.get(1, 1) == 0.0
        assert identity.get(0, 1) == math.inf

    def test_from_entries_merges_duplicates(self):
        matrix = build([(0, 1, 5), (0, 1, 3)])
        assert matrix.get(0, 1) == 3

    def test_copy_independent(self):
        matrix = build([(0, 1, 5)])
        clone = matrix.copy()
        clone.set(2, 2, 1)
        assert matrix.get(2, 2) == math.inf

    def test_entries_iteration(self):
        matrix = build([(0, 1, 5), (2, 3, 1)])
        assert sorted(matrix.entries()) == [(0, 1, 5), (2, 3, 1)]

    def test_rows_length_validation(self):
        with pytest.raises(ValueError):
            SemiringMatrix(3, MIN_PLUS, rows=[{}, {}])


class TestDensities:
    def test_density_definition(self):
        # 7 non-zeros over 6 rows -> ceil(7/6) = 2
        entries = [(i % 6, (i * 2) % 6, 1) for i in range(7)]
        matrix = build(entries)
        assert matrix.nnz() == len({(i % 6, (i * 2) % 6) for i in range(7)})
        assert matrix.density() == max(1, math.ceil(matrix.nnz() / 6))

    def test_row_and_col_nnz(self):
        matrix = build([(0, 1, 5), (0, 2, 2), (3, 1, 4)])
        assert matrix.row_nnz(0) == 2
        assert matrix.row_nnz(1) == 0
        assert matrix.col_nnz() == [0, 2, 1, 0, 0, 0]

    def test_max_row_nnz(self):
        matrix = build([(0, 1, 5), (0, 2, 2), (3, 1, 4)])
        assert matrix.max_row_nnz() == 2


class TestTransforms:
    def test_transpose(self):
        matrix = build([(0, 1, 5), (2, 3, 1)])
        transposed = matrix.transpose()
        assert transposed.get(1, 0) == 5
        assert transposed.get(3, 2) == 1
        assert transposed.get(0, 1) == math.inf

    def test_boolean_pattern(self):
        matrix = build([(0, 1, 5), (2, 3, 1)])
        pattern = matrix.boolean_pattern()
        assert pattern.semiring is BOOLEAN
        assert pattern.get(0, 1) is True
        assert pattern.get(1, 0) is False

    def test_filter_rows_keeps_smallest(self):
        matrix = build([(0, j, 10 - j) for j in range(5)])
        filtered = matrix.filter_rows(2)
        # smallest values are 10-4=6 (col 4) and 10-3=7 (col 3)
        assert set(filtered.rows[0]) == {3, 4}

    def test_filter_rows_tie_break_by_column(self):
        matrix = build([(0, 4, 5), (0, 1, 5), (0, 3, 5)])
        filtered = matrix.filter_rows(2)
        assert set(filtered.rows[0]) == {1, 3}

    def test_filter_rows_short_rows_untouched(self):
        matrix = build([(0, 1, 5)])
        filtered = matrix.filter_rows(3)
        assert filtered.rows[0] == {1: 5}

    def test_filter_rows_requires_ordered_semiring(self):
        matrix = SemiringMatrix(3, BOOLEAN)
        matrix.set(0, 1, True)
        with pytest.raises(TypeError):
            matrix.filter_rows(1)

    def test_filter_rows_negative_rejected(self):
        with pytest.raises(ValueError):
            SemiringMatrix(3).filter_rows(-1)

    def test_restrict_columns(self):
        matrix = build([(0, 1, 5), (0, 2, 2), (1, 3, 1)])
        restricted = matrix.restrict_columns([1, 3])
        assert restricted.get(0, 1) == 5
        assert restricted.get(0, 2) == math.inf
        assert restricted.get(1, 3) == 1

    def test_restrict_rows(self):
        matrix = build([(0, 1, 5), (1, 2, 2)])
        restricted = matrix.restrict_rows([1])
        assert restricted.row_nnz(0) == 0
        assert restricted.get(1, 2) == 2

    def test_map_values(self):
        matrix = build([(0, 1, 5)])
        doubled = matrix.map_values(lambda v: v * 2)
        assert doubled.get(0, 1) == 10

    def test_elementwise_add(self):
        a = build([(0, 1, 5), (1, 1, 3)])
        b = build([(0, 1, 2), (2, 2, 9)])
        merged = a.elementwise_add(b)
        assert merged.get(0, 1) == 2
        assert merged.get(1, 1) == 3
        assert merged.get(2, 2) == 9


class TestComparisons:
    def test_equals(self):
        a = build([(0, 1, 5)])
        b = build([(0, 1, 5)])
        c = build([(0, 1, 6)])
        assert a.equals(b)
        assert not a.equals(c)
        assert not a.equals(SemiringMatrix(7))

    def test_dimension_mismatch_rejected(self):
        a = SemiringMatrix(3)
        b = SemiringMatrix(4)
        with pytest.raises(ValueError):
            a._check_compatible(b)

    def test_semiring_mismatch_rejected(self):
        a = SemiringMatrix(3, MIN_PLUS)
        b = SemiringMatrix(3, BOOLEAN)
        with pytest.raises(ValueError):
            a._check_compatible(b)


class TestAugmentedMatrix:
    def test_augmented_entries_filter_lexicographically(self):
        sr = augmented_semiring_for(10, 10)
        matrix = SemiringMatrix(4, sr)
        matrix.set(0, 1, AugmentedEntry(5, 3))
        matrix.set(0, 2, AugmentedEntry(5, 1))
        matrix.set(0, 3, AugmentedEntry(4, 9))
        filtered = matrix.filter_rows(2)
        assert set(filtered.rows[0]) == {2, 3}


@given(
    entries=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=1, max_value=50),
        ),
        max_size=40,
    ),
    keep=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=50, deadline=None)
def test_filter_rows_property(entries, keep):
    """Filtering keeps exactly min(keep, row nnz) smallest values per row."""
    matrix = SemiringMatrix.from_entries(8, [(i, j, float(v)) for i, j, v in entries], MIN_PLUS)
    filtered = matrix.filter_rows(keep)
    for i in range(8):
        original = sorted(matrix.rows[i].values())
        kept = sorted(filtered.rows[i].values())
        assert len(kept) == min(keep, len(original))
        assert kept == original[: len(kept)]
