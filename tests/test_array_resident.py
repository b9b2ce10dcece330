"""The array-resident contract of :class:`repro.matmul.SemiringMatrix`.

Two things are under test:

* **The representation is invisible.**  A matrix built from dictionaries
  and the same matrix resident in encoded arrays give identical ``rows`` —
  values *and* ρ-filter tie-breaks — through chains of products,
  ``filter_rows``, ``restrict_*``, ``transpose`` and ``elementwise_add``,
  under every ``kernel=`` pin, and mutation always falls back to the
  dictionaries.
* **The chain really stays in arrays.**  In ``execution="fast"`` the
  distance tools decode only the table they hand back, and the round
  charges of the five algorithms are exactly what they were when every
  product round-tripped through dictionaries.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import core
from repro.distance import k_nearest, source_detection
from repro.graphs import erdos_renyi, random_weighted_graph
from repro.hopsets import build_hopset
from repro.matmul import CSRMatrix, SemiringMatrix, from_csr, local_product, to_csr
from repro.matmul.kernels import KERNEL_ENV_VAR, sparse_dict_product
from repro.semiring import BOOLEAN, MIN_PLUS, augmented_semiring_for

N = 12
PINS = {
    "minplus": (None, "dict", "csr", "dense", "dense-blocked"),
    "augmented": (None, "dict", "csr", "dense", "dense-blocked"),
    "boolean": (None, "dict", "csr"),
}


def random_rows(name, semiring, nnz, seed):
    rng = random.Random(seed)
    rows = [dict() for _ in range(N)]
    for _ in range(nnz):
        i, j = rng.randrange(N), rng.randrange(N)
        if name == "minplus":
            rows[i][j] = float(rng.randint(1, 6))  # few values: many ties
        elif name == "boolean":
            rows[i][j] = True
        else:
            rows[i][j] = semiring.make(rng.randint(1, 6), rng.randint(1, 2))
    return rows


def rows_first(rows, semiring):
    return SemiringMatrix(N, semiring, [dict(row) for row in rows])


def array_resident(rows, semiring):
    matrix = from_csr(to_csr(rows_first(rows, semiring)))
    assert matrix.encoded and not matrix.materialised
    return matrix


def chain(S, T, keep, columns, product):
    """Every intermediate of one product/filter/restrict/combine chain."""
    P = product(S, T)
    F = P if keep is None else P.filter_rows(keep)
    Q = F.restrict_columns(columns)
    R = Q.restrict_rows(columns).transpose()
    U = R.elementwise_add(S)
    V = product(U, T)
    return [P, F, Q, R, U, V]


@given(
    name=st.sampled_from(sorted(PINS)),
    seed=st.integers(min_value=0, max_value=10_000),
    nnz=st.integers(min_value=0, max_value=70),
    keep=st.integers(min_value=0, max_value=N),
    columns=st.lists(st.integers(min_value=0, max_value=N - 1), max_size=N),
    start=st.sampled_from(["rows", "arrays"]),
)
@settings(max_examples=60, deadline=None)
def test_representation_is_invisible(name, seed, nnz, keep, columns, start):
    semiring = MIN_PLUS if name == "minplus" else (
        BOOLEAN if name == "boolean" else augmented_semiring_for(N, 6))
    if name == "boolean":
        keep = None  # not an ordered semiring
    s_rows = random_rows(name, semiring, nnz, seed)
    t_rows = random_rows(name, semiring, nnz, seed + 1)
    expected = chain(rows_first(s_rows, semiring), rows_first(t_rows, semiring),
                     keep, columns, sparse_dict_product)
    assert not any(matrix.encoded for matrix in expected)

    build = rows_first if start == "rows" else array_resident
    for pin in PINS[name]:
        def product(A, B):
            return local_product(A, B, kernel=pin)

        def filtered_product(A, B):
            return local_product(A, B, keep=keep, kernel=pin)

        got = chain(build(s_rows, semiring), build(t_rows, semiring),
                    keep, columns, product)
        fused = filtered_product(build(s_rows, semiring), build(t_rows, semiring))
        for mine, reference in zip(got + [fused], expected + [expected[1]]):
            assert mine.rows == reference.rows, pin
            assert mine.equals(reference) and reference.equals(mine)
            assert mine.nnz() == reference.nnz()
            assert mine.col_nnz() == reference.col_nnz()
            assert mine.max_row_nnz() == reference.max_row_nnz()
            assert [mine.row_nnz(i) for i in range(N)] == [
                len(row) for row in reference.rows]
            # Array against array, too (the early-stop comparison).
            assert from_csr(to_csr(mine)).equals(from_csr(to_csr(reference)))


class TestMutationDropsTheArrays:
    def matrix(self):
        semiring = augmented_semiring_for(N, 6)
        return array_resident(random_rows("augmented", semiring, 40, 5), semiring)

    def test_reading_rows_keeps_the_arrays(self):
        M = self.matrix()
        csr = to_csr(M)
        assert M.rows == csr.decode_rows()
        assert M.materialised and M.encoded and to_csr(M) is csr

    @pytest.mark.parametrize("read_first", [False, True])
    def test_set(self, read_first):
        M = self.matrix()
        before = [dict(row) for row in to_csr(M).decode_rows()]
        if read_first:
            M.rows
        M.set(0, 0, M.semiring.make(3, 1))
        assert M.materialised and not M.encoded
        before[0][0] = M.semiring.make(3, 1)
        assert M.rows == before  # nothing else was lost with the arrays
        assert M.nnz() == sum(map(len, before))
        assert to_csr(M).decode_rows() == before

    def test_add_entry(self):
        M = self.matrix()
        M.rows
        i, (j, current) = next(
            (i, next(iter(row.items()))) for i, row in enumerate(M.rows) if row)
        M.add_entry(i, j, M.semiring.make(0, 1))
        assert not M.encoded
        assert M.get(i, j) == M.semiring.make(0, 1) != current

    def test_direct_rows_write_then_invalidate(self):
        M = self.matrix()
        nnz = M.nnz()
        M.rows[3] = {}
        M.invalidate_cache()
        assert not M.encoded
        assert M.nnz() < nnz and to_csr(M).decode_rows()[3] == {}

    def test_invalidate_on_an_unread_matrix_keeps_its_entries(self):
        M = self.matrix()
        expected = to_csr(M).decode_rows()
        M.invalidate_cache()
        assert M.materialised and not M.encoded and M.rows == expected


# ----------------------------------------------------------------------
# the fast path stays in arrays, and charges what it always charged
# ----------------------------------------------------------------------
@pytest.fixture
def decodes(monkeypatch):
    """Every matrix whose dictionaries get materialised, in order."""
    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
    seen = []
    original = CSRMatrix.decode_rows

    def counting(self):
        seen.append(self)
        return original(self)

    monkeypatch.setattr(CSRMatrix, "decode_rows", counting)
    return seen


class TestChainStaysInArrays:
    graph = random_weighted_graph(64, average_degree=6, max_weight=16, seed=41)

    def test_k_nearest_decodes_only_its_result(self, decodes):
        result = k_nearest(self.graph, 12)
        assert decodes == []

    @pytest.mark.parametrize("k", [None, 3])
    def test_source_detection_decodes_only_its_result(self, decodes, k):
        result = source_detection(self.graph, [0, 9, 18, 27, 36], d=6, k=k)
        assert len(decodes) == 1
        assert sum(map(len, result.distances)) == decodes[0].nnz

    def test_build_hopset_decodes_only_the_k_nearest_table(self, decodes):
        hopset = build_hopset(self.graph, epsilon=0.5)
        assert hopset.levels > 1
        assert decodes == []


def test_round_charges_and_hopset_size_are_pinned():
    """Exact counts of the parent commit (dictionary round trips between
    products) on one seeded n=96 pair of graphs."""
    weighted = random_weighted_graph(96, 8, 32, 2024)
    unweighted = erdos_renyi(96, 8 / 95, seed=2025)
    sources = list(range(0, 96, 9))[:10]
    assert core.apsp_weighted(weighted, epsilon=0.5).rounds == 1579
    assert core.apsp_unweighted(unweighted, epsilon=0.5).rounds == 2223
    assert core.mssp(weighted, sources, epsilon=0.5).rounds == 1270
    assert core.exact_sssp(weighted, 0).rounds == 580
    assert core.approximate_diameter(weighted, epsilon=0.5).rounds == 2351
    hopset = build_hopset(weighted, 0.5)
    assert (len(hopset.edges), hopset.beta, hopset.rounds) == (1736, 168, 1140)
    assert sum(w for _, _, w in hopset.edges) == 22906
