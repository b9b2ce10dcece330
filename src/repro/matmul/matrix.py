"""Sparse matrices over a semiring, resident in encoded arrays.

The Congested Clique matrix algorithms of Section 2 operate on ``n x n``
matrices whose rows live on the corresponding nodes.  A
:class:`SemiringMatrix` stores only the non-"zero" entries (the semiring's
additive identity is the absent-entry marker; for min-plus that is ``∞``)
and has two interchangeable representations:

* ``rows`` — a list of per-row dictionaries ``{column: value}``, the form
  the reference ``dict`` kernel and most tests read and write, and the only
  form of a semiring the arrays cannot encode;
* the encoded CSR arrays of :class:`CSRMatrix` (``indptr``/``indices``/
  ``data``) — the form every vectorised kernel consumes *and produces*.

Whichever side a matrix was built from is primary; the other is derived
lazily, once, and cached.  A matrix built from dictionaries
(``SemiringMatrix(n, semiring, rows)``) encodes on its first vectorised
product; a product result, :func:`from_csr` or a matrix built from edge
arrays is *array-resident*: it decodes its dictionaries only when someone
reads ``rows``, so a chain of products — local ones and the round-charged
Theorem 8 / Theorem 14 schedule in either execution mode — ``filter_rows``,
``restrict_columns``/``restrict_rows``, ``equals`` and the density
statistics never leaves numpy.  The values and the ``(value, column)``
tie-break of ρ-filtering (Section 2.2.2) are identical on both sides
(property-tested in ``tests/test_array_resident.py``).

The class also implements the paper's density measure ``ρ_M`` — the smallest
positive integer with ``nz(M) <= ρ_M · n`` — and the ρ-filtering operation
(keep the ρ smallest entries per row) used by the filtered multiplication
and by all the distance tools.

Derived statistics, the derived representation and the kernel dispatcher's
product estimate are cached on the matrix (``_cache``).  Mutating through
:meth:`set` or :meth:`add_entry` makes the dictionaries primary and drops
everything cached; code that writes to ``rows`` directly must call
:meth:`invalidate_cache` before reading any statistic or multiplying.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.semiring.augmented import AugmentedEntry, AugmentedMinPlusSemiring
from repro.semiring.base import Semiring
from repro.semiring.boolean import BOOLEAN, BooleanSemiring
from repro.semiring.minplus import MIN_PLUS, MinPlusSemiring


def csr_supported(semiring: Semiring) -> bool:
    """Whether the encoded arrays can hold this semiring's values."""
    return isinstance(
        semiring, (MinPlusSemiring, AugmentedMinPlusSemiring, BooleanSemiring)
    )


def _kind_of(semiring: Semiring) -> str:
    if isinstance(semiring, AugmentedMinPlusSemiring):
        return "augmented"
    if isinstance(semiring, BooleanSemiring):
        return "boolean"
    if isinstance(semiring, MinPlusSemiring):
        return "minplus"
    raise TypeError(f"CSR kernels do not support the {semiring.name} semiring")


def decode_values(data: np.ndarray, semiring: Semiring, kind: str) -> List[Any]:
    """Encoded ``data`` as a list of the semiring's Python values."""
    if kind == "minplus":
        return data.tolist()
    if kind == "augmented":
        weights, hops = semiring.decode_array(data)
        # tuple.__new__ skips the namedtuple's Python-level constructor.
        return list(map(tuple.__new__, repeat(AugmentedEntry),
                        zip(weights.tolist(), hops.tolist())))
    return [True] * len(data)


def dict_rows(indptr: np.ndarray, keys: List[int], values: List[Any]) -> List[Dict[int, Any]]:
    """Per-row ``{key: value}`` dictionaries of CSR-ordered flat lists."""
    bounds = indptr.tolist()
    return [dict(zip(keys[lo:hi], values[lo:hi]))
            for lo, hi in zip(bounds, bounds[1:])]


def smallest_per_row(rows: np.ndarray, vals: np.ndarray, keep: int) -> np.ndarray:
    """Positions of the ``keep`` smallest entries of each row, ascending.

    ``rows`` must be non-decreasing with columns ascending inside a row, so
    the stable sort breaks value ties towards the smaller column — the
    Section 2.2.2 cutoff rule.
    """
    order = np.lexsort((vals, rows))
    starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    lengths = np.diff(np.r_[starts, rows.size])
    rank = np.arange(rows.size) - np.repeat(starts, lengths)
    chosen = order[rank < keep]
    chosen.sort()
    return chosen


def min_per_position(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                     n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum encoded value per ``(row, col)``; comes back sorted by both.

    Min of the codes is the semiring sum for every encodable kind, so this
    collapses parallel entries the way ``add_entry`` does.
    """
    if not rows.size:
        return rows, cols, vals
    keys = rows * n + cols
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    mins = np.minimum.reduceat(vals[order], starts)
    out_keys = sorted_keys[starts]
    return out_keys // n, out_keys % n, mins


class CSRMatrix:
    """A semiring matrix as encoded compressed-sparse-row numpy arrays.

    ``data`` holds the kind-specific encoding: ``float64`` for ``"minplus"``,
    the order/addition-preserving ``int64`` codes of
    :class:`~repro.semiring.augmented.AugmentedMinPlusSemiring` for
    ``"augmented"``, zeros for ``"boolean"`` (only the pattern matters).
    Column indices are sorted within each row.  The arrays are never written
    after construction, so matrices may share them.
    """

    __slots__ = ("n", "indptr", "indices", "data", "semiring", "kind")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray,
                 data: np.ndarray, semiring: Semiring, kind: str):
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.semiring = semiring
        self.kind = kind

    # -- construction ----------------------------------------------------
    @classmethod
    def from_triples(cls, n: int, rows: np.ndarray, cols: np.ndarray,
                     data: np.ndarray, semiring: Semiring) -> "CSRMatrix":
        """From encoded entries already sorted by ``(row, col)``, no repeats."""
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(n, indptr, cols, data, semiring, _kind_of(semiring))

    @classmethod
    def from_rows(cls, rows: List[Dict[int, Any]], semiring: Semiring) -> "CSRMatrix":
        """Encode per-row dictionaries."""
        kind = _kind_of(semiring)
        n = len(rows)
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=n)
        total = int(lengths.sum())
        cols = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=total)
        values = chain.from_iterable(map(dict.values, rows))
        if kind == "minplus":
            data = np.fromiter(values, dtype=np.float64, count=total)
        elif kind == "augmented":
            pairs = np.fromiter(chain.from_iterable(values), dtype=np.float64,
                                count=2 * total).reshape(total, 2)
            data = semiring.encode_array(pairs[:, 0], pairs[:, 1])
        else:
            data = np.zeros(total, dtype=np.int64)
        row_ids = np.repeat(np.arange(n, dtype=np.int64), lengths)
        keys = row_ids * n + cols
        if total and not (keys[1:] > keys[:-1]).all():
            order = np.argsort(keys, kind="stable")
            cols, data = cols[order], data[order]
        return cls.from_triples(n, row_ids, cols, data, semiring)

    @classmethod
    def from_dense(cls, array: np.ndarray, semiring: Semiring,
                   keep: Optional[int] = None) -> "CSRMatrix":
        """From a dense encoded array, optionally ρ-filtered to ``keep``."""
        kind = _kind_of(semiring)
        n = array.shape[0]
        present = array < (np.inf if kind == "minplus" else semiring.inf_code)
        if keep is not None and keep < array.shape[1]:
            order = np.argsort(array, axis=1, kind="stable")[:, :keep]
            smallest = np.zeros_like(present)
            np.put_along_axis(smallest, order, True, axis=1)
            present &= smallest
        rows, cols = np.nonzero(present)
        return cls.from_triples(n, rows, cols, array[present], semiring)

    # -- views -----------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def infinity(self) -> Any:
        """The "absent entry" marker of this kind's encoding."""
        if self.kind == "minplus":
            return np.inf
        if self.kind == "augmented":
            return self.semiring.inf_code
        return 1  # boolean: data is 0 where present

    def row_ids(self) -> np.ndarray:
        """The row of every stored entry."""
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))

    def dense(self) -> np.ndarray:
        """Densify to an ``n x n`` array of the kind's encoding."""
        dtype = np.float64 if self.kind == "minplus" else np.int64
        out = np.full(self.n * self.n, self.infinity(), dtype=dtype)
        out[self.row_ids() * self.n + self.indices] = self.data
        return out.reshape(self.n, self.n)

    def decode_rows(self) -> List[Dict[int, Any]]:
        """Materialise the per-row dictionaries."""
        values = decode_values(self.data, self.semiring, self.kind)
        return dict_rows(self.indptr, self.indices.tolist(), values)

    # -- transforms (each returns a new matrix) ----------------------------
    def select(self, mask: np.ndarray) -> "CSRMatrix":
        """The entries where ``mask`` is true."""
        indptr = np.r_[0, np.cumsum(mask)][self.indptr]
        return CSRMatrix(self.n, indptr, self.indices[mask], self.data[mask],
                         self.semiring, self.kind)

    def keep_smallest(self, keep: int) -> "CSRMatrix":
        """ρ-filtering: the ``keep`` smallest entries of each row."""
        if int(np.diff(self.indptr).max(initial=0)) <= keep:
            return self
        chosen = smallest_per_row(self.row_ids(), self.data, keep)
        mask = np.zeros(self.nnz, dtype=bool)
        mask[chosen] = True
        return self.select(mask)

    def same_entries(self, other: "CSRMatrix") -> bool:
        """Exact equality of the stored entries (same encoding required)."""
        return (np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices)
                and np.array_equal(self.data, other.data))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRMatrix(n={self.n}, nnz={self.nnz}, kind={self.kind!r})"


class SemiringMatrix:
    """A sparse ``n x n`` matrix over a semiring.

    Parameters
    ----------
    n:
        Dimension.
    semiring:
        The semiring entries live in.  Defaults to min-plus.
    rows:
        Optional pre-built list of per-row dictionaries (not copied).
    """

    __slots__ = ("n", "semiring", "_rows", "_cache")

    def __init__(
        self,
        n: int,
        semiring: Semiring = MIN_PLUS,
        rows: Optional[List[Dict[int, Any]]] = None,
    ):
        if n <= 0:
            raise ValueError(f"matrix dimension must be positive, got {n}")
        self.n = int(n)
        self.semiring = semiring
        self._cache: Dict[str, Any] = {}
        if rows is None:
            self._rows: Optional[List[Dict[int, Any]]] = [dict() for _ in range(self.n)]
        else:
            if len(rows) != self.n:
                raise ValueError("rows list length must equal n")
            self._rows = rows

    # ------------------------------------------------------------------
    # the two representations
    # ------------------------------------------------------------------
    @property
    def rows(self) -> List[Dict[int, Any]]:
        """The per-row dictionaries (decoded on first read if array-resident)."""
        rows = self._rows
        if rows is None:
            rows = self._rows = self._cache["csr"].decode_rows()
        return rows

    @property
    def materialised(self) -> bool:
        """Whether the per-row dictionaries exist (reading ``rows`` is free)."""
        return self._rows is not None

    @property
    def encoded(self) -> bool:
        """Whether the encoded arrays exist (a vectorised product is free
        of conversion)."""
        return "csr" in self._cache

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, n: int, semiring: Semiring = MIN_PLUS) -> "SemiringMatrix":
        """The semiring identity matrix (``one`` on the diagonal)."""
        matrix = cls(n, semiring)
        for i in range(n):
            matrix.rows[i][i] = semiring.one
        return matrix

    @classmethod
    def from_entries(
        cls,
        n: int,
        entries: Iterable[Tuple[int, int, Any]],
        semiring: Semiring = MIN_PLUS,
    ) -> "SemiringMatrix":
        """Build from ``(row, col, value)`` triples (semiring-summed on clash)."""
        matrix = cls(n, semiring)
        for i, j, value in entries:
            matrix.add_entry(i, j, value)
        return matrix

    def copy(self) -> "SemiringMatrix":
        """Deep copy."""
        return SemiringMatrix(self.n, self.semiring, [dict(row) for row in self.rows])

    # ------------------------------------------------------------------
    # entry access
    # ------------------------------------------------------------------
    def get(self, i: int, j: int) -> Any:
        """Entry ``(i, j)``, or the semiring zero if absent."""
        return self.rows[i].get(j, self.semiring.zero)

    def set(self, i: int, j: int, value: Any) -> None:
        """Set entry ``(i, j)``; setting the semiring zero removes the entry."""
        if self._cache:
            self.invalidate_cache()
        if self.semiring.is_zero(value):
            self._rows[i].pop(j, None)
        else:
            self._rows[i][j] = value

    def add_entry(self, i: int, j: int, value: Any) -> None:
        """Semiring-add ``value`` into entry ``(i, j)``."""
        semiring = self.semiring
        if semiring.is_zero(value):
            return
        if self._cache:
            self.invalidate_cache()
        row = self._rows[i]
        current = row.get(j)
        if current is not None:
            value = semiring.add(current, value)
            if semiring.is_zero(value):
                del row[j]
                return
        row[j] = value

    def row(self, i: int) -> Dict[int, Any]:
        """The dictionary of non-zero entries of row ``i``."""
        return self.rows[i]

    def entries(self) -> Iterator[Tuple[int, int, Any]]:
        """Iterate over non-zero entries as ``(row, col, value)``."""
        for i, row in enumerate(self.rows):
            for j, value in row.items():
                yield (i, j, value)

    # ------------------------------------------------------------------
    # densities (Section 2.1) — cached, see invalidate_cache
    # ------------------------------------------------------------------
    def invalidate_cache(self) -> None:
        """Make ``rows`` primary: drop the encoded arrays and every cached
        statistic (an array-resident matrix decodes its rows first).

        :meth:`set` and :meth:`add_entry` call this automatically; code that
        mutates ``rows`` directly must call it by hand before the next read
        of ``nnz``/``col_nnz``/``density`` or the next product.
        """
        self._rows = self.rows
        self._cache.clear()

    def _row_counts(self) -> np.ndarray:
        """Non-zero entries per row (cached ndarray; do not write)."""
        counts = self._cache.get("row_nnz")
        if counts is None:
            csr = self._cache.get("csr")
            if csr is not None:
                counts = np.diff(csr.indptr)
            else:
                counts = np.fromiter(map(len, self._rows), dtype=np.int64, count=self.n)
            self._cache["row_nnz"] = counts
        return counts

    def _col_counts(self) -> np.ndarray:
        """Non-zero entries per column (cached ndarray; do not write)."""
        counts = self._cache.get("col_nnz")
        if counts is None:
            csr = self._cache.get("csr")
            columns = csr.indices if csr is not None else self._pattern()[1]
            counts = np.bincount(columns, minlength=self.n)
            self._cache["col_nnz"] = counts
        return counts

    def _pattern(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(row, column)`` of every stored entry, row by row — for any
        semiring, encodable or not (the Lemma 9 partition only counts)."""
        csr = self._cache.get("csr")
        if csr is not None:
            return csr.row_ids(), csr.indices
        columns = np.fromiter(chain.from_iterable(self._rows),
                              dtype=np.int64, count=self.nnz())
        return np.repeat(np.arange(self.n), self._row_counts()), columns

    def nnz(self) -> int:
        """Number of non-zero entries (cached)."""
        csr = self._cache.get("csr")
        if csr is not None:
            return csr.nnz
        value = self._cache.get("nnz")
        if value is None:
            value = self._cache["nnz"] = sum(map(len, self._rows))
        return value

    def row_nnz(self, i: int) -> int:
        """Number of non-zero entries in row ``i``."""
        if self._rows is not None:
            return len(self._rows[i])
        return int(self._row_counts()[i])

    def col_nnz(self) -> List[int]:
        """Number of non-zero entries per column (cached; returns a copy)."""
        return self._col_counts().tolist()

    def density(self) -> int:
        """The density ``ρ``: smallest positive integer with ``nnz <= ρ·n``."""
        return max(1, math.ceil(self.nnz() / self.n))

    def max_row_nnz(self) -> int:
        """Maximum number of non-zero entries in any row (cached)."""
        return int(self._row_counts().max())

    # ------------------------------------------------------------------
    # transforms — on the arrays when they exist, else on the dictionaries
    # ------------------------------------------------------------------
    def transpose(self) -> "SemiringMatrix":
        """The transposed matrix."""
        result = SemiringMatrix(self.n, self.semiring)
        rows = result.rows
        for i, j, value in self.entries():
            rows[j][i] = value
        return result

    def boolean_pattern(self) -> "SemiringMatrix":
        """The 0/1 pattern matrix ``M̂`` over the Boolean semiring."""
        return SemiringMatrix(
            self.n, BOOLEAN, [dict.fromkeys(row, True) for row in self.rows])

    def filter_rows(self, keep: int) -> "SemiringMatrix":
        """ρ-filtering: keep the ``keep`` smallest entries of each row.

        Requires an ordered semiring.  Ties are broken by column index,
        matching the cutoff-value definition in Section 2.2.2, so the result
        is deterministic.
        """
        if keep < 0:
            raise ValueError("keep must be non-negative")
        if not self.semiring.is_ordered():
            raise TypeError("row filtering requires an ordered semiring")
        csr = self._cache.get("csr")
        if csr is not None:
            return from_csr(csr.keep_smallest(keep))
        result = SemiringMatrix(self.n, self.semiring)
        for i, row in enumerate(self.rows):
            if len(row) <= keep:
                result.rows[i] = dict(row)
                continue
            items = sorted(row.items(), key=lambda kv: (kv[1], kv[0]))
            result.rows[i] = dict(items[:keep])
        return result

    def restrict_columns(self, columns: Sequence[int]) -> "SemiringMatrix":
        """Zero out all columns not in ``columns`` (same dimension)."""
        csr = self._cache.get("csr")
        if csr is not None:
            return from_csr(csr.select(np.isin(csr.indices, list(columns))))
        allowed = set(columns)
        result = SemiringMatrix(self.n, self.semiring)
        for i in range(self.n):
            result.rows[i] = {j: v for j, v in self.rows[i].items() if j in allowed}
        return result

    def restrict_rows(self, row_ids: Sequence[int]) -> "SemiringMatrix":
        """Zero out all rows not in ``row_ids`` (same dimension)."""
        csr = self._cache.get("csr")
        if csr is not None:
            return from_csr(csr.select(np.isin(csr.row_ids(), list(row_ids))))
        allowed = set(row_ids)
        result = SemiringMatrix(self.n, self.semiring)
        for i in range(self.n):
            if i in allowed:
                result.rows[i] = dict(self.rows[i])
        return result

    def map_values(self, fn: Callable[[Any], Any]) -> "SemiringMatrix":
        """Apply ``fn`` to each non-zero value."""
        result = SemiringMatrix(self.n, self.semiring)
        for i in range(self.n):
            result.rows[i] = {j: fn(v) for j, v in self.rows[i].items()}
        return result

    # ------------------------------------------------------------------
    # element-wise combination
    # ------------------------------------------------------------------
    def elementwise_add(self, other: "SemiringMatrix") -> "SemiringMatrix":
        """Semiring element-wise sum of two matrices."""
        self._check_compatible(other)
        result = self.copy()
        for i, j, value in other.entries():
            result.add_entry(i, j, value)
        return result

    # ------------------------------------------------------------------
    # comparisons
    # ------------------------------------------------------------------
    def equals(self, other: "SemiringMatrix") -> bool:
        """Exact equality of the stored entries."""
        if self.n != other.n:
            return False
        mine, theirs = self._cache.get("csr"), other._cache.get("csr")
        if (mine is not None and theirs is not None and mine.kind == theirs.kind
                and (mine.kind != "augmented"
                     or mine.semiring.hop_base == theirs.semiring.hop_base)):
            return mine.same_entries(theirs)
        return self.rows == other.rows

    def _check_compatible(self, other: "SemiringMatrix") -> None:
        if self.n != other.n:
            raise ValueError(
                f"matrix dimensions differ: {self.n} vs {other.n}"
            )
        if type(self.semiring) is not type(other.semiring):
            raise ValueError("matrices are over different semirings")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SemiringMatrix(n={self.n}, nnz={self.nnz()}, "
            f"semiring={self.semiring.name})"
        )


def to_csr(M: SemiringMatrix) -> CSRMatrix:
    """The encoded arrays of ``M`` (encoded once, cached on the matrix)."""
    csr = M._cache.get("csr")
    if csr is None:
        csr = M._cache["csr"] = CSRMatrix.from_rows(M.rows, M.semiring)
    return csr


def from_csr(csr: CSRMatrix) -> SemiringMatrix:
    """An array-resident matrix over ``csr`` (rows decode on first read)."""
    matrix = SemiringMatrix.__new__(SemiringMatrix)
    matrix.n = csr.n
    matrix.semiring = csr.semiring
    matrix._rows = None
    matrix._cache = {"csr": csr}
    return matrix
