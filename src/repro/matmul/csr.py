"""CSR kernels for the min-plus family and the Boolean semiring.

The dictionary kernels in :mod:`repro.matmul.kernels` pay Python interpreter
overhead per elementary product, which caps every theorem-level routine
(k-nearest, source detection, MSSP, hopsets, APSP) well below what the
hardware allows.  The kernels here work on the encoded arrays of
:class:`~repro.matmul.matrix.CSRMatrix` — ``indptr``/``indices``/``data`` —
and evaluate semiring products entirely with vectorised numpy primitives:

* min-plus matrices are ``float64`` data;
* augmented min-plus matrices are ``int64`` data through the
  order/addition-preserving encoding of
  :class:`repro.semiring.augmented.AugmentedMinPlusSemiring`, so integer
  addition of codes equals component-wise semiring multiplication and
  integer comparison equals the lexicographic order;
* Boolean matrices are all-zero ``int64`` data (only the pattern
  matters; min-reduction over zeros is "or" of the pattern).

The core product expands every elementary product ``S[i,k] · T[k,j]`` into
flat candidate arrays (a gather over ``T``'s rows), then reduces candidates
sharing an output position: a dense per-row-block accumulator via
``np.minimum.at`` when the block's candidates are dense enough (this also
covers the sparse × dense shape — scattering into full output rows *is* the
dense formulation), or ``argsort`` + ``minimum.reduceat`` when the output
block is sparse.  Row blocks bound both the candidate arrays and the
accumulator memory.  Either way the result is bit-identical to
:func:`repro.matmul.kernels.sparse_dict_product` (property-tested).

Operands and results stay in arrays (the array-resident contract of
:mod:`repro.matmul.matrix`): an operand built from dictionaries is encoded
once and the encoding cached on it, a product comes back array-resident —
ρ-filtered on the codes, never decoded here — so the filtered squarings of
Theorem 18, the hop iterations of Theorem 19 and the subcube products of
Theorems 8/14 chain without touching a Python dictionary.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.matmul.matrix import (
    CSRMatrix,
    SemiringMatrix,
    dict_rows,
    from_csr,
    min_per_position,
    smallest_per_row,
    to_csr,
)

#: Target number of candidate elementary products held in memory at once.
_CANDIDATE_BUDGET = 1 << 18

#: Maximum dense-accumulator cells per row block (rows_in_block x n).
_BUFFER_BUDGET = 1 << 20

#: Below this candidates-per-cell ratio a block reduces by sorting instead
#: of scattering into the dense accumulator.
_SPARSE_BLOCK_RATIO = 0.05


# ----------------------------------------------------------------------
# candidate expansion
# ----------------------------------------------------------------------
def _expand(s_rows: np.ndarray, s_cols: np.ndarray, s_vals: np.ndarray,
            B: CSRMatrix) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All elementary products of the given S entries against B's rows.

    Returns flat ``(rows, cols, vals, mids)`` candidate arrays; ``vals`` are
    already the products (encoded addition).
    """
    b_starts = B.indptr[s_cols]
    counts = B.indptr[s_cols + 1] - b_starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=B.data.dtype), empty
    ends = np.cumsum(counts)
    # Concatenated ranges [b_starts[t], b_starts[t] + counts[t]) per entry t.
    gather = np.arange(total, dtype=np.int64) + np.repeat(b_starts - (ends - counts), counts)
    cand_rows = np.repeat(s_rows, counts)
    cand_cols = B.indices[gather]
    cand_vals = np.repeat(s_vals, counts) + B.data[gather]
    cand_mids = np.repeat(s_cols, counts)
    return cand_rows, cand_cols, cand_vals, cand_mids


def _row_blocks(A: CSRMatrix, B: CSRMatrix) -> List[Tuple[int, int]]:
    """Partition A's rows into (start, stop) blocks bounded by both the
    candidate budget and the dense-accumulator cell budget."""
    b_row_lengths = np.diff(B.indptr)
    per_entry = b_row_lengths[A.indices] if A.nnz else np.empty(0, dtype=np.int64)
    entry_prefix = np.zeros(A.nnz + 1, dtype=np.int64)
    np.cumsum(per_entry, out=entry_prefix[1:])
    row_prefix = entry_prefix[A.indptr]
    n = A.n
    max_rows = max(1, _BUFFER_BUDGET // n)
    blocks: List[Tuple[int, int]] = []
    start = 0
    while start < n:
        stop = int(np.searchsorted(
            row_prefix, row_prefix[start] + _CANDIDATE_BUDGET, side="right"
        )) - 1
        stop = min(n, max(stop, start + 1), start + max_rows)
        blocks.append((start, stop))
        start = stop
    return blocks


# ----------------------------------------------------------------------
# products
# ----------------------------------------------------------------------
def _block_candidates(A: CSRMatrix, B: CSRMatrix, start: int, stop: int):
    """Candidate arrays of rows ``[start, stop)`` of ``A · B`` (or ``None``)."""
    lo, hi = int(A.indptr[start]), int(A.indptr[stop])
    if lo == hi:
        return None
    s_rows = np.repeat(
        np.arange(start, stop, dtype=np.int64),
        np.diff(A.indptr[start:stop + 1]),
    )
    candidates = _expand(s_rows, A.indices[lo:hi], A.data[lo:hi], B)
    return candidates if candidates[0].size else None


def _assemble(A: CSRMatrix, blocks: List[Tuple[np.ndarray, ...]]) -> SemiringMatrix:
    """The array-resident matrix of per-block ``(rows, cols, vals)`` triples."""
    if not blocks:
        return SemiringMatrix(A.n, A.semiring)
    rows, cols, vals = (np.concatenate(part) for part in zip(*blocks))
    return from_csr(CSRMatrix.from_triples(A.n, rows, cols, vals, A.semiring))


def csr_product(S: SemiringMatrix, T: SemiringMatrix,
                keep: Optional[int] = None) -> SemiringMatrix:
    """Compute ``S · T`` with the CSR kernels (optionally ρ-filtered).

    Bit-identical to ``sparse_dict_product`` followed by ``filter_rows``;
    the filtering happens block by block on the encoded arrays and the
    result is array-resident.
    """
    if keep is not None and not S.semiring.is_ordered():
        raise TypeError("row filtering requires an ordered semiring")
    A = to_csr(S)
    B = to_csr(T)
    n = A.n
    infinity = A.infinity()
    blocks: List[Tuple[np.ndarray, ...]] = []
    for start, stop in _row_blocks(A, B):
        candidates = _block_candidates(A, B, start, stop)
        if candidates is None:
            continue
        cand_rows, cand_cols, cand_vals, _ = candidates
        cells = (stop - start) * n
        if cand_rows.size >= _SPARSE_BLOCK_RATIO * cells:
            # Dense accumulator: one vectorised min-scatter per block.
            buffer = np.full(cells, infinity, dtype=A.data.dtype)
            np.minimum.at(buffer, (cand_rows - start) * n + cand_cols, cand_vals)
            present = np.flatnonzero(buffer < infinity)
            rows, cols, vals = present // n + start, present % n, buffer[present]
        else:
            rows, cols, vals = min_per_position(cand_rows, cand_cols, cand_vals, n)
        if keep is not None:
            chosen = smallest_per_row(rows, vals, keep)
            rows, cols, vals = rows[chosen], cols[chosen], vals[chosen]
        blocks.append((rows, cols, vals))
    return _assemble(A, blocks)


def csr_witnessed_product(
    S: SemiringMatrix, T: SemiringMatrix
) -> Tuple[SemiringMatrix, List[Dict[int, int]]]:
    """``S · T`` with per-entry witnesses (min-plus family only).

    Returns the (array-resident) product and ``witnesses[i][j] = w`` with
    ``w`` the smallest middle index achieving the minimum — the same
    tie-break as the dictionary kernel in :mod:`repro.matmul.witness`.
    """
    A = to_csr(S)
    B = to_csr(T)
    if A.kind == "boolean":
        raise TypeError("witnessed products require an ordered (min) semiring")
    n = A.n
    infinity = A.infinity()
    blocks: List[Tuple[np.ndarray, ...]] = []
    for start, stop in _row_blocks(A, B):
        candidates = _block_candidates(A, B, start, stop)
        if candidates is None:
            continue
        cand_rows, cand_cols, cand_vals, cand_mids = candidates
        # Two min-scatters: first the values, then — among the candidates
        # that achieve the minimum (exact compare: the winning candidate is
        # bitwise equal to the scattered minimum) — the smallest middle
        # index, which is the dict kernel's tie-break.
        cells = (stop - start) * n
        keys = (cand_rows - start) * n + cand_cols
        value_buffer = np.full(cells, infinity, dtype=A.data.dtype)
        np.minimum.at(value_buffer, keys, cand_vals)
        achieving = cand_vals == value_buffer[keys]
        witness_buffer = np.full(cells, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(witness_buffer, keys[achieving], cand_mids[achieving])
        present = np.flatnonzero(value_buffer < infinity)
        blocks.append((present // n + start, present % n,
                       value_buffer[present], witness_buffer[present]))
    product = _assemble(A, [block[:3] for block in blocks])
    if not blocks:
        return product, [dict() for _ in range(n)]
    csr = to_csr(product)
    witnesses = np.concatenate([block[3] for block in blocks])
    return product, dict_rows(csr.indptr, csr.indices.tolist(), witnesses.tolist())


def csr_subcube_products(S: SemiringMatrix, T: SemiringMatrix,
                         row_block: np.ndarray, col_block: np.ndarray,
                         mid_block: np.ndarray):
    """Every subcube product of a Lemma 9 partition, one row block at a time.

    The partition comes as label arrays (:attr:`CubePartition.labels`).  An
    elementary product ``S[r, m] · T[m, col]`` belongs to the subcube
    ``(row_block[r], col_block[col], mid_block[·, ·, m])``, so reducing the
    candidates per ``(middle block, row, col)`` gives all the intermediate
    products of Lemma 11 at once.  Yields ``(layers, rows, cols, codes)``
    sorted by ``(layer, row, col)``; row blocks are disjoint in ``rows``.
    """
    A = to_csr(S)
    B = to_csr(T)
    n = A.n
    for start, stop in _row_blocks(A, B):
        candidates = _block_candidates(A, B, start, stop)
        if candidates is None:
            continue
        rows, cols, vals, mids = candidates
        layers = mid_block[row_block[rows], col_block[cols], mids]
        layer_rows, cols, vals = min_per_position(layers * n + rows, cols, vals, n)
        yield layer_rows // n, layer_rows % n, cols, vals


def csr_submatrix_product(
    S: SemiringMatrix,
    T: SemiringMatrix,
    row_set: Sequence[int],
    mid_set: Sequence[int],
    col_set: Sequence[int],
) -> SemiringMatrix:
    """CSR evaluation of one restricted subcube product (Lemma 11 work unit).

    ``S[row_set, mid_set] · T[mid_set, col_set]`` as an array-resident
    matrix with global indices: the product of the two operands with
    everything else masked out (rows of ``T`` outside ``mid_set`` never meet
    an entry of the masked ``S``).
    :func:`repro.matmul.kernels.submatrix_product` keys it by position.
    """
    A = to_csr(S)
    B = to_csr(T)
    A = A.select(np.isin(A.row_ids(), list(row_set)) & np.isin(A.indices, list(mid_set)))
    B = B.select(np.isin(B.indices, list(col_set)))
    return csr_product(from_csr(A), from_csr(B))
