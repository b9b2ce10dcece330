"""Dense array kernels for the min-plus family, plus the 3D dense baseline.

Two layers live here:

* **Array kernels** — numpy implementations of the dense min-plus
  product over the encodings of :class:`~repro.matmul.matrix.CSRMatrix`
  (``float64`` with ``inf`` for plain min-plus, order-preserving ``int64``
  codes for the augmented semiring):

  - :func:`minplus_matmul_arrays` — the original row-block broadcast
    kernel (the ``"dense"`` dispatch tier): one ``(block, n, n)``
    temporary per row block, minimum over the middle axis.
  - :func:`minplus_blocked` — the cache-tiled kernel (the
    ``"dense-blocked"`` tier): the product cube is walked in
    ``(TILE_I, TILE_K, TILE_J)`` tiles whose temporaries fit in cache, with
    a running elementwise minimum across the K tiles.  Same values as the
    row-block kernel (min is exact, so reduction order cannot change the
    result), typically 2-3x faster at n >= 512 because the temporaries stop
    thrashing memory bandwidth, and it accepts rectangular operands.

  Both produce bit-identical arrays on their common domain
  (property-tested in ``tests/test_blocked_kernels.py``); the dict kernel
  of :mod:`repro.matmul.kernels` remains the semantic reference.

* **The dense 3D baseline** — :func:`dense_mm`, the classic Congested
  Clique ``O(n^{1/3})``-round dense semiring multiplication (CKKLPS 2015)
  the paper's sparse algorithms are measured against.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.cclique.accounting import Clique
from repro.matmul.matrix import CSRMatrix, SemiringMatrix, from_csr, to_csr
from repro.matmul.results import MatMulResult
from repro.semiring.base import Semiring

#: Row-block size for the numpy broadcast kernel (memory / speed trade-off).
_BLOCK_ROWS = 32

#: Cache-sized tile shape for :func:`minplus_blocked`.  The per-tile
#: temporary is ``TILE_I * TILE_K * TILE_J`` elements (2 MiB of float64 at
#: the defaults) — small enough to stay in L2/L3 while the running minimum
#: streams through the output once per K tile.
TILE_I = 16
TILE_K = 128
TILE_J = 128


def _init_value(dtype: np.dtype):
    """The "no path yet" accumulator value for a kernel output array.

    ``inf`` for floats; for the int64 augmented encoding the int64 maximum
    (strictly above any finite code *and* above ``inf_code``, so decoding
    treats it as infinity and no real sum can lose to it).
    """
    return np.inf if np.dtype(dtype).kind == "f" else np.iinfo(np.int64).max


# ----------------------------------------------------------------------
# dense <-> sparse encoding
# ----------------------------------------------------------------------
def to_dense_array(M: SemiringMatrix) -> np.ndarray:
    """Encode a min-plus-family matrix as a dense numpy array.

    Plain min-plus matrices become ``float64`` arrays with ``inf`` for
    missing entries; augmented matrices become ``int64`` arrays of the
    order-preserving encoding with the infinity code for missing entries.
    """
    return to_csr(M).dense()


def from_dense_array(
    array: np.ndarray, semiring: Semiring
) -> SemiringMatrix:
    """Wrap a dense numpy array as an (array-resident) :class:`SemiringMatrix`."""
    return from_csr(CSRMatrix.from_dense(array, semiring))


# ----------------------------------------------------------------------
# array kernels
# ----------------------------------------------------------------------
def minplus_matmul_arrays(A: np.ndarray, B: np.ndarray, block: int = _BLOCK_ROWS) -> np.ndarray:
    """Dense min-plus product of two numpy arrays via blocked broadcasting."""
    n = A.shape[0]
    if A.dtype == np.int64:
        # Augmented encoding: clip so inf + inf cannot be mistaken for finite.
        out = np.empty((n, n), dtype=np.int64)
    else:
        out = np.empty((n, n), dtype=np.float64)
    for start in range(0, n, block):
        stop = min(n, start + block)
        # shape: (rows, k, cols) -> min over k
        chunk = A[start:stop, :, None] + B[None, :, :]
        out[start:stop] = chunk.min(axis=1)
    return out


def minplus_blocked(
    A: np.ndarray,
    B: np.ndarray,
    tile_i: int = TILE_I,
    tile_k: int = TILE_K,
    tile_j: int = TILE_J,
) -> np.ndarray:
    """Cache-tiled dense min-plus product ``min_k A[i, k] + B[k, j]``.

    Accepts rectangular operands — ``A`` of shape ``(r, m)`` against ``B``
    of shape ``(m, c)``.  The tile walk order (ties
    broken by the exact elementwise minimum) makes the result independent
    of the tile sizes, so callers may tune them freely without changing a
    single bit of output.
    """
    rows, mids = A.shape
    mids_b, cols = B.shape
    if mids != mids_b:
        raise ValueError(f"shape mismatch: {A.shape} x {B.shape}")
    out = np.full((rows, cols), _init_value(A.dtype), dtype=A.dtype)
    for i0 in range(0, rows, tile_i):
        i1 = min(rows, i0 + tile_i)
        for k0 in range(0, mids, tile_k):
            k1 = min(mids, k0 + tile_k)
            # One contiguous copy per (i, k) tile; reused across all j tiles.
            a = np.ascontiguousarray(A[i0:i1, k0:k1])[:, :, None]
            for j0 in range(0, cols, tile_j):
                j1 = min(cols, j0 + tile_j)
                tile = a + B[k0:k1, j0:j1][None, :, :]
                np.minimum(
                    out[i0:i1, j0:j1], tile.min(axis=1), out=out[i0:i1, j0:j1]
                )
    return out


# ----------------------------------------------------------------------
# the dense 3D Congested Clique baseline (CKKLPS 2015)
# ----------------------------------------------------------------------
def dense_mm(
    S: SemiringMatrix,
    T: SemiringMatrix,
    clique: Optional[Clique] = None,
    label: str = "dense-3d-mm",
) -> MatMulResult:
    """Multiply ``S · T`` with the dense 3D algorithm's round cost.

    The classic Congested Clique "3D" algorithm multiplies two dense
    ``n x n`` matrices over a semiring in ``O(n^{1/3})`` rounds: the
    product cube is split into ``n`` subcubes of side ``n^{2/3}``, each
    node learns the two input submatrices of its subcube (``n^{4/3}``
    entries, hence ``n^{1/3}`` rounds of routing), computes the partial
    product locally, and the partial results are summed with another
    ``n^{1/3}`` rounds of routing.
    """
    # Imported here: kernels.py imports this module for the array kernels,
    # so a module-level import would be circular.
    from repro.matmul.kernels import local_product

    S._check_compatible(T)
    clique = clique or Clique(S.n)
    n = S.n
    words = S.semiring.words_per_element()

    start_rounds = clique.rounds
    with clique.phase(label):
        # Subcube side length n^{2/3}: each node receives two submatrices of
        # n^{4/3} entries each and later ships the same volume of partial
        # sums, for O(n^{1/3}) rounds per step.
        side = max(1, math.ceil(n ** (2 / 3)))
        submatrix_entries = side * side
        clique.charge_broadcast(label="setup")
        clique.charge_routing(
            2 * submatrix_entries,
            2 * submatrix_entries,
            words,
            label="input-delivery",
        )
        product = local_product(S, T)
        clique.charge_routing(
            submatrix_entries,
            submatrix_entries,
            words,
            label="summation",
        )

    params = {
        "side": side,
        "predicted_rounds": n ** (1 / 3),
    }
    return MatMulResult(product, clique.rounds - start_rounds, clique, params)
