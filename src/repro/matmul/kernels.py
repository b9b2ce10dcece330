"""Local product kernels: sparse-dict, CSR, and dense tiers, behind a cost model.

In the Congested Clique algorithms each node computes products of the
submatrices it has learned *locally* — local computation is free in the
model, only communication costs rounds.  Four kernels provide that local
computation:

* ``dict`` — the reference dictionary-based sparse semiring product: a pure
  Python triple loop over ``rows``, works for any semiring, cost
  proportional to the number of elementary products.  Always available,
  slowest per product, and the bit-exact baseline every other tier is
  property-tested against.  It reads and writes dictionaries, so it decodes
  an array-resident operand and its result has to be encoded again by the
  next vectorised product.
* ``csr`` — the vectorised sparse kernels of :mod:`repro.matmul.csr`:
  gathers and segmented min-reductions over the operands' encoded CSR
  arrays, result returned array-resident.  Available for the min-plus
  family (floats / augmented int64 encoding) and the Boolean semiring;
  typically 10-50x faster than ``dict`` on sparse inputs.
* ``dense`` — the row-block dense broadcast kernel
  (:func:`repro.matmul.dense.minplus_matmul_arrays`): densify both
  operands and take a full ``n³`` min-plus, one ``(block, n, n)``
  temporary per row block.  Min-plus family only.
* ``dense-blocked`` — the cache-tiled dense kernel
  (:func:`repro.matmul.dense.minplus_blocked`): same ``n³`` product walked
  in cache-sized ``(i, k, j)`` tiles with a running minimum, so the
  temporaries stop thrashing memory bandwidth.  2-3x faster than
  ``dense`` at n >= 512.

Every vectorised tier takes its operands' encoded arrays (encoding a
dictionary-built operand once, cached on it) and returns an array-resident
:class:`~repro.matmul.matrix.SemiringMatrix`: ``keep=`` filters on the
codes before anything is decoded, and a chain of products never builds a
Python dictionary (see :mod:`repro.matmul.matrix` for the contract).

:class:`KernelDispatch` picks between them per call from estimated costs:
the number of elementary products ``Σ_k colnnz_S(k) · rownnz_T(k)`` (the
work of the sparse kernels) against the dense ``n³`` FLOP count, each
weighted by a per-kernel cost-per-operation plus fixed setup charges, and
conversion charged to the tier that forces it — encoding to the vectorised
tiers for an operand with no arrays yet, decoding to ``dict`` for an
array-resident one.  The product estimate is memoized on the left operand
(in its ``_cache``, dropped on mutation like every cached statistic), so
repeated calls on the same operands — the doubling passes of Theorem 8 —
pay it once instead of on every ``select()``.  The round-charged schedule
(:mod:`repro.matmul.output_sensitive`) dispatches once per pass, not per
subcube: its ``fast`` mode through :func:`local_product`, its ``faithful``
mode between the dictionary and the array evaluation of all the subcube
products.  The choice never affects the result — all tiers are
bit-identical on their common domain (property-tested).

Pinning a kernel: every product entry point accepts ``kernel="dict" |
"csr" | "dense" | "dense-blocked"``, and the ``REPRO_KERNEL``
environment variable pins the default process-wide (benchmarks and tests
use this; an env-pinned kernel that cannot handle the semiring or operation
at hand falls back to the cost model over the kernels that can, while an
explicitly passed one raises).

To measure the kernels, run ``python3 bench/run.py --workload paper-algos
--trace 1`` (``bench/README.md``): its ``matmul.local_product.*.s`` metrics
time one product under each pin, and ``matmul.filtered_mm.s``,
``distance.*.s``, ``hopsets.build_hopset.s`` and ``core.*.s`` the routines
built on them.
"""

from __future__ import annotations

import math
import os
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.matmul import csr as _csr
from repro.matmul import dense as _dense
from repro.matmul.matrix import (
    CSRMatrix,
    SemiringMatrix,
    csr_supported,
    from_csr,
    to_csr,
)
from repro.semiring.augmented import AugmentedMinPlusSemiring
from repro.semiring.base import Semiring
from repro.semiring.minplus import MinPlusSemiring

#: Environment variable pinning the kernel choice process-wide.
KERNEL_ENV_VAR = "REPRO_KERNEL"

#: Valid kernel names ("auto" defers to the cost model).
KERNEL_NAMES = ("auto", "dict", "csr", "dense", "dense-blocked")

#: The dense-array tiers (densify both operands, one n³ min-plus each).
DENSE_TIERS = ("dense", "dense-blocked")


class KernelDispatch:
    """Cost-model kernel selection for the local products.

    The unit is "one Python-level dictionary product" ≈ a microsecond for
    the augmented semiring; the other constants are measured relative to it
    on the products of the ``paper-algos`` benchmark workload (n=96) and a
    synthetic n=16..384 ladder.  The absolute values only matter near the
    crossover points, where all kernels are within a small factor of each
    other anyway.
    """

    def __init__(
        self,
        dict_op: float = 1.0,
        csr_op: float = 0.03,
        csr_setup: float = 150.0,
        csr_convert_per_nnz: float = 0.3,
        dense_op: float = 0.004,
        dense_setup: float = 150.0,
        dense_per_cell: float = 0.02,
        dense_blocked_op: float = 0.002,
    ):
        self.dict_op = dict_op
        self.csr_op = csr_op
        self.csr_setup = csr_setup
        self.csr_convert_per_nnz = csr_convert_per_nnz
        self.dense_op = dense_op
        self.dense_setup = dense_setup
        self.dense_per_cell = dense_per_cell
        self.dense_blocked_op = dense_blocked_op
        #: Per-kernel selection counts; surfaced as
        #: ``repro_kernel_selected_total{kernel=...}`` on the obs registry.
        self.selections: Dict[str, int] = {}

    # -- eligibility ----------------------------------------------------
    @staticmethod
    def csr_eligible(semiring: Semiring) -> bool:
        return csr_supported(semiring)

    @staticmethod
    def dense_eligible(semiring: Semiring) -> bool:
        return isinstance(semiring, (MinPlusSemiring, AugmentedMinPlusSemiring))

    # -- cost model -----------------------------------------------------
    @staticmethod
    def estimated_products(S: SemiringMatrix, T: SemiringMatrix) -> int:
        """Estimated elementary products ``Σ_k colnnz_S(k) · rownnz_T(k)``."""
        return int(S._col_counts() @ T._row_counts())

    def _memoized_products(self, S: SemiringMatrix, T: SemiringMatrix) -> int:
        """:meth:`estimated_products`, memoized on ``S`` for its last ``T``.

        The memo lives in ``S._cache`` and names ``T`` by a token object in
        ``T._cache``, so mutating either operand drops it with their other
        cached statistics, and a freed operand can never be mistaken for a
        new one (the memo keeps the token, not an ``id``, alive).
        """
        token = T._cache.get("token")
        if token is None:
            token = T._cache["token"] = object()
        memo = S._cache.get("products")
        if memo is None or memo[0] is not token:
            memo = S._cache["products"] = (token, self.estimated_products(S, T))
        return memo[1]

    def _record_selection(self, choice: str) -> str:
        """Count the selected tier (dict bump + a registry series per tier).

        The registry counter is callback-backed by :attr:`selections`, so
        the per-call cost is one dict increment; the counter child is
        created once per distinct kernel name.
        """
        if choice not in self.selections:
            self.selections[choice] = 0
            from repro.obs.metrics import get_registry
            get_registry().counter(
                "repro_kernel_selected_total",
                "Kernel tiers chosen by KernelDispatch.select",
                labels={"kernel": choice},
            ).set_function(
                lambda d, _k=choice: d.selections.get(_k, 0), self)
        self.selections[choice] += 1
        return choice

    def costs(self, S: SemiringMatrix, T: SemiringMatrix) -> Dict[str, float]:
        """Estimated cost of each eligible kernel (in dict-product units).

        Conversion between the two representations is charged to whoever
        forces it: the vectorised tiers pay to encode an operand that has
        no arrays yet, the ``dict`` tier pays to decode an array-resident
        one.
        """
        products = self._memoized_products(S, T)
        operands = (S,) if S is T else (S, T)
        nnz = S.nnz() + T.nnz()
        n = S.n
        decode = sum(op.nnz() for op in operands if not op.materialised)
        out = {"dict": products * self.dict_op + decode * self.csr_convert_per_nnz}
        encode = (
            sum(op.nnz() for op in operands if not op.encoded)
            * self.csr_convert_per_nnz
        )
        if self.csr_eligible(S.semiring):
            out["csr"] = (
                self.csr_setup + encode + products * self.csr_op + nnz * 0.05
            )
        if self.dense_eligible(S.semiring):
            densify = self.dense_setup + encode + 2 * n * n * self.dense_per_cell
            cube = float(n) ** 3
            out["dense"] = densify + cube * self.dense_op
            out["dense-blocked"] = densify + cube * self.dense_blocked_op
        return out

    # -- selection ------------------------------------------------------
    def select(
        self,
        S: SemiringMatrix,
        T: SemiringMatrix,
        kernel: Optional[str] = None,
        allowed: Sequence[str] = ("dict", "csr", "dense"),
    ) -> str:
        """Resolve the kernel for one product call.

        Priority: explicit ``kernel`` argument (raises if the semiring
        cannot use it), then the ``REPRO_KERNEL`` environment variable
        (falls back to the cost model if ineligible), then the cost model.
        ``allowed`` restricts the menu for callers that lack a kernel
        variant (e.g. witnessed products have no dense form); listing
        ``"dense"`` admits the whole dense-array family (``dense`` and
        ``dense-blocked``).
        """
        eligible = {"dict"}
        if "csr" in allowed and self.csr_eligible(S.semiring):
            eligible.add("csr")
        if "dense" in allowed and self.dense_eligible(S.semiring):
            eligible.add("dense")
            eligible.add("dense-blocked")

        if kernel is not None:
            if kernel not in KERNEL_NAMES:
                raise ValueError(
                    f"unknown kernel {kernel!r}; valid kernels: {KERNEL_NAMES}"
                )
            if kernel != "auto":
                if kernel not in eligible:
                    raise ValueError(
                        f"kernel {kernel!r} does not support the "
                        f"{S.semiring.name} semiring (or this operation); "
                        f"eligible: {sorted(eligible)}"
                    )
                return self._record_selection(kernel)

        pinned = os.environ.get(KERNEL_ENV_VAR)
        if pinned and pinned != "auto":
            if pinned not in KERNEL_NAMES:
                raise ValueError(
                    f"{KERNEL_ENV_VAR}={pinned!r} is not a valid kernel; "
                    f"valid kernels: {KERNEL_NAMES}"
                )
            if pinned in eligible:
                return self._record_selection(pinned)
            # Pinned kernel can't run this call (wrong semiring or no such
            # variant): fall through to the cost model
            # over the eligible set.

        costs = self.costs(S, T)
        return self._record_selection(min(
            (name for name in costs if name in eligible),
            key=lambda name: costs[name],
        ))


#: Process-wide dispatcher instance (benchmarks may tweak its constants).
DISPATCH = KernelDispatch()


def local_product(
    S: SemiringMatrix,
    T: SemiringMatrix,
    keep: Optional[int] = None,
    kernel: Optional[str] = None,
) -> SemiringMatrix:
    """Compute ``P = S · T`` over the matrices' semiring.

    ``keep``, if given, applies ρ-filtering with ρ = ``keep`` to the result
    (requires an ordered semiring).  The kernel tier (sparse dictionaries,
    CSR, or one of the dense-array tiers) is chosen by the cost model
    unless pinned via ``kernel`` or the ``REPRO_KERNEL`` environment
    variable, and never affects the result.
    """
    S._check_compatible(T)
    choice = DISPATCH.select(S, T, kernel)
    if choice == "csr":
        return _csr.csr_product(S, T, keep=keep)
    if choice in DENSE_TIERS:
        return _numpy_product(S, T, variant=choice, keep=keep)
    product = sparse_dict_product(S, T)
    if keep is not None:
        product = product.filter_rows(keep)
    return product


def sparse_dict_product(S: SemiringMatrix, T: SemiringMatrix) -> SemiringMatrix:
    """Dictionary-based sparse product (reference implementation)."""
    semiring = S.semiring
    add = semiring.add
    mul = semiring.mul
    zero = semiring.zero
    result = SemiringMatrix(S.n, semiring)
    t_rows = T.rows
    for i, s_row in enumerate(S.rows):
        out_row: Dict[int, Any] = {}
        for k, s_ik in s_row.items():
            t_row = t_rows[k]
            if not t_row:
                continue
            for j, t_kj in t_row.items():
                value = mul(s_ik, t_kj)
                if value == zero:
                    continue
                current = out_row.get(j)
                out_row[j] = value if current is None else add(current, value)
        result.rows[i] = {j: v for j, v in out_row.items() if v != zero}
    return result


def submatrix_product(
    S: SemiringMatrix,
    T: SemiringMatrix,
    row_set: Sequence[int],
    mid_set: Sequence[int],
    col_set: Sequence[int],
    kernel: Optional[str] = None,
) -> Dict[Tuple[int, int], Any]:
    """Compute the subcube product ``S[row_set, mid_set] · T[mid_set, col_set]``.

    Returns a dictionary keyed by global ``(row, col)`` positions.  This is
    exactly the work a single node does for one assigned subcube in the
    Theorem 8 / Theorem 14 algorithms (the faithful schedule itself
    evaluates all subcubes of a pass together, see
    :func:`repro.matmul.csr.csr_subcube_products`).
    """
    if DISPATCH.select(S, T, kernel, allowed=("dict", "csr")) == "dict":
        return _dict_submatrix_product(S, T, row_set, mid_set, col_set)
    product = _csr.csr_submatrix_product(S, T, row_set, mid_set, col_set)
    return {(i, j): value for i, j, value in product.entries()}


def _dict_submatrix_product(
    S: SemiringMatrix,
    T: SemiringMatrix,
    row_set: Sequence[int],
    mid_set: Sequence[int],
    col_set: Sequence[int],
) -> Dict[Tuple[int, int], Any]:
    """Reference dictionary evaluation of the subcube product."""
    semiring = S.semiring
    add = semiring.add
    mul = semiring.mul
    zero = semiring.zero
    cols = set(col_set)
    mids = set(mid_set)
    out: Dict[Tuple[int, int], Any] = {}
    s_rows, t_rows = S.rows, T.rows
    for i in row_set:
        s_row = s_rows[i]
        if not s_row:
            continue
        if len(s_row) <= len(mids):
            mid_items = [(k, v) for k, v in s_row.items() if k in mids]
        else:
            mid_items = [(k, s_row[k]) for k in mids if k in s_row]
        for k, s_ik in mid_items:
            t_row = t_rows[k]
            if not t_row:
                continue
            if len(t_row) <= len(cols):
                col_items = [(j, v) for j, v in t_row.items() if j in cols]
            else:
                col_items = [(j, t_row[j]) for j in cols if j in t_row]
            for j, t_kj in col_items:
                value = mul(s_ik, t_kj)
                if value == zero:
                    continue
                key = (i, j)
                current = out.get(key)
                out[key] = value if current is None else add(current, value)
    return out


def _numpy_product(S: SemiringMatrix, T: SemiringMatrix,
                   variant: str = "dense",
                   keep: Optional[int] = None) -> SemiringMatrix:
    """Densify, run one of the dense-array tiers, ρ-filter on the codes.

    Sums involving an absent entry land at or above the encoding's
    infinity, which :meth:`CSRMatrix.from_dense` drops.
    """
    A = to_csr(S).dense()
    B = to_csr(T).dense()
    if variant == "dense-blocked":
        C = _dense.minplus_blocked(A, B)
    else:
        C = _dense.minplus_matmul_arrays(A, B)
    return from_csr(CSRMatrix.from_dense(C, S.semiring, keep))


def iterated_squaring(
    W: SemiringMatrix,
    power: int,
    keep: Optional[int] = None,
    kernel: Optional[str] = None,
) -> SemiringMatrix:
    """Compute ``W`` to the given power by repeated squaring (local only).

    Used by reference computations in tests; the distributed algorithms
    perform their own squaring through the round-charged multiplication
    routines.
    """
    if power < 1:
        raise ValueError("power must be at least 1")
    result = W if keep is None else W.filter_rows(keep)
    steps = max(0, math.ceil(math.log2(power)))
    for _ in range(steps):
        result = local_product(result, result, keep=keep, kernel=kernel)
    return result
