"""Witness extraction for distance products (Section 3.1, "Recovering paths").

The paper notes that because the sparse multiplication algorithms compute
every non-zero elementary product explicitly, they can also report a
*witness* for each output entry: a middle index ``w`` such that
``P[u, v] = S[u, w] + T[w, v]`` (over the min-plus family).  Witnesses are
what turns distance estimates into actual routing information — iterating
"who was the witness for this entry?" walks one hop at a time along an
optimal path.

This module provides witnessed variants of the local product kernels and a
witnessed filtered squaring, which the path-recovery layer
(:mod:`repro.distance.paths`) builds on.  The witnessed kernels are only
defined for ordered semirings whose addition is min (min-plus and the
augmented semiring), because "the term that achieved the minimum" must be
well defined.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

from repro.matmul.matrix import SemiringMatrix


@dataclasses.dataclass
class WitnessedProduct:
    """A product matrix together with per-entry witnesses.

    ``witnesses[i][j] = w`` means the value ``product[i, j]`` was realised by
    the elementary product ``S[i, w] · T[w, j]``.
    """

    product: SemiringMatrix
    witnesses: List[Dict[int, int]]

    def witness(self, i: int, j: int) -> Optional[int]:
        """The witness of entry ``(i, j)``, or ``None`` if the entry is zero."""
        return self.witnesses[i].get(j)


def witnessed_product(
    S: SemiringMatrix,
    T: SemiringMatrix,
    keep: Optional[int] = None,
    kernel: Optional[str] = None,
) -> WitnessedProduct:
    """Compute ``S · T`` with witnesses (dict or CSR kernel).

    ``keep`` applies ρ-filtering to the result, retaining the witnesses of
    the surviving entries.  Ties between equal candidate values are broken
    towards the smaller witness index so the result is deterministic —
    both kernels implement the same tie-break, so the kernel choice (cost
    model, ``kernel=``, or ``REPRO_KERNEL``) never affects the result.
    """
    from repro.matmul import csr as _csr
    from repro.matmul.kernels import DISPATCH

    semiring = S.semiring
    if not semiring.is_ordered():
        raise TypeError("witnessed products require an ordered (min) semiring")
    S._check_compatible(T)

    choice = DISPATCH.select(S, T, kernel, allowed=("dict", "csr"))
    if choice == "csr":
        matrix, witnesses = _csr.csr_witnessed_product(S, T)
        result = WitnessedProduct(product=matrix, witnesses=witnesses)
        if keep is not None:
            result = _filter_witnessed(result, keep)
        return result

    mul = semiring.mul
    zero = semiring.zero

    product = SemiringMatrix(S.n, semiring)
    witnesses: List[Dict[int, int]] = [dict() for _ in range(S.n)]
    t_rows = T.rows
    for i, s_row in enumerate(S.rows):
        out_row: Dict[int, Any] = {}
        wit_row = witnesses[i]
        for w, s_iw in sorted(s_row.items()):
            t_row = t_rows[w]
            if not t_row:
                continue
            for j, t_wj in t_row.items():
                value = mul(s_iw, t_wj)
                if value == zero:
                    continue
                current = out_row.get(j)
                if current is None or semiring.less(value, current):
                    out_row[j] = value
                    wit_row[j] = w
        product.rows[i] = out_row

    result = WitnessedProduct(product=product, witnesses=witnesses)
    if keep is not None:
        result = _filter_witnessed(result, keep)
    return result


def _filter_witnessed(result: WitnessedProduct, keep: int) -> WitnessedProduct:
    """Keep the ``keep`` smallest entries (and their witnesses) per row."""
    filtered_matrix = result.product.filter_rows(keep)
    filtered_witnesses: List[Dict[int, int]] = []
    for i in range(result.product.n):
        surviving = filtered_matrix.rows[i]
        filtered_witnesses.append(
            {j: result.witnesses[i][j] for j in surviving if j in result.witnesses[i]}
        )
    return WitnessedProduct(product=filtered_matrix, witnesses=filtered_witnesses)


def witnessed_squaring(
    W: SemiringMatrix,
    keep: int,
    squarings: int,
    kernel: Optional[str] = None,
) -> Tuple[SemiringMatrix, List[List[Dict[int, int]]]]:
    """Repeated witnessed ρ-filtered squaring.

    Returns the final filtered power and the list of per-level witness
    tables (one per squaring), which is exactly the information needed to
    expand an entry of ``W^(2^L)`` into a full node sequence: the witness at
    level L splits a path into two halves whose entries live at level L-1,
    and so on down to single edges.
    """
    if squarings < 0:
        raise ValueError("squarings must be non-negative")
    current = W.filter_rows(keep)
    witness_levels: List[List[Dict[int, int]]] = []
    for _ in range(squarings):
        step = witnessed_product(current, current, keep=keep, kernel=kernel)
        witness_levels.append(step.witnesses)
        current = step.product
    return current, witness_levels


def expand_path(
    u: int,
    v: int,
    witness_levels: List[List[Dict[int, int]]],
    level: Optional[int] = None,
) -> List[int]:
    """Expand the entry ``(u, v)`` of the top-level power into a node path.

    The path is returned as a list of nodes starting at ``u`` and ending at
    ``v``.  Entries that were already present before any squaring (direct
    edges or the diagonal) expand to the two endpoints.
    """
    if level is None:
        level = len(witness_levels)
    if u == v:
        return [u]
    if level == 0:
        return [u, v]
    witness_table = witness_levels[level - 1][u]
    w = witness_table.get(v)
    if w is None or w == u or w == v:
        # The entry was inherited unchanged from the previous level.
        return expand_path(u, v, witness_levels, level - 1)
    first = expand_path(u, w, witness_levels, level - 1)
    second = expand_path(w, v, witness_levels, level - 1)
    return first + second[1:]
