"""The augmented min-plus semiring of Section 3.1.

Elements are pairs ``(weight, hops)``; addition is the lexicographic minimum
and multiplication adds component-wise.  Tracking the hop count alongside the
weight is what makes the k-nearest and source-detection tools *consistent*
(Lemma 17): every prefix of a recorded shortest path is itself recorded.

For fast local computation the semiring also provides an order-preserving
encoding into Python integers / numpy ``int64``::

    encode(w, t) = w * hop_base + t        with  t < hop_base

Because hop counts of two multiplied entries add to at most ``2 n`` we pick
``hop_base > 2 n``; then encoding addition component-wise equals integer
addition of encodings, and lexicographic comparison equals integer
comparison.  This lets the matmul kernels run min-plus products on int64
arrays while remaining bit-exact with the tuple semantics.
:meth:`AugmentedMinPlusSemiring.encode_array` / ``decode_array`` are the
vectorised form of the codec — the one :mod:`repro.matmul.matrix` uses to
move whole matrices between dict rows and encoded arrays.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Tuple

import numpy as np

from repro.semiring.base import Semiring


class AugmentedEntry(NamedTuple):
    """A ``(weight, hops)`` element of the augmented semiring."""

    weight: float
    hops: float


class AugmentedMinPlusSemiring(Semiring):
    """Augmented min-plus semiring over ``(weight, hops)`` pairs.

    Parameters
    ----------
    hop_base:
        Strictly larger than any hop count that can arise (use ``2 n + 2``
        for an ``n``-node graph, since products add hop counts of two
        entries each at most ``n``).
    weight_bound:
        Upper bound (exclusive) on any finite weight that can arise during
        the computation, used to pick the integer encoding of infinity.
        Weights are assumed to be non-negative integers (Section 1.5).
    """

    name = "augmented-min-plus"

    def __init__(self, hop_base: int, weight_bound: int):
        if hop_base <= 1:
            raise ValueError("hop_base must be at least 2")
        if weight_bound <= 0:
            raise ValueError("weight_bound must be positive")
        self.hop_base = int(hop_base)
        self.weight_bound = int(weight_bound)
        # The encoded infinity must dominate any sum of two finite encodings.
        self._inf_code = 2 * self.weight_bound * self.hop_base + 2 * self.hop_base + 1
        self._zero = AugmentedEntry(math.inf, math.inf)
        self._one = AugmentedEntry(0, 0)

    # -- semiring interface --------------------------------------------
    @property
    def zero(self) -> AugmentedEntry:
        return self._zero

    @property
    def one(self) -> AugmentedEntry:
        return self._one

    def add(self, x: AugmentedEntry, y: AugmentedEntry) -> AugmentedEntry:
        return x if x <= y else y

    def mul(self, x: AugmentedEntry, y: AugmentedEntry) -> AugmentedEntry:
        if x[0] == math.inf or y[0] == math.inf:
            return self._zero
        return AugmentedEntry(x[0] + y[0], x[1] + y[1])

    def is_ordered(self) -> bool:
        return True

    def less(self, x: AugmentedEntry, y: AugmentedEntry) -> bool:
        return x < y

    def words_per_element(self) -> int:
        # One word for the weight, one for the hop count.
        return 2

    # -- integer encoding ------------------------------------------------
    def encode(self, entry: AugmentedEntry | Tuple[float, float]) -> int:
        """Encode ``(weight, hops)`` as an order/addition-preserving integer."""
        weight, hops = entry
        if weight == math.inf or hops == math.inf:
            return self._inf_code
        if weight < 0:
            raise ValueError(f"weights must be non-negative, got {weight}")
        if hops >= self.hop_base:
            raise ValueError(
                f"hop count {hops} exceeds hop_base {self.hop_base}; "
                "construct the semiring with a larger hop_base"
            )
        return int(weight) * self.hop_base + int(hops)

    def decode(self, code: int) -> AugmentedEntry:
        """Inverse of :meth:`encode` (any code >= the infinity code is ∞)."""
        if code >= self._inf_code:
            return self._zero
        weight, hops = divmod(int(code), self.hop_base)
        return AugmentedEntry(weight, hops)

    def encode_array(self, weights: np.ndarray, hops: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`encode`: ``int64`` codes of ``(weights, hops)``."""
        weights = np.asarray(weights, dtype=np.float64)
        hops = np.asarray(hops, dtype=np.float64)
        infinite = np.isinf(weights) | np.isinf(hops)
        if infinite.any():
            weights = np.where(infinite, 0.0, weights)
            hops = np.where(infinite, 0.0, hops)
        if (weights < 0).any():
            raise ValueError(
                f"weights must be non-negative, got {weights.min()}"
            )
        if (hops >= self.hop_base).any():
            raise ValueError(
                f"hop count {hops.max()} exceeds hop_base {self.hop_base}; "
                "construct the semiring with a larger hop_base"
            )
        codes = weights.astype(np.int64) * self.hop_base + hops.astype(np.int64)
        codes[infinite] = self._inf_code
        return codes

    def decode_array(self, codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`decode` of finite codes: ``(weights, hops)``.

        Matrices never store the additive identity, so callers drop codes at
        or above :attr:`inf_code` before decoding.
        """
        return np.divmod(codes, self.hop_base)

    @property
    def inf_code(self) -> int:
        """The integer encoding of the additive identity (∞, ∞)."""
        return self._inf_code

    def make(self, weight: float, hops: float = 1) -> AugmentedEntry:
        """Convenience constructor for an entry."""
        return AugmentedEntry(weight, hops)


def augmented_semiring_for(n: int, max_weight: float) -> AugmentedMinPlusSemiring:
    """Build an augmented semiring sized for an ``n``-node graph.

    ``max_weight`` is the largest edge weight; path weights are then at most
    ``n * max_weight``, which bounds every finite value the computation can
    produce (including sums of two path weights inside a product).
    """
    max_weight_int = int(math.ceil(max_weight)) if max_weight > 0 else 1
    weight_bound = max(2, n * max_weight_int + 1)
    hop_base = 2 * n + 2
    return AugmentedMinPlusSemiring(hop_base=hop_base, weight_bound=weight_bound)
