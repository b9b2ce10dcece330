"""Matrix substrate and Congested Clique matrix-multiplication algorithms.

This package contains the paper's Section 2 in executable form:

* :mod:`repro.matmul.matrix` — sparse matrices over a semiring in their
  two representations (per-row dictionaries and the encoded CSR arrays the
  product chain stays in), densities ρ, row filtering.
* :mod:`repro.matmul.kernels` — the local product kernels (sparse-dict,
  CSR, dense) behind the :class:`~repro.matmul.kernels.KernelDispatch`
  cost model.
* :mod:`repro.matmul.csr` — the vectorised CSR kernels (numpy gathers +
  segmented min-reductions for the min-plus family and the Boolean
  semiring), including all subcube products of a cube partition at once.
* :mod:`repro.matmul.partition` — the constructive partition lemmas
  (Lemmas 5-7) and the cube partitioning of Lemma 9.
* :mod:`repro.matmul.balancing` — per-subcube input loads and the round
  charges of the balancing tools (Lemmas 9-13).
* :mod:`repro.matmul.dense` — the dense 3D semiring algorithm of
  Censor-Hillel et al. (2015), used as a baseline, and the dense-array
  kernel tiers.
* :mod:`repro.matmul.output_sensitive` — **Theorem 8**, output-sensitive
  sparse matrix multiplication, and the one Section 2.1 schedule
  (``run_schedule``) with its two load sources (``execution="faithful"``
  measures, ``"fast"`` derives from densities).
* :mod:`repro.matmul.filtered` — **Theorem 14**, sparse matrix
  multiplication with on-the-fly output sparsification: that schedule
  with the filter stage on.
* :mod:`repro.matmul.sparse_clt18` — the sparse algorithm of Censor-Hillel,
  Leitersdorf and Turner (2018), used as a baseline: that schedule with
  ``ρ̂ = n``.
* :mod:`repro.matmul.parallel`, :mod:`repro.matmul.witness` — the
  row-slab executor of the parallel builds and witnessed products.
"""

from repro.matmul.matrix import CSRMatrix, SemiringMatrix, from_csr, to_csr
from repro.matmul.results import MatMulResult
from repro.matmul.kernels import KERNEL_NAMES, KernelDispatch, local_product
from repro.matmul.dense import dense_mm
from repro.matmul.sparse_clt18 import sparse_mm_clt18
from repro.matmul.output_sensitive import output_sensitive_mm
from repro.matmul.filtered import filtered_mm
from repro.matmul.witness import WitnessedProduct, witnessed_product, witnessed_squaring

__all__ = [
    "SemiringMatrix",
    "MatMulResult",
    "CSRMatrix",
    "to_csr",
    "from_csr",
    "KERNEL_NAMES",
    "KernelDispatch",
    "local_product",
    "dense_mm",
    "sparse_mm_clt18",
    "output_sensitive_mm",
    "filtered_mm",
    "WitnessedProduct",
    "witnessed_product",
    "witnessed_squaring",
]
