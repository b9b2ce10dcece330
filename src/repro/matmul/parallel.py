"""Process-parallel row-slab execution for the exact min-plus closure.

The paper's Congested Clique algorithms are row-parallel by construction:
each of the ``n`` machines owns one row slab of the semiring product and
never writes outside it.  This module exploits that decomposition on real
cores for the build-side APSP closure:

* With a pool (``jobs > 1``), operands are shared **read-only** between
  worker processes as raw memory-mapped files in a temporary directory —
  a spawn-context pool (safe under threads, identical semantics on every
  platform) receives picklable :class:`SharedArray` handles, never array
  payloads.  Without one (``jobs=1``) they are :class:`LocalArray`
  handles on private in-process arrays: the tasks run inline, and nothing
  is written to disk.
* Each task computes one contiguous **row slab** of the output and writes
  it into its disjoint slice of a shared output, so stitching is
  deterministic regardless of completion order.
* Per-row results depend only on the operands — never on the slab
  boundaries or the worker count — so ``jobs=1`` (which runs every task
  inline: no pool, no pickling and no files) is **bit-identical** to
  ``jobs=K`` for any ``K``.  The oracle build path relies on this for its
  jobs-parity guarantee (same per-shard SHA-256 at any job count).

The closure (:func:`minplus_closure`) iterates the product with the
**sparse** adjacency matrix, as the paper's exact routines do (Theorems 3
and 33): ``D ← min(D, W ⊗ D)`` through the edges of ``W``, which costs
``n · nnz(W)`` a step where squaring ``D`` costs ``n³``, for as many steps
as the shortest-path diameter (Lemma 32).  It loses to squaring only on
nearly complete graphs (``m > n²/4``), where the table is the graph.  It
synchronises once per step: row ``v`` of the next ``D`` is a minimum — order
free, hence exact — over ``D[v]`` and ``w(v, u) + D[u]``, each a single
add, read from the same shared ``D`` of the previous step whatever slab
``v`` falls in; the two outputs swap, and the loop stops at the first step
where no row moved — a global condition, hence the same step count (and the
same bits) at every job count.  Nothing is ``msync``-ed: ``MAP_SHARED``
mappings of one file see each other's writes through the page cache, the
pool's ``map`` is the barrier, and a temporary file needs no durability.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import shutil
import tempfile
import uuid
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

#: Spawn context: fork is unsafe in processes that ever started threads
#: (the serving stack does), and spawn keeps worker state explicit.
SPAWN_CONTEXT = multiprocessing.get_context("spawn")

#: Floats one relaxation round gathers (rows × n; 256 KiB of float64, so
#: the gather, the add and the minimum all run out of cache) — the
#: closure's counterpart of ``repro.matmul.dense.TILE_*``.
CHUNK_FLOATS = 1 << 15


def slab_ranges(n: int, slabs: int) -> List[Tuple[int, int]]:
    """Split ``range(n)`` into ``slabs`` contiguous near-equal row ranges."""
    if not 1 <= slabs <= n:
        raise ValueError(f"slabs must be in [1, {n}], got {slabs}")
    per = -(-n // slabs)  # ceil division
    ranges = []
    start = 0
    while start < n:
        stop = min(n, start + per)
        ranges.append((start, stop))
        start = stop
    return ranges


@dataclasses.dataclass(frozen=True)
class SharedArray:
    """A picklable handle to a raw array file shared between processes.

    Only the path and the layout cross the process boundary; the payload
    stays in the page cache and is mapped on demand by :meth:`open`.
    """

    path: str
    dtype: str
    shape: Tuple[int, ...]

    def open(self, mode: str = "r") -> np.memmap:
        """Map the file; ``"r"`` for operands, ``"r+"`` for outputs."""
        return np.memmap(self.path, dtype=np.dtype(self.dtype), mode=mode,
                         shape=self.shape)


@dataclasses.dataclass(frozen=True, eq=False)
class LocalArray:
    """:class:`SharedArray`'s in-process twin, for tasks that run inline."""

    array: np.ndarray

    def open(self, mode: str = "r") -> np.ndarray:
        """The array itself; read-only for ``"r"``, as a map would be."""
        if mode != "r":
            return self.array
        view = self.array.view()
        view.flags.writeable = False
        return view


#: What :class:`SlabExecutor` hands its tasks: both have ``open(mode)``.
Handle = Union[SharedArray, LocalArray]


class SlabExecutor:
    """Run row-slab tasks inline on private arrays, or on a pool over maps.

    Use as a context manager::

        with SlabExecutor(jobs=4) as ex:
            W = ex.share("adjacency", adjacency)
            closure, steps = minplus_closure(ex, W)
            dist = np.array(closure.open())

    ``jobs=1`` never creates a pool and writes no file: every task runs
    inline in submission order on :class:`LocalArray` handles, which
    doubles as the bit-exact serial baseline.  ``jobs > 1`` shares
    :class:`SharedArray` maps in a temporary directory with a spawn pool.
    An existing spawn-context pool can be injected via ``pool=`` (the
    executor then does not close it) — the test suite shares one pool
    across hypothesis examples this way.  The temporary directory is
    removed on exit, so results of a pooled run needed afterwards must be
    copied out with ``np.array`` (``np.asarray`` of a map is a view of it).
    """

    def __init__(self, jobs: int = 1, pool=None, tmp_dir: Optional[str] = None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._injected_pool = pool
        self._pool = None
        self._tmp_root = tmp_dir
        self._tmp: Optional[str] = None
        self._entered = False

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "SlabExecutor":
        if self.jobs > 1:
            self._tmp = tempfile.mkdtemp(prefix="repro-slab-", dir=self._tmp_root)
            pool = self._injected_pool
            self._pool = pool if pool is not None else SPAWN_CONTEXT.Pool(self.jobs)
        self._entered = True
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None and self._injected_pool is None:
            self._pool.terminate()
            self._pool.join()
        self._pool = None
        if self._tmp is not None:
            shutil.rmtree(self._tmp, ignore_errors=True)
            self._tmp = None
        self._entered = False

    def _path(self, name: str) -> Optional[str]:
        """A fresh file for a pooled run; ``None`` when tasks run inline."""
        if not self._entered:
            raise RuntimeError("SlabExecutor must be entered before use")
        if self._tmp is None:
            return None
        return os.path.join(self._tmp, f"{name}-{uuid.uuid4().hex[:8]}.bin")

    # -- shared arrays --------------------------------------------------
    def share(self, name: str, array: np.ndarray) -> Handle:
        """Copy ``array`` into a read-only operand; returns its handle."""
        path = self._path(name)
        if path is None:
            return LocalArray(np.array(array, order="C"))
        array = np.ascontiguousarray(array)
        handle = SharedArray(path, str(array.dtype), array.shape)
        np.memmap(path, dtype=array.dtype, mode="w+",
                  shape=array.shape)[...] = array
        return handle

    def empty(self, name: str, dtype, shape: Tuple[int, ...]) -> Handle:
        """Allocate an uninitialised output; returns its handle."""
        path = self._path(name)
        if path is None:
            return LocalArray(np.empty(shape, dtype=dtype))
        handle = SharedArray(path, str(np.dtype(dtype)), tuple(shape))
        np.memmap(path, dtype=np.dtype(dtype), mode="w+",
                  shape=tuple(shape))
        return handle

    # -- task execution -------------------------------------------------
    def map(self, fn: Callable, tasks: Sequence) -> List:
        """Apply ``fn`` to every task; pooled when ``jobs > 1``.

        ``fn`` must be a module-level function (spawn workers pickle it by
        reference) and tasks must be picklable.  Results come back in task
        order either way.
        """
        tasks = list(tasks)
        if self._pool is None or len(tasks) <= 1:
            return [fn(task) for task in tasks]
        return self._pool.map(fn, tasks)


# ----------------------------------------------------------------------
# the closure: worker (module-level: spawn workers import it by name), driver
# ----------------------------------------------------------------------
def _band_rows(n: int) -> int:
    """Output rows one round may touch: ``CHUNK_FLOATS`` of ``n``-wide rows."""
    return max(1, CHUNK_FLOATS // n)


def _relax_slab(task) -> np.ndarray:
    """Rows ``[start, stop)`` of ``min(D, W ⊗ D)``; returns which of them moved.

    Only edges into a row of ``D`` that moved in the previous step are
    relaxed (an unmoved row's candidates are already in ``D``).  The edges
    arrive sorted by round, and a round holds at most one edge per output
    row: one row gather, one add, one minimum into distinct rows.
    """
    index_h, weights_h, D_h, out_h, moved, start, stop = task
    rounds, rows, cols = np.asarray(index_h.open())
    D = np.asarray(D_h.open())
    block = D[start:stop].copy()
    live = np.flatnonzero((rows >= start) & (rows < stop) & moved[cols])
    rounds, target, source = rounds[live], rows[live] - start, cols[live]
    weight = np.asarray(weights_h.open())[live]
    # Two buffers for the whole step: a fresh array this size per round
    # would be page-faulted in by malloc every time.
    through, into = np.empty(
        (2, min(_band_rows(len(D)), stop - start), D.shape[1]))
    cuts = np.flatnonzero(rounds[1:] != rounds[:-1]) + 1
    cuts = [0, *cuts.tolist(), len(live)]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        rows_in = target[lo:hi]
        via = np.take(D, source[lo:hi], axis=0, out=through[:hi - lo],
                      mode="clip")
        via += weight[lo:hi, None]
        best = np.take(block, rows_in, axis=0, out=into[:hi - lo], mode="clip")
        block[rows_in] = np.minimum(best, via, out=best)
    np.asarray(out_h.open("r+"))[start:stop] = block
    return (block != D[start:stop]).any(axis=1)


def minplus_closure(
    executor: SlabExecutor,
    W: Handle,
    slabs: Optional[int] = None,
) -> Tuple[Handle, int]:
    """All-pairs min-plus closure of ``W`` by step-synchronised relaxation.

    ``W`` must carry a zero diagonal (``d(v, v) = 0``).  Each step replaces
    ``D`` by ``min(D, W ⊗ D)`` through ``W``'s finite off-diagonal entries
    only, so after ``t`` steps every shortest path of at most ``t + 1``
    edges is settled and a step costs ``n · nnz(W)``, not ``n³``.  The loop
    stops at the first step that moves nothing: ``max(1, h)`` steps for
    shortest-path diameter ``h <= n - 1`` (Lemma 32).  Every step is a
    barrier — all slabs read the same shared ``D`` and the same set of rows
    that moved — so the step count, and therefore every bit of the result,
    is identical at every job count.

    Returns ``(closure_handle, steps)``; a pooled run's handle lives in
    the executor's temporary directory and dies with it.
    """
    dense = np.asarray(W.open())
    n = len(dense)
    rows, cols = np.nonzero(np.isfinite(dense) & ~np.eye(n, dtype=bool))
    if len(rows) == 0:  # no edges (an empty file cannot be mapped either)
        return W, 1
    # An edge's round: the band of output rows its row is in, then its
    # position within the row.  Sorted once, shared once.
    position = np.arange(len(rows)) - np.searchsorted(rows, rows)
    rounds = rows // _band_rows(n) * n + position
    order = np.argsort(rounds, kind="stable")
    index = executor.share("edges", np.stack([rounds, rows, cols])[:, order])
    weights = executor.share("weights", dense[rows, cols][order])
    ranges = slab_ranges(n, min(slabs or max(executor.jobs, 1), n))
    # W stays the caller's read-only operand: the steps ping/pong between
    # two outputs of their own.
    outputs = [executor.empty("closure", dense.dtype, dense.shape)
               for _ in range(2)]
    current, moved, steps = W, np.ones(n, dtype=bool), 0
    while moved.any() and steps < n - 1:
        out = outputs[steps % 2]
        moved = np.concatenate(executor.map(
            _relax_slab,
            [(index, weights, current, out, moved, start, stop)
             for start, stop in ranges],
        ))
        current, steps = out, steps + 1
    return current, steps


__all__ = [
    "LocalArray",
    "SharedArray",
    "SlabExecutor",
    "minplus_closure",
    "slab_ranges",
]
