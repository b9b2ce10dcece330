"""The in-memory build product and the schema every payload is held to.

An :class:`OracleArtifact` is what :class:`~repro.oracle.build.OracleBuilder`
returns: a JSON-able metadata dictionary (format version, strategy, graph
shape, epsilon, the advertised stretch guarantee, build provenance) plus
the named numpy arrays the strategy's query kernels read (see
:mod:`repro.oracle.strategies`).  It has no file format of its own: the
only way an artifact reaches or leaves disk is row shards plus a manifest
(:mod:`repro.oracle.sharding` — :meth:`OracleArtifact.save_sharded` writes
them, one shard by default; :func:`~repro.oracle.sharding.load_artifact`
opens them memory-mapped).  :func:`check_schema` is the one per-strategy
array schema (names *and* shapes) both sides are checked against.

A freshly built artifact is served through the same **row-access
protocol** — ``array_shape`` / ``row`` / ``rows`` / ``gather`` /
``common`` — which is all :class:`~repro.oracle.engine.QueryEngine` knows
about an artifact.  Here the accessors are plain indexing over the arrays:
the one-shard case (nothing is mapped, nothing faults, nothing can be
quarantined because no file is behind it) of what
:class:`~repro.oracle.sharding.ShardedOracleArtifact` answers shard by
shard from memory maps.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.oracle.strategies import StretchGuarantee, get_strategy

PathLike = Union[str, Path]

#: Bump on any incompatible payload/metadata change.
FORMAT_VERSION = 1


class ArtifactError(RuntimeError):
    """Raised for unreadable, corrupt, or incompatible artifacts."""


def check_schema(artifact, values: bool = True) -> None:
    """Check a payload's array names and shapes against its strategy.

    ``artifact`` is either representation — the check reads only
    ``array_names``/``array_shape`` (and, for the spanner CSR's extent,
    row pointers and column range, ``common``).  ``values=False`` skips
    those data-reading checks, so a sharded artifact can run the rest from
    its manifest without opening a shard.
    """
    spec = get_strategy(artifact.strategy)
    n = artifact.n
    present = artifact.array_names
    missing = [name for name in spec.required_arrays if name not in present]
    if missing:
        raise ArtifactError(
            f"artifact for strategy {artifact.strategy!r} is missing payload "
            f"arrays {missing}; present: {present}"
        )
    shapes = {name: artifact.array_shape(name) for name in spec.required_arrays}

    def expect(name: str, shape: Tuple[int, ...], why: str) -> None:
        if shapes[name] != shape:
            raise ArtifactError(
                f"payload array {name!r} of the {artifact.strategy!r} "
                f"artifact (n={n}) has shape {shapes[name]}, expected "
                f"{shape}: {why}"
            )

    for name in spec.row_sharded_arrays:
        expect(name, (n,) + shapes[name][1:], "one row per node")
    if "dist" in shapes:
        expect("dist", (n, n), "the all-pairs table is n x n")
    if "ball_idx" in shapes:
        expect("ball_dist", shapes["ball_idx"],
               "ball ids and ball distances pair up slot by slot")
    if "spanner_indptr" in shapes:
        expect("spanner_indptr", (n + 1,), "CSR row pointers")
        edges = shapes["spanner_indices"][:1]
        if values:
            indptr = artifact.common("spanner_indptr")
            if indptr[0] != 0 or (np.diff(indptr) < 0).any():
                raise ArtifactError(
                    f"payload array 'spanner_indptr' of the "
                    f"{artifact.strategy!r} artifact (n={n}) is not a CSR row "
                    f"pointer: it must start at 0 and never decrease"
                )
            edges = (int(indptr[-1]),)
        expect("spanner_indices", edges, "one column per CSR entry")
        expect("spanner_weights", edges, "one weight per CSR entry")
        if values and edges[0]:
            indices = artifact.common("spanner_indices")
            if indices.min() < 0 or indices.max() >= n:
                raise ArtifactError(
                    f"payload array 'spanner_indices' of the "
                    f"{artifact.strategy!r} artifact (n={n}) holds column "
                    f"ids outside [0, {n})"
                )


@dataclasses.dataclass(eq=False)
class ArtifactMetadata:
    """Typed reads of the ``metadata`` dictionary every artifact carries —
    built in memory or opened from shards, the schema is the same."""

    metadata: Dict[str, Any]

    @property
    def strategy(self) -> str:
        return str(self.metadata["strategy"])

    @property
    def n(self) -> int:
        return int(self.metadata["n"])

    @property
    def epsilon(self) -> float:
        return float(self.metadata["epsilon"])

    @property
    def stretch(self) -> StretchGuarantee:
        return StretchGuarantee.from_dict(self.metadata["stretch"])

    @property
    def query_kind(self) -> str:
        """Engine kernel family serving this payload (metadata-recorded;
        falls back to the registered spec for pre-PR10 artifacts)."""
        kind = self.metadata.get("query_kind")
        if kind is not None:
            return str(kind)
        return get_strategy(self.strategy).query_kind

    @property
    def build_rounds(self) -> float:
        return float(self.metadata["build"]["rounds"])


@dataclasses.dataclass
class OracleArtifact(ArtifactMetadata):
    """A built oracle: JSON-able metadata plus named numpy arrays.

    The metadata dictionary always contains ``format_version``,
    ``strategy``, ``n``, ``num_edges``, ``epsilon``, ``max_weight``,
    ``stretch`` (multiplicative/additive) and ``build`` (rounds, seconds,
    plus strategy-specific detail such as the landmark count).
    """

    arrays: Dict[str, np.ndarray]

    def validate(self) -> None:
        """Check the payload matches the strategy's array schema."""
        check_schema(self)

    # ------------------------------------------------------------------
    # row-access protocol: the one-shard, fully resident case
    # ------------------------------------------------------------------
    num_shards = 1
    mapped_bytes = 0
    faults = 0

    @property
    def array_names(self) -> List[str]:
        return sorted(self.arrays)

    def array_shape(self, name: str) -> Tuple[int, ...]:
        """Shape of payload array ``name`` (``KeyError`` if absent)."""
        return tuple(self.arrays[name].shape)

    def row(self, name: str, index: int) -> np.ndarray:
        return self.arrays[name][index]

    def rows(self, name: str, indices: np.ndarray) -> np.ndarray:
        return self.arrays[name][indices]

    def gather(self, name: str, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.arrays[name][rows, cols]

    def common(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def resident_bytes(self) -> int:
        return sum(array.nbytes for array in self.arrays.values())

    def quarantine_rows(self, rows: Sequence[int]) -> List[int]:
        """Nothing to re-verify: no file is behind a build product."""
        return []

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save_sharded(self, path: PathLike, num_shards: int = 1):
        """Write the artifact as row shards plus a manifest — the one way
        to disk.

        Returns ``(manifest_path, shard_paths)``.  See
        :mod:`repro.oracle.sharding` for the format; the written shards are
        memory-mappable, so a :class:`~repro.oracle.sharding.
        ShardedOracleArtifact` loaded from them serves queries without ever
        reading the full payload.
        """
        from repro.oracle.sharding import write_sharded_artifact

        return write_sharded_artifact(self.metadata, self.arrays, path, num_shards)
