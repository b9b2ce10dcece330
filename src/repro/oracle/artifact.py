"""Versioned on-disk format for distance-oracle artifacts.

An artifact is a pair of files living next to each other:

* ``<name>.npz`` — the numeric payload (compressed numpy archive); which
  arrays it contains depends on the strategy (see
  :mod:`repro.oracle.strategies`).
* ``<name>.meta.json`` — a small JSON sidecar with everything needed to
  interpret the payload: format version, strategy, graph shape, epsilon,
  the advertised stretch guarantee, build provenance (simulated rounds,
  wall-clock seconds), and a SHA-256 checksum of the payload so corruption
  is detected at load time instead of surfacing as wrong distances.

The split keeps the metadata greppable/human-readable while the bulk data
stays binary and compressed.  ``save``/``load`` round-trip exactly; loading
verifies the version, the checksum, and the per-strategy array schema
(names *and* shapes — :func:`check_schema`, shared with the sharded format).

A loaded :class:`OracleArtifact` is served through the **row-access
protocol** — ``array_shape`` / ``row`` / ``rows`` / ``gather`` /
``iter_shards`` / ``common`` — which is all
:class:`~repro.oracle.engine.QueryEngine` knows about an artifact.  Here
the accessors are plain indexing over the resident arrays: the one-shard
case (``iter_shards`` yields one block starting at row 0, nothing is
mapped, nothing faults, nothing can be quarantined because the payload
was checksummed whole at load) of what
:class:`~repro.oracle.sharding.ShardedOracleArtifact` answers shard by
shard from memory maps.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
from pathlib import Path
from typing import Any, Dict, Iterator, List, Sequence, Tuple, Union

import numpy as np

from repro.oracle.strategies import StretchGuarantee, get_strategy

PathLike = Union[str, Path]

#: Bump on any incompatible payload/sidecar change.
FORMAT_VERSION = 1

#: Sidecar suffix replacing the payload's ``.npz``.
META_SUFFIX = ".meta.json"


class ArtifactError(RuntimeError):
    """Raised for unreadable, corrupt, or incompatible artifacts."""


def artifact_paths(path: PathLike) -> Tuple[Path, Path]:
    """Normalise ``path`` to the ``(payload, sidecar)`` file pair.

    ``path`` may be given with or without the ``.npz`` extension.
    """
    payload = Path(path)
    if payload.suffix != ".npz":
        payload = payload.with_name(payload.name + ".npz")
    sidecar = payload.with_name(payload.name[: -len(".npz")] + META_SUFFIX)
    return payload, sidecar


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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


@dataclasses.dataclass
class OracleArtifact:
    """A built oracle: JSON-able metadata plus named numpy arrays.

    The metadata dictionary always contains ``format_version``,
    ``strategy``, ``n``, ``num_edges``, ``epsilon``, ``max_weight``,
    ``stretch`` (multiplicative/additive) and ``build`` (rounds, seconds,
    plus strategy-specific detail such as the landmark count).
    """

    metadata: Dict[str, Any]
    arrays: Dict[str, np.ndarray]

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------
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
        """Engine kernel family serving this payload (sidecar-recorded;
        falls back to the registered spec for pre-PR10 artifacts)."""
        kind = self.metadata.get("query_kind")
        if kind is not None:
            return str(kind)
        return get_strategy(self.strategy).query_kind

    @property
    def build_rounds(self) -> float:
        return float(self.metadata["build"]["rounds"])

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

    def iter_shards(self, name: str) -> Iterator[Tuple[int, np.ndarray]]:
        yield 0, self.arrays[name]

    def common(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def resident_bytes(self) -> int:
        return sum(array.nbytes for array in self.arrays.values())

    def quarantine_rows(self, rows: Sequence[int]) -> List[int]:
        """Nothing to re-verify: the payload was checksummed whole at load."""
        return []

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: PathLike) -> Tuple[Path, Path]:
        """Write the artifact; returns the ``(payload, sidecar)`` paths."""
        self.validate()
        payload_path, sidecar_path = artifact_paths(path)
        payload_path.parent.mkdir(parents=True, exist_ok=True)

        buffer = io.BytesIO()
        np.savez_compressed(buffer, **self.arrays)
        payload_bytes = buffer.getvalue()
        payload_path.write_bytes(payload_bytes)

        sidecar = dict(self.metadata)
        sidecar["format_version"] = FORMAT_VERSION
        sidecar["payload_sha256"] = _sha256(payload_bytes)
        sidecar["payload_arrays"] = sorted(self.arrays)
        sidecar_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
        return payload_path, sidecar_path

    def save_sharded(self, path: PathLike, num_shards: int):
        """Write the artifact as row shards plus a manifest.

        Returns ``(manifest_path, shard_paths)``.  See
        :mod:`repro.oracle.sharding` for the format; the written shards are
        memory-mappable, so a :class:`~repro.oracle.sharding.
        ShardedOracleArtifact` loaded from them serves queries without ever
        reading the full payload.
        """
        from repro.oracle.sharding import write_sharded_artifact

        return write_sharded_artifact(self.metadata, self.arrays, path, num_shards)

    @classmethod
    def load(cls, path: PathLike) -> "OracleArtifact":
        """Load and verify an artifact saved with :meth:`save`."""
        payload_path, sidecar_path = artifact_paths(path)
        if not payload_path.exists():
            raise ArtifactError(f"oracle artifact not found: {payload_path}")
        if not sidecar_path.exists():
            raise ArtifactError(
                f"metadata sidecar not found: {sidecar_path} "
                f"(expected next to {payload_path.name})"
            )

        try:
            metadata = json.loads(sidecar_path.read_text())
        except json.JSONDecodeError as exc:
            raise ArtifactError(f"unparseable metadata sidecar {sidecar_path}: {exc}") from exc

        version = metadata.get("format_version")
        if version != FORMAT_VERSION:
            raise ArtifactError(
                f"artifact {payload_path} has format_version={version!r}; "
                f"this build reads version {FORMAT_VERSION}"
            )

        payload_bytes = payload_path.read_bytes()
        expected = metadata.get("payload_sha256")
        if not expected:
            raise ArtifactError(
                f"metadata sidecar {sidecar_path} has no payload_sha256; "
                "refusing to load an unverifiable payload"
            )
        if _sha256(payload_bytes) != expected:
            raise ArtifactError(
                f"payload checksum mismatch for {payload_path}: the .npz file "
                "does not match its sidecar (corrupt or partially written)"
            )

        with np.load(io.BytesIO(payload_bytes)) as archive:
            arrays = {name: archive[name] for name in archive.files}

        artifact = cls(metadata=metadata, arrays=arrays)
        artifact.validate()
        return artifact
