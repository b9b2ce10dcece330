"""The on-disk format of an oracle artifact: row shards plus a manifest.

The paper's Congested Clique algorithms end with node *v* holding row *v*
of the estimate matrix; a *row shard* is exactly that, persisted — a
contiguous node range of every row-sharded payload array — and one
artifact is a set of them plus a JSON manifest.  This is the only format:
:func:`write_sharded_artifact` is the one writer (one shard by default,
more when a payload should be split across files or workers; every build,
at every ``jobs``, goes through its two steps) and
:meth:`ShardedOracleArtifact.load` / :func:`load_artifact` the one
reader.  The in-memory build product
(:class:`~repro.oracle.artifact.OracleArtifact`) and an opened artifact
are served by one kernel family through the same row-access protocol
(``array_shape`` / ``row`` / ``rows`` / ``gather`` / ``common``);
:class:`ShardedOracleArtifact` routes each access to the
shard that owns the rows and reads through its memory map:

* ``<name>.shard-K.npz`` — shard ``K`` holds rows ``[row_start, row_stop)``
  of every row-sharded payload array (see
  :attr:`repro.oracle.strategies.StrategySpec.row_sharded_arrays`), written
  **uncompressed** so the arrays can be memory-mapped in place.  Small
  non-row arrays (e.g. the landmark id vector) travel whole inside shard 0.
* ``<name>.shards.json`` — the manifest: the artifact metadata (strategy,
  n, epsilon, stretch, build provenance), plus per-shard row ranges, byte
  sizes, and SHA-256 checksums.  Everything the serving registry needs to
  route to the artifact lives here — no shard file is touched at
  registration time.

``numpy`` cannot memory-map members of an ``.npz`` through ``np.load``
(the zip wrapper always reads them into RAM), so :func:`_mmap_npz` maps
the uncompressed members directly: it locates each member's data offset
inside the zip and hands it to ``np.memmap``.  Opening a shard therefore
costs two file headers, not the payload — rows fault in lazily as queries
touch them, which is what makes n in the tens of thousands servable on
laptop-class RAM.

Checksums are verified *per shard*: on a shard's first open with the
default ``verify="lazy"`` (a one-shard artifact is checksummed whole the
first time a query reaches it; a skewed workload never pays for the shards
it never touches), eagerly at load with ``verify="eager"`` (reads every
shard once — what the tests use), or not at all with ``verify="none"``.

A ``.npz`` payload with no manifest next to it is a leftover of the
monolithic format 1 and is refused with an
:class:`~repro.oracle.artifact.ArtifactError` naming ``repro oracle
build``; no reader for it stays behind.  What the one format costs against
that compressed file (7-11x the disk bytes, a faster open, a 256-pair
``batch`` through the map at 1.4-1.7x) is tabled in README "Distance
oracles".
"""

from __future__ import annotations

import hashlib
import json
import re
import time
import zipfile
from bisect import bisect_right
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.oracle.artifact import (
    FORMAT_VERSION,
    ArtifactError,
    ArtifactMetadata,
    OracleArtifact,
    check_schema,
)
from repro.oracle.strategies import get_strategy

PathLike = Union[str, Path]


class ShardIntegrityError(ArtifactError):
    """A shard whose bytes are quarantined or condemned.

    Raised when a quarantined shard fails its forced re-verification (the
    file on disk really is rotten) and on every subsequent open until the
    recheck window elapses.  The serving stack maps this to the wire
    error ``ERR_DATA_INTEGRITY`` so clients see a typed failure instead
    of NaN distances.
    """


#: Bump on any incompatible shard/manifest layout change.
SHARD_MANIFEST_VERSION = 1

#: Manifest suffix replacing the payload's ``.npz``.
SHARD_MANIFEST_SUFFIX = ".shards.json"

#: Accepted ``verify=`` modes for :meth:`ShardedOracleArtifact.load`.
VERIFY_MODES = ("eager", "lazy", "none")


#: What a shard file is called (see :func:`shard_payload_name`).
_SHARD_FILE = re.compile(r"\.shard-\d+\.npz$")


def shard_manifest_path(path: PathLike) -> Path:
    """Normalise ``path`` (base, ``.npz``, or manifest) to the manifest path."""
    path = Path(path)
    if path.name.endswith(SHARD_MANIFEST_SUFFIX):
        return path
    base = path.name[: -len(".npz")] if path.suffix == ".npz" else path.name
    return path.with_name(base + SHARD_MANIFEST_SUFFIX)


def resolve_manifest(path: PathLike) -> Path:
    """The existing manifest of the artifact at ``path``, or an
    :class:`ArtifactError` saying what is there instead.

    A ``<name>.npz`` with no ``<name>.shards.json`` next to it is a
    leftover of the monolithic format 1 (compressed payload + JSON
    sidecar); nothing reads that any more, so the error names the rebuild.
    """
    manifest = shard_manifest_path(path)
    if manifest.exists():
        return manifest
    payload = manifest.with_name(
        manifest.name[: -len(SHARD_MANIFEST_SUFFIX)] + ".npz")
    if payload.exists():
        raise ArtifactError(
            f"{payload} is a monolithic format-1 artifact (one compressed "
            f".npz payload plus a JSON sidecar); this build reads row shards "
            f"plus a {SHARD_MANIFEST_SUFFIX} manifest only — rebuild it with "
            f"`repro oracle build`")
    raise ArtifactError(
        f"oracle artifact not found: no shard manifest {manifest}")


def read_manifest(path: PathLike) -> Tuple[Path, Dict[str, Any]]:
    """``(manifest_path, manifest)`` of the artifact at ``path``: resolved,
    parsed and held to the versions this build reads."""
    manifest_path = resolve_manifest(path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ArtifactError(
            f"unparseable shard manifest {manifest_path}: {exc}") from exc
    version = manifest.get("shard_manifest_version")
    if version != SHARD_MANIFEST_VERSION:
        raise ArtifactError(
            f"shard manifest {manifest_path} has shard_manifest_version="
            f"{version!r}; this build reads version {SHARD_MANIFEST_VERSION}"
        )
    fmt = manifest.get("metadata", {}).get("format_version")
    if fmt != FORMAT_VERSION:
        raise ArtifactError(
            f"shard manifest {manifest_path} carries format_version="
            f"{fmt!r}; this build reads version {FORMAT_VERSION}"
        )
    return manifest_path, manifest


def refuse_monolithic_below(root: PathLike) -> None:
    """Raise :func:`resolve_manifest`'s error for the first ``.npz`` below
    ``root`` that is neither a shard file nor has a manifest next to it."""
    for payload in sorted(Path(root).rglob("*.npz")):
        if not _SHARD_FILE.search(payload.name):
            resolve_manifest(payload)


def shard_payload_name(base: str, index: int) -> str:
    """File name of shard ``index`` for an artifact with stem ``base``."""
    return f"{base}.shard-{index}.npz"


def _sha256_file(path: Path, chunk: int = 1 << 20) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            block = handle.read(chunk)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


def _row_ranges(n: int, num_shards: int) -> List[Tuple[int, int]]:
    """Split ``range(n)`` into ``num_shards`` contiguous near-equal ranges."""
    if not 1 <= num_shards <= n:
        raise ValueError(f"num_shards must be in [1, {n}], got {num_shards}")
    per = -(-n // num_shards)  # ceil division
    ranges = []
    start = 0
    while start < n:
        stop = min(n, start + per)
        ranges.append((start, stop))
        start = stop
    return ranges


def grouped_runs(ids: np.ndarray
                 ) -> List[Tuple[int, Union[slice, np.ndarray]]]:
    """Group positions by id in one pass: ``[(id, where), ...]`` by rising id.

    ``where`` selects the positions of ``ids`` holding that id, in input
    order — usable both to pick a run's items and to put its results back.
    Ids that are already non-decreasing are not sorted and every ``where``
    is a contiguous slice (a single id: the whole input); otherwise each is
    a piece of one stable argsort.
    """
    count = len(ids)
    if count == 0:
        return []
    order = None
    steps = ids[1:] - ids[:-1]
    if count > 1 and steps.min() < 0:
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        steps = ids[1:] - ids[:-1]
    starts = [0] + (np.flatnonzero(steps) + 1).tolist()
    return [(run_id, slice(start, stop) if order is None else order[start:stop])
            for run_id, start, stop in zip(ids[starts].tolist(), starts,
                                           starts[1:] + [count])]


def _mmap_npz(path: Path) -> Dict[str, np.ndarray]:
    """Memory-map every array of an *uncompressed* ``.npz`` without reading it.

    ``np.load(..., mmap_mode="r")`` silently ignores the mmap request for
    zip archives, so this walks the zip structure itself: for each stored
    (uncompressed) member it parses the ``.npy`` header through the zip
    reader, computes the member's absolute data offset from the local file
    header, and maps the raw buffer with ``np.memmap``.  The return values
    are read-only views over the page cache — no payload bytes are copied.
    """
    arrays: Dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as archive, open(path, "rb") as raw:
        for info in archive.infolist():
            if not info.filename.endswith(".npy"):
                continue
            if info.compress_type != zipfile.ZIP_STORED:
                raise ArtifactError(
                    f"shard member {info.filename!r} in {path} is compressed; "
                    "sharded payloads must be written uncompressed (np.savez) "
                    "to be memory-mappable"
                )
            with archive.open(info.filename) as member:
                version = np.lib.format.read_magic(member)
                if version == (1, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_1_0(member)
                elif version == (2, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_2_0(member)
                else:
                    raise ArtifactError(
                        f"unsupported .npy format version {version} for "
                        f"{info.filename!r} in {path}"
                    )
                header_len = member.tell()
            # The local file header may carry a different extra field than
            # the central directory's copy, so read its lengths from disk.
            raw.seek(info.header_offset)
            local = raw.read(30)
            if local[:4] != b"PK\x03\x04":
                raise ArtifactError(f"corrupt zip local header in {path}")
            name_len = int.from_bytes(local[26:28], "little")
            extra_len = int.from_bytes(local[28:30], "little")
            offset = info.header_offset + 30 + name_len + extra_len + header_len
            name = info.filename[: -len(".npy")]
            arrays[name] = np.memmap(
                path, dtype=dtype, mode="r", offset=offset, shape=shape,
                order="F" if fortran else "C",
            )
    return arrays


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------
#: Fixed zip member timestamp (the zip epoch) for deterministic payloads.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


def write_shard_payload(path: PathLike, payload: Dict[str, np.ndarray]) -> None:
    """Write an ``.npz``-compatible shard file with **deterministic bytes**.

    ``np.savez`` stamps each zip member with the current local time, so two
    byte-identical array sets written at different moments (or by different
    build workers) hash differently.  This writer pins every member to the
    zip epoch and stores the arrays uncompressed with zip64 headers — the
    exact layout ``np.savez`` produces minus the timestamps — so
    :func:`_mmap_npz` maps the members unchanged and the shard's SHA-256 is
    a pure function of the payload — which is what lets a build at any
    ``jobs`` be held to the ``jobs=1`` bytes.

    Member order follows ``payload``'s iteration order.
    """
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
        for name, array in payload.items():
            info = zipfile.ZipInfo(name + ".npy", date_time=_ZIP_EPOCH)
            info.compress_type = zipfile.ZIP_STORED
            with archive.open(info, "w", force_zip64=True) as member:
                np.lib.format.write_array(
                    member, np.asanyarray(array), allow_pickle=False)


def shard_entry(index: int, shard_file: Path, row_start: int,
                row_stop: int) -> Dict[str, Any]:
    """Manifest entry for a written shard file (stats and hashes it)."""
    return {
        "index": index,
        "path": Path(shard_file).name,
        "row_start": int(row_start),
        "row_stop": int(row_stop),
        "bytes": Path(shard_file).stat().st_size,
        "sha256": _sha256_file(Path(shard_file)),
    }


def write_shard_manifest(manifest_path: Path, metadata: Dict[str, Any],
                         layout: Dict[str, Any]) -> Path:
    """Write the ``.shards.json`` manifest of the shards :func:`write_shards`
    wrote (``layout`` is its third result); returns the manifest's path."""
    manifest = {
        "shard_manifest_version": SHARD_MANIFEST_VERSION,
        "metadata": {**metadata, "format_version": FORMAT_VERSION},
        "num_shards": len(layout["shards"]),
        **layout,
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


def array_layout(arrays: Dict[str, Any], names) -> Dict[str, Dict[str, Any]]:
    """The manifest's ``{name: {dtype, shape}}`` description of ``names``."""
    return {
        name: {"dtype": str(arrays[name].dtype),
               "shape": list(arrays[name].shape)}
        for name in names
    }


def write_shards(
    metadata: Dict[str, Any],
    arrays: Dict[str, np.ndarray],
    path: PathLike,
    num_shards: int = 1,
) -> Tuple[Path, List[Path], Dict[str, Any]]:
    """Write every shard file of an artifact, and no manifest.

    Row-sharded arrays (per the strategy spec) are sliced by node range and
    each slice is streamed straight into its shard file — slicing yields
    views, and the deterministic writer streams them to disk chunk-wise, so
    peak extra memory stays O(one write buffer) regardless of artifact
    size.  The remaining (small) arrays are stored whole in shard 0.

    Returns ``(manifest_path, shard_files, layout)``, ``layout`` being what
    :func:`write_shard_manifest` records about the files.  The two steps
    are separate so that a builder can put what the write cost into the
    metadata between them.
    """
    check_schema(OracleArtifact(metadata=metadata, arrays=arrays))
    spec = get_strategy(str(metadata["strategy"]))
    manifest_path = shard_manifest_path(path)
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    base = manifest_path.name[: -len(SHARD_MANIFEST_SUFFIX)]

    common_names = [name for name in sorted(arrays)
                    if name not in spec.row_sharded_arrays]
    shard_entries = []
    shard_files = []
    for index, (start, stop) in enumerate(
            _row_ranges(int(metadata["n"]), num_shards)):
        payload = {name: arrays[name][start:stop]
                   for name in spec.row_sharded_arrays}
        if index == 0:
            payload.update({name: arrays[name] for name in common_names})
        shard_file = manifest_path.with_name(shard_payload_name(base, index))
        write_shard_payload(shard_file, payload)
        shard_entries.append(shard_entry(index, shard_file, start, stop))
        shard_files.append(shard_file)
    return manifest_path, shard_files, {
        "shards": shard_entries,
        "sharded_arrays": array_layout(arrays, spec.row_sharded_arrays),
        "common_arrays": array_layout(arrays, common_names),
    }


def write_sharded_artifact(
    metadata: Dict[str, Any],
    arrays: Dict[str, np.ndarray],
    path: PathLike,
    num_shards: int = 1,
) -> Tuple[Path, List[Path]]:
    """Write ``arrays`` as row shards plus a manifest; returns the paths.

    :func:`write_shards`, then :func:`write_shard_manifest`.
    """
    manifest_path, shard_files, layout = write_shards(
        metadata, arrays, path, num_shards)
    write_shard_manifest(manifest_path, metadata, layout)
    return manifest_path, shard_files


class _MappedRows:
    """Row-slice adapter presenting a sharded array to the shard writer.

    Quacks like the ndarray the writer needs — ``shape``, ``dtype``, and
    row-range slicing — but each ``[start:stop]`` gathers only that range
    from the source's memory-mapped shards, so re-sharding never holds
    more than one destination shard of rows in RAM.
    """

    def __init__(self, artifact: "ShardedOracleArtifact", name: str):
        self._artifact = artifact
        self._name = name
        self.dtype = np.dtype(artifact._sharded_arrays[name][0])
        self.shape = artifact.array_shape(name)

    def __getitem__(self, rows: slice) -> np.ndarray:
        return self._artifact.rows(
            self._name, np.arange(rows.start, rows.stop, dtype=np.int64))


def shard_artifact(source: PathLike, destination: PathLike,
                   num_shards: int) -> Tuple[Path, List[Path]]:
    """Re-shard an existing artifact on disk.

    The source stays memory-mapped and is gathered one destination shard
    at a time (via :class:`_MappedRows`), so peak memory is one shard of
    rows, never the payload.
    """
    artifact = load_artifact(source, verify="eager")
    arrays: Dict[str, Any] = {
        name: _MappedRows(artifact, name)
        for name in artifact.sharded_array_names
    }
    for name in artifact._common_arrays:
        arrays[name] = artifact.common(name)
    return write_sharded_artifact(
        dict(artifact.metadata), arrays, destination, num_shards)


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
class ShardedOracleArtifact(ArtifactMetadata):
    """A sharded artifact opened for querying: metadata now, rows on demand.

    Loading parses the manifest and stats the shard files — nothing else.
    Shards open lazily (``faults`` counts the opens) and their arrays are
    memory-mapped, so the only payload bytes that ever become resident are
    the rows a query actually gathers.  The row accessors (:meth:`row`,
    :meth:`rows`, :meth:`gather`, :meth:`common`)
    return values bit-identical to the same accesses on the in-memory
    :class:`~repro.oracle.artifact.OracleArtifact` it was written from —
    shards store exact row slices, never re-encoded data.
    """

    def __init__(self, manifest_path: Path, manifest: Dict[str, Any],
                 verify: str = "lazy"):
        if verify not in VERIFY_MODES:
            raise ValueError(f"verify must be one of {VERIFY_MODES}, got {verify!r}")
        self.manifest_path = manifest_path
        self.metadata: Dict[str, Any] = manifest["metadata"]
        self.verify = verify
        self._shards: List[Dict[str, Any]] = sorted(
            manifest["shards"], key=lambda item: int(item["index"]))
        self._sharded_arrays: Dict[str, Tuple[np.dtype, Tuple[int, ...]]] = {
            name: (np.dtype(info["dtype"]), tuple(info["shape"]))
            for name, info in manifest["sharded_arrays"].items()
        }
        self._common_arrays: Dict[str, Tuple[np.dtype, Tuple[int, ...]]] = {
            name: (np.dtype(info["dtype"]), tuple(info["shape"]))
            for name, info in manifest.get("common_arrays", {}).items()
        }
        self._starts = [int(item["row_start"]) for item in self._shards]
        self._row_starts = np.asarray(self._starts, dtype=np.int64)
        #: Open shards: index -> plain-``ndarray`` views of the mapped
        #: blocks (indexing a view skips ``np.memmap``'s per-call subclass
        #: hooks).  A view's ``base`` is its ``np.memmap``, so dropping an
        #: entry drops the mapping with it — nothing outlives a quarantine.
        self._open: Dict[int, Dict[str, np.ndarray]] = {}
        self._verified: Dict[int, bool] = {}
        self._common_cache: Dict[str, np.ndarray] = {}
        #: Number of shard files opened (and page-mapped) so far.
        self.faults = 0
        #: Shards dropped for re-verification (see :meth:`quarantine`).
        self.quarantines = 0
        #: Shards whose next open must re-verify the checksum regardless
        #: of the artifact's verify mode.
        self._suspect: set = set()
        #: Condemned shards: index -> monotonic instant the re-verify
        #: failed.  Opens raise :class:`ShardIntegrityError` immediately
        #: (no repeated hashing) until ``condemned_recheck`` seconds have
        #: passed, after which one more verify is attempted — a repaired
        #: file heals without a process restart.
        self._condemned: Dict[int, float] = {}
        self.condemned_recheck = 30.0
        self._check_layout()
        if verify == "eager":
            for index in range(self.num_shards):
                self.verify_shard(index)

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: PathLike, verify: str = "lazy") -> "ShardedOracleArtifact":
        """Open an artifact from its manifest, base or ``.npz`` path."""
        return cls(*read_manifest(path), verify=verify)

    def _check_layout(self, values: bool = False) -> None:
        """Cheap structural checks: schema, contiguous ranges, files present."""
        check_schema(self, values=values)
        expected_start = 0
        for item in self._shards:
            if int(item["row_start"]) != expected_start:
                raise ArtifactError(
                    f"shard manifest {self.manifest_path} has non-contiguous "
                    f"row ranges at shard {item['index']}"
                )
            expected_start = int(item["row_stop"])
            self._present_shard_file(int(item["index"]))
        if expected_start != self.n:
            raise ArtifactError(
                f"shard manifest {self.manifest_path} covers rows "
                f"[0, {expected_start}), expected [0, {self.n})"
            )

    # ------------------------------------------------------------------
    # layout accessors
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def row_ranges(self) -> List[Tuple[int, int]]:
        return [(int(item["row_start"]), int(item["row_stop"]))
                for item in self._shards]

    @property
    def array_names(self) -> List[str]:
        return sorted(self._sharded_arrays) + sorted(self._common_arrays)

    @property
    def sharded_array_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._sharded_arrays))

    def array_shape(self, name: str) -> Tuple[int, ...]:
        """Logical (unsharded) shape of a payload array."""
        if name in self._sharded_arrays:
            return self._sharded_arrays[name][1]
        if name in self._common_arrays:
            return self._common_arrays[name][1]
        raise KeyError(f"unknown payload array {name!r}; "
                       f"known: {self.array_names}")

    @property
    def mapped_bytes(self) -> int:
        """Total payload bytes addressable through the shard maps."""
        return sum(int(item["bytes"]) for item in self._shards)

    def validate(self) -> None:
        """The load-time checks plus the one that reads shard 0 (CSR extent)."""
        self._check_layout(values=True)

    def shard_file(self, index: int) -> Path:
        return self.manifest_path.with_name(str(self._shards[index]["path"]))

    def _present_shard_file(self, index: int) -> Path:
        path = self.shard_file(index)
        if not path.exists():
            raise ArtifactError(f"missing shard file {path.name!r} referenced "
                                f"by {self.manifest_path}")
        return path

    # ------------------------------------------------------------------
    # shard access
    # ------------------------------------------------------------------
    def verify_shard(self, index: int) -> None:
        """Stream shard ``index`` once and compare its SHA-256 checksum."""
        path = self._present_shard_file(index)
        if _sha256_file(path) != self._shards[index]["sha256"]:
            raise ArtifactError(
                f"shard checksum mismatch for {path}: the file does not match "
                f"its manifest entry (corrupt or partially written)"
            )
        self._verified[index] = True

    def quarantine(self, index: int) -> None:
        """Drop shard ``index``'s mapping so the next open re-verifies it.

        The serving layer calls this when a gather through the shard
        produced impossible distances (NaN/negative): the cached memory
        map and verification state are discarded, and the next
        :meth:`open_shard` streams the file's checksum again no matter
        the artifact's verify mode — re-mmapping from disk if the file
        is sound, condemning the shard (typed
        :class:`ShardIntegrityError` on every open) if it is not.
        """
        self._open.pop(index, None)
        self._verified.pop(index, None)
        self._condemned.pop(index, None)
        self._suspect.add(index)
        if index == 0:
            self._common_cache.clear()
        self.quarantines += 1

    def open_shard(self, index: int) -> Dict[str, np.ndarray]:
        """Arrays of shard ``index``, mapped in place (opened and cached lazily).

        The values are plain ``ndarray`` views over the ``np.memmap`` of
        each member; they are valid until the shard is quarantined.
        """
        opened = self._open.get(index)
        if opened is not None:
            return opened
        if not 0 <= index < len(self._shards):
            raise IndexError(
                f"shard {index} out of range [0, {len(self._shards)}): a row "
                f"index outside [0, {self.n}) was asked for")
        condemned_at = self._condemned.get(index)
        if condemned_at is not None:
            if time.monotonic() - condemned_at < self.condemned_recheck:
                raise ShardIntegrityError(
                    f"shard {index} of {self.manifest_path.name} is "
                    f"condemned: its file failed checksum re-verification "
                    f"(repair or restore the shard file to recover)")
            # Recheck window elapsed: give the (possibly repaired) file
            # one more chance below.
            self._condemned.pop(index, None)
            self._suspect.add(index)
        if index in self._suspect or (
                self.verify == "lazy" and not self._verified.get(index)):
            try:
                self.verify_shard(index)
            except ArtifactError as exc:
                if index in self._suspect:
                    self._condemned[index] = time.monotonic()
                if isinstance(exc, ShardIntegrityError):
                    raise
                raise ShardIntegrityError(str(exc)) from exc
            self._suspect.discard(index)
        path = self._present_shard_file(index)
        arrays = _mmap_npz(path)
        start, stop = self.row_ranges[index]
        expected = {name: (dtype, (stop - start,) + shape[1:])
                    for name, (dtype, shape) in self._sharded_arrays.items()}
        if index == 0:
            expected.update(self._common_arrays)
        for name, (dtype, shape) in expected.items():
            block = arrays.get(name)
            if block is None or block.shape != shape or block.dtype != dtype:
                raise ArtifactError(
                    f"shard {path.name} does not hold array {name!r} as "
                    f"the manifest declares it for rows [{start}, {stop}): "
                    f"shape {shape}, dtype {dtype}"
                )
        opened = {name: np.asarray(block) for name, block in arrays.items()}
        self._open[index] = opened
        self.faults += 1
        return opened

    def shard_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Shard index owning each row in ``rows`` (vectorised)."""
        return np.searchsorted(self._row_starts, rows, side="right") - 1

    def quarantine_rows(self, rows: Sequence[int]) -> List[int]:
        """Quarantine every shard owning one of ``rows``; returns their indices."""
        row_array = np.asarray(list(rows), dtype=np.int64)
        shards = sorted(int(s) for s in np.unique(self.shard_of_rows(row_array)))
        for shard in shards:
            self.quarantine(shard)
        return shards

    # ------------------------------------------------------------------
    # row accessors
    # ------------------------------------------------------------------
    def row(self, name: str, index: int) -> np.ndarray:
        """Row ``index`` of sharded array ``name`` — a zero-copy mapped view."""
        shard = bisect_right(self._starts, index) - 1
        return self.open_shard(shard)[name][index - self._starts[shard]]

    def rows(self, name: str, indices: np.ndarray) -> np.ndarray:
        """Rows ``indices`` of ``name``, gathered shard by shard.

        One grouping pass (no sort when the rows already run shard by
        shard), then one fancy-index per touched shard; untouched shards
        are never opened.  Returns a fresh array (the gather is the copy).
        """
        indices = np.asarray(indices, dtype=np.int64)
        dtype, shape = self._sharded_arrays[name]
        out = np.empty((len(indices),) + shape[1:], dtype=dtype)
        for shard, where in grouped_runs(self.shard_of_rows(indices)):
            block = self.open_shard(shard)[name]
            out[where] = block[indices[where] - self._starts[shard]]
        return out

    def gather(self, name: str, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Elementwise ``array[rows[i], cols[i]]`` without materialising rows.

        Advanced indexing on the memory map touches only the pages holding
        the requested elements — the zero-copy point-query kernel for the
        dense strategies.  Grouped like :meth:`rows`.  ``cols`` must lie in
        ``[0, width)``: the engine range-checks node ids before it gathers,
        and a column outside the row would read its neighbour here.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        dtype, shape = self._sharded_arrays[name]
        out = np.empty(len(rows), dtype=dtype)
        shards = self.shard_of_rows(rows)
        # Offsets into each row's own block, flattened: a 1-D fancy index
        # per shard costs a third of the 2-D one.
        flat = (rows - self._row_starts[shards]) * shape[1] + cols
        for shard, where in grouped_runs(shards):
            block = self.open_shard(shard)[name]
            out[where] = block.reshape(-1)[flat[where]]
        return out

    def common(self, name: str) -> np.ndarray:
        """A non-sharded array, read from shard 0 once and cached."""
        cached = self._common_cache.get(name)
        if cached is None:
            if name not in self._common_arrays:
                raise KeyError(f"{name!r} is not a common array; "
                               f"common: {sorted(self._common_arrays)}")
            cached = np.asarray(self.open_shard(0)[name])
            self._common_cache[name] = cached
        return cached

    def materialize(self, name: str) -> np.ndarray:
        """The full array, concatenated across shards (for re-sharding)."""
        if name in self._common_arrays:
            return self.common(name)
        return self.rows(name, np.arange(self.n, dtype=np.int64))

    def resident_bytes(self) -> int:
        """Payload bytes held resident by this object (common arrays only).

        Row arrays are only ever mapped and nothing downstream copies
        them: their pages live in the page cache and are reclaimable.
        """
        return sum(array.nbytes for array in self._common_cache.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardedOracleArtifact(strategy={self.strategy!r}, n={self.n}, "
                f"shards={self.num_shards}, faults={self.faults})")


#: Open the artifact at ``path`` (base, ``.npz`` or manifest path).
load_artifact = ShardedOracleArtifact.load


__all__ = [
    "SHARD_MANIFEST_SUFFIX",
    "SHARD_MANIFEST_VERSION",
    "ShardIntegrityError",
    "ShardedOracleArtifact",
    "array_layout",
    "load_artifact",
    "read_manifest",
    "refuse_monolithic_below",
    "resolve_manifest",
    "shard_artifact",
    "shard_entry",
    "shard_manifest_path",
    "shard_payload_name",
    "write_shard_manifest",
    "write_shard_payload",
    "write_shards",
    "write_sharded_artifact",
]
