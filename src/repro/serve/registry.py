"""Multi-artifact discovery and lazy engine loading for the serving layer.

A serving process rarely holds one oracle: it serves several graphs, or
several epsilon levels of one graph, each persisted as row shards plus a
manifest (:mod:`repro.oracle.sharding`).  :class:`ArtifactRegistry` is
the catalogue of those artifacts:

* **Registration is cheap.**  ``register``/``discover`` read only the
  ``.shards.json`` manifest — never a shard file — and derive an
  :class:`ArtifactEntry` with everything routing needs: the stretch
  guarantee, the graph size, per-shard row ranges, and the artifact's
  cost estimate.
* **Engines load lazily.**  ``engine(name)`` materialises a
  :class:`~repro.oracle.engine.QueryEngine` (manifest parsed, shards
  mapped and checksummed on their first open) on first use and keeps at
  most ``capacity`` engines open, evicting the least recently used.
* **Manifests make a fleet reproducible.**  ``write_manifest`` pins the
  current catalogue to a JSON file (relative paths, greppable stretch
  summaries); ``load_manifest`` rebuilds the registry from it on another
  host or after a restart.

The cost model used by :class:`~repro.serve.router.StretchRouter` is
fully determined by the manifest metadata and stated once, in
:mod:`repro.oracle.strategies`: the strategy's ``cost_fn``, run on the
build metadata, sizes the payload (``n²`` for the dense strategies,
``2nk + n·|A|`` for the landmark ones), the common arrays a loaded
engine keeps resident (what its ``repro_engine_resident_bytes`` series
measures; the rest stays mapped), and prices a query (1 lookup for dense
strategies, a min over the ``|A|`` landmarks otherwise).  Entries are
ranked by :func:`~repro.oracle.strategies.cost_order` — payload floats,
per-query work, tightest guarantee, name — the order the planner picks
by, so the order is total and reproducible and the router serves the
*smallest* admissible artifact: the size-for-stretch trade the compact
strategies exist for.

A leftover monolithic ``.npz`` payload (format 1) is refused by every
entry point with an :class:`~repro.oracle.artifact.ArtifactError` naming
``repro oracle build``.
"""

from __future__ import annotations

import dataclasses
import json
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import publish
from repro.oracle.artifact import ArtifactError, ArtifactMetadata
from repro.oracle.engine import QueryEngine
from repro.oracle.sharding import (
    SHARD_MANIFEST_SUFFIX,
    load_artifact,
    read_manifest,
    refuse_monolithic_below,
)
from repro.oracle.strategies import (
    CostEstimate,
    StretchGuarantee,
    cost_order,
    get_strategy,
)

PathLike = str | Path

#: Manifest schema version; bump on incompatible changes.
MANIFEST_VERSION = 1


class RegistryError(RuntimeError):
    """Raised for unknown names, duplicate registrations, or bad manifests."""


@dataclasses.dataclass(frozen=True)
class ArtifactEntry:
    """One registered artifact: identity, guarantee, and serving cost."""

    name: str
    path: Path  # the .shards.json manifest
    strategy: str
    n: int
    epsilon: float
    stretch: StretchGuarantee
    #: Payload size, resident common arrays and per-query work: the
    #: strategy's ``cost_fn`` on the build metadata.
    estimate: CostEstimate
    #: Per-shard node ranges, for shard-aware routing.
    row_ranges: Tuple[Tuple[int, int], ...]

    @classmethod
    def from_metadata(cls, name: str, path: Path, meta: ArtifactMetadata,
                      row_ranges: Tuple[Tuple[int, int], ...]) -> "ArtifactEntry":
        """The entry for an artifact with metadata ``meta`` (no payload read)."""
        try:
            strategy, n, epsilon, stretch = (meta.strategy, meta.n,
                                             meta.epsilon, meta.stretch)
            num_edges = int(meta.metadata["num_edges"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactError(f"metadata for {path} is missing or "
                                f"malformed required fields: {exc}") from exc
        estimate = get_strategy(strategy).estimate(
            n, num_edges, epsilon, meta.metadata.get("build"))
        return cls(name=name, path=path, strategy=strategy, n=n,
                   epsilon=epsilon, stretch=stretch, estimate=estimate,
                   row_ranges=row_ranges)

    @property
    def num_shards(self) -> int:
        return len(self.row_ranges)

    @property
    def cost(self) -> Tuple[float, float, float, float, str]:
        """The artifact's place in :func:`~repro.oracle.strategies.cost_order`."""
        return cost_order(self.estimate, self.stretch, self.name)

    def describe(self) -> str:
        stretch = f"{self.stretch.multiplicative:g}x"
        if self.stretch.additive:
            stretch += f"+{self.stretch.additive:g}"
        estimate = self.estimate
        return (f"{self.name}: {self.strategy} n={self.n} stretch={stretch} "
                f"cost=({estimate.payload_floats:.0f} payload floats mapped "
                f"across {self.num_shards} shard(s), "
                f"{estimate.query_cost:g}/query, "
                f"{estimate.common_floats:.0f} resident floats)")


def _entry_from_shard_manifest(name: str, manifest_path: Path,
                               manifest: dict) -> ArtifactEntry:
    """Build an entry from manifest content alone (no shard I/O)."""
    shards = sorted(manifest.get("shards", []), key=lambda item: int(item["index"]))
    if not shards:
        raise ArtifactError(f"shard manifest {manifest_path} lists no shards")
    return ArtifactEntry.from_metadata(
        name, manifest_path, ArtifactMetadata(manifest["metadata"]),
        tuple((int(item["row_start"]), int(item["row_stop"]))
              for item in shards))


class ArtifactRegistry:
    """Catalogue of oracle artifacts with lazily loaded, LRU-evicted engines.

    Parameters
    ----------
    capacity:
        Maximum number of :class:`QueryEngine` instances resident at once.
        Must be at least 1; eviction drops the least recently *used*
        engine (every ``engine()`` call refreshes recency).
    """

    #: What a registry counts, on the obs registry.
    SERIES = (
        ("repro_registry_loads_total", "counter",
         "QueryEngine loads performed by artifact registries",
         lambda r: r.loads),
        ("repro_registry_evictions_total", "counter",
         "Resident engines evicted by artifact registries",
         lambda r: r.evictions),
        ("repro_registry_load_failures_total", "counter",
         "Registry entries dropped after their payload failed to load",
         lambda r: r.load_failures),
        ("repro_registry_epoch", "gauge",
         "Catalogue change epoch", lambda r: r.epoch),
        ("repro_registry_entries", "gauge",
         "Registered artifacts (resident or not)", lambda r: len(r._entries)),
        ("repro_registry_resident_engines", "gauge",
         "QueryEngine instances currently resident",
         lambda r: len(r._engines)),
    )

    def __init__(self, capacity: int = 4):
        if capacity < 1:
            raise ValueError(f"registry capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: Dict[str, ArtifactEntry] = {}
        self._engines: "OrderedDict[str, QueryEngine]" = OrderedDict()
        self.loads = 0
        self.evictions = 0
        #: Entries dropped because their payload failed to load — the
        #: artifact directory vanished or rotted while registered.
        self.load_failures = 0
        #: Bumped when the catalogue changes — a registration, or an entry
        #: dropped after a failed load — so routers memoize per-budget
        #: decisions and invalidate them cheaply.  Loads and evictions
        #: leave it alone: routing does not depend on residency.
        self.epoch = 0
        publish(self, self.SERIES)

    # ------------------------------------------------------------------
    # registration and discovery
    # ------------------------------------------------------------------
    def register(self, path: PathLike, name: Optional[str] = None) -> ArtifactEntry:
        """Register one artifact from its manifest alone (no shard I/O).

        ``path`` may be the ``.shards.json`` manifest, the artifact's base
        path, or that base with ``.npz``.  ``name`` defaults to the
        artifact stem; auto-generated names are suffixed (``oracle-2``,
        ``oracle-3``, …) on collision, while an explicit duplicate
        ``name`` raises :class:`RegistryError`.
        """
        manifest_path, manifest = read_manifest(path)
        chosen = self._claim_name(
            name, manifest_path.name[: -len(SHARD_MANIFEST_SUFFIX)])
        entry = _entry_from_shard_manifest(chosen, manifest_path, manifest)
        self._entries[chosen] = entry
        self.epoch += 1
        return entry

    def _claim_name(self, name: Optional[str], default: str) -> str:
        explicit = name is not None
        chosen = name if name is not None else default
        if chosen in self._entries:
            if explicit:
                raise RegistryError(
                    f"artifact name {chosen!r} is already registered "
                    f"(for {self._entries[chosen].path})"
                )
            suffix = 2
            while f"{chosen}-{suffix}" in self._entries:
                suffix += 1
            chosen = f"{chosen}-{suffix}"
        return chosen

    def discover(self, root: PathLike) -> List[ArtifactEntry]:
        """Register every artifact (``.shards.json`` manifest) below ``root``.

        Returns the newly registered entries, sorted by name; an empty
        directory returns ``[]``.  A leftover monolithic payload anywhere
        below ``root`` raises rather than silently dropping out of the
        fleet.
        """
        root = Path(root)
        if not root.is_dir():
            raise ArtifactError(f"not a directory: {root}")
        refuse_monolithic_below(root)
        found = [self.register(manifest) for manifest
                 in sorted(root.rglob(f"*{SHARD_MANIFEST_SUFFIX}"))]
        return sorted(found, key=lambda entry: entry.name)

    # ------------------------------------------------------------------
    # lookup and lazy engines
    # ------------------------------------------------------------------
    def entries(self) -> List[ArtifactEntry]:
        """All registered entries, sorted by name."""
        return sorted(self._entries.values(), key=lambda entry: entry.name)

    def names(self) -> List[str]:
        return sorted(self._entries)

    def get(self, name: str) -> ArtifactEntry:
        entry = self._entries.get(name)
        if entry is None:
            known = ", ".join(self.names()) or "<none>"
            raise RegistryError(f"unknown artifact {name!r}; registered: {known}")
        return entry

    def is_loaded(self, name: str) -> bool:
        """Whether ``name`` currently has a resident engine (no side effects)."""
        return name in self._engines

    def loaded(self) -> List[str]:
        """Names with resident engines, least recently used first."""
        return list(self._engines)

    def engine(self, name: str) -> QueryEngine:
        """The engine for ``name``, opening the artifact on first use.

        Opening parses the manifest (each shard is checksummed on its
        first fault) and may evict the least recently used engine once
        more than ``capacity`` are open.

        An artifact that fails to load — files deleted from under a
        running server, manifest unreadable, schema mismatch — raises a
        typed :class:`RegistryError` AND drops the entry from the
        catalogue, so the router immediately stops offering the dead
        artifact and subsequent requests re-route to the survivors
        instead of re-tripping on the same corpse.  Nothing is cached
        on the failure path: a later re-``register`` of a repaired
        artifact starts clean.
        """
        entry = self.get(name)
        engine = self._engines.get(name)
        if engine is None:
            try:
                engine = QueryEngine(load_artifact(entry.path))
            except (ArtifactError, OSError) as exc:
                self._entries.pop(name, None)
                self._engines.pop(name, None)
                self.load_failures += 1
                self.epoch += 1
                raise RegistryError(
                    f"artifact {name!r} failed to load from {entry.path} "
                    f"and was evicted from the registry: {exc}") from exc
            self.loads += 1
            self._engines[name] = engine
            while len(self._engines) > self.capacity:
                self._engines.popitem(last=False)
                self.evictions += 1
        else:
            self._engines.move_to_end(name)
        return engine

    def loaded_engines(self) -> Dict[str, QueryEngine]:
        """Resident engines by name (no loading; recency untouched)."""
        return dict(self._engines)

    def evict(self, name: Optional[str] = None) -> None:
        """Drop one resident engine (or all of them when ``name`` is None)."""
        if name is None:
            self.evictions += len(self._engines)
            self._engines.clear()
        elif name in self._engines:
            del self._engines[name]
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    # ------------------------------------------------------------------
    # manifests
    # ------------------------------------------------------------------
    def write_manifest(self, path: PathLike) -> Path:
        """Pin the catalogue to a JSON manifest next to the artifacts.

        Paths are stored relative to the manifest's directory when
        possible, so a directory of artifacts plus its manifest can be
        moved or shipped as a unit.
        """
        path = Path(path)
        base = path.resolve().parent
        artifacts = []
        for entry in self.entries():
            resolved = entry.path.resolve()
            try:
                stored = str(resolved.relative_to(base))
            except ValueError:
                stored = str(resolved)
            artifacts.append({
                "name": entry.name,
                "path": stored,
                "strategy": entry.strategy,
                "n": entry.n,
                "epsilon": entry.epsilon,
                "stretch": entry.stretch.as_dict(),
            })
        payload = {"manifest_version": MANIFEST_VERSION, "artifacts": artifacts}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load_manifest(cls, path: PathLike, capacity: int = 4) -> "ArtifactRegistry":
        """Rebuild a registry from :meth:`write_manifest` output.

        Entries are re-derived from the shard manifests on disk (the
        registry manifest pins *which* artifacts, theirs stay the source
        of truth for *what* they guarantee).
        """
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except OSError as exc:
            raise RegistryError(f"cannot read manifest {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise RegistryError(f"unparseable manifest {path}: {exc}") from exc
        version = payload.get("manifest_version")
        if version != MANIFEST_VERSION:
            raise RegistryError(
                f"manifest {path} has manifest_version={version!r}; "
                f"this build reads version {MANIFEST_VERSION}"
            )
        registry = cls(capacity=capacity)
        base = path.resolve().parent
        for item in payload.get("artifacts", []):
            artifact_path = Path(item["path"])
            if not artifact_path.is_absolute():
                artifact_path = base / artifact_path
            registry.register(artifact_path, name=item.get("name"))
        return registry


def build_registry(paths: Iterable[PathLike], capacity: int = 4) -> ArtifactRegistry:
    """Registry from a mixed list of artifact files, directories, manifests.

    The shared front end behind ``repro loadgen`` and ``repro net serve``:
    each path may be an artifact (its ``.shards.json``, its base path, or
    that base with ``.npz``), a directory to
    :meth:`~ArtifactRegistry.discover`, or a registry manifest JSON
    (recognised by a ``manifest_version`` key).
    """
    registry = ArtifactRegistry(capacity=capacity)
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            registry.discover(path)
            continue
        if (path.suffix == ".json" and path.is_file()
                and not path.name.endswith(SHARD_MANIFEST_SUFFIX)):
            try:
                payload = json.loads(path.read_text())
            except json.JSONDecodeError as exc:
                raise RegistryError(
                    f"unparseable manifest {path}: {exc}") from exc
            if not isinstance(payload, dict) or "manifest_version" not in payload:
                raise ArtifactError(
                    f"{path} is JSON but not a registry manifest (no "
                    f"manifest_version key); pass an artifact's base path or "
                    f"{SHARD_MANIFEST_SUFFIX} manifest to register it"
                )
            loaded = ArtifactRegistry.load_manifest(path, capacity=capacity)
            for entry in loaded.entries():
                registry.register(entry.path, name=entry.name)
            continue
        registry.register(path)
    if not len(registry):
        raise ArtifactError("no oracle artifacts found in the given paths")
    return registry
