"""Process-wide metrics registry: counters, gauges, recorders.

Every tier of the stack (kernel dispatch, oracle engine, serving layer,
net fleet) reports health through the same :class:`MetricsRegistry`, so
one ``/metricsz`` scrape explains a process and one merge explains a
fleet: it is the only stats surface the system exports.  Three metric
kinds:

* :class:`Counter` — monotone totals (queries served, frames decoded,
  retries).  A tier that already keeps its own counter
  (``QueryEngine._queries``, ``AnswerCache.hits``) registers a read
  function instead of paying an increment on its hot path — the registry
  reads the live value at snapshot time.  ``inc`` serves the rare sites
  with no counter of their own (chaos injections, build phases).
* :class:`Gauge` — instantaneous values (queue depth, resident bytes,
  parked keys), read through callbacks the same way.
* :class:`RecorderHandle` — the percentile path.  It *attaches*
  bounded-ring :class:`LatencyRecorder` windows owned by a tier (an
  engine's, a server's), so their samples surface in ``/metricsz``
  without a second recording.

A tier states what it counts once, as a table of :data:`Series` rows:
:func:`publish` registers the rows as callback series and
:func:`read_series` is the tier's flat ``stats()`` view of the same rows,
so a number cannot be counted on one surface and missed on the other.

Label support (``labels={"kernel": "csr"}``) follows Prometheus: one
metric *family* per name, one child per label set.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain JSON-safe dicts
and merge associatively via :func:`merge_snapshots`, which is how the
frontend aggregates worker-process registries into one fleet view.

Everything is stdlib-only and thread-safe: family/child creation takes
the registry lock and ``inc`` takes a per-counter lock.
"""

from __future__ import annotations

import threading
import weakref
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "Counter",
    "Gauge",
    "LatencyRecorder",
    "MetricsRegistry",
    "RecorderHandle",
    "Series",
    "get_registry",
    "merge_snapshots",
    "publish",
    "read_series",
]

LabelMap = Optional[Mapping[str, str]]

#: One row of a tier's series table: the series name, its kind
#: (``"counter"`` or ``"gauge"``), help text, and the function reading the
#: value off the owning object.
Series = Tuple[str, str, str, Callable[[Any], float]]


def _label_key(labels: LabelMap) -> Tuple[Tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_string(key: Tuple[Tuple[str, str], ...]) -> str:
    """Prometheus label body (``kernel="csr",tier="worker"``; "" if none)."""
    return ",".join(f'{name}="{value}"' for name, value in key)


class LatencyRecorder:
    """Bounded reservoir of recent latencies (nanoseconds), mergeable.

    The single percentile implementation for the whole stack: the oracle
    engine, the serving layer, the load generator and the frontend's
    hedge delay all record into this class, so P50/P95/P99 are computed
    identically wherever they are printed.  ``merge`` absorbs another
    recorder's window — the cross-worker aggregation primitive used by
    snapshot merging.
    """

    # __weakref__ so RecorderHandle.attach can hold owners' recorders
    # without pinning them alive.
    __slots__ = ("window", "count", "_ring", "_next", "__weakref__")

    def __init__(self, window: int = 65536):
        if window <= 0:
            raise ValueError(f"latency window must be positive, got {window}")
        self.window = int(window)
        self.count = 0
        self._ring: List[int] = []
        self._next = 0

    def record(self, nanoseconds: int) -> None:
        """Add one sample, overwriting the oldest once the window is full."""
        self.count += 1
        if len(self._ring) < self.window:
            self._ring.append(nanoseconds)
        else:
            self._ring[self._next] = nanoseconds
            self._next = (self._next + 1) % self.window

    def record_many(self, nanoseconds: int, count: int) -> None:
        """Add ``count`` identical samples with slice assignment, not a loop.

        Used by batch queries, whose per-query latency is the amortised
        share of the batch: the batch path genuinely smooths the tail, so
        equal samples are the honest representation of it.
        """
        if count <= 0:
            return
        self.count += count
        fill = min(count, self.window)
        capacity = self.window - len(self._ring)
        if capacity:
            take = min(fill, capacity)
            self._ring.extend([nanoseconds] * take)
            fill -= take
        if fill:
            end = self._next + fill
            if end <= self.window:
                self._ring[self._next:end] = [nanoseconds] * fill
                self._next = end % self.window
            else:
                wrap = end - self.window
                self._ring[self._next:] = [nanoseconds] * (self.window - self._next)
                self._ring[:wrap] = [nanoseconds] * wrap
                self._next = wrap

    def merge(self, other: "LatencyRecorder") -> "LatencyRecorder":
        """Absorb ``other``'s current window into this recorder.

        Totals add; samples concatenate (bounded by this recorder's
        window, oldest evicted first).  Merging is how per-worker
        percentile state aggregates into a fleet view — when the union
        fits both windows the resulting sample multiset is exactly the
        union, so merge order cannot change any percentile.
        """
        self.count += other.count
        for sample in other.samples():
            # record() would double-count `count`, so feed the ring directly.
            if len(self._ring) < self.window:
                self._ring.append(sample)
            else:
                self._ring[self._next] = sample
                self._next = (self._next + 1) % self.window
        return self

    def samples(self) -> List[int]:
        """The current window's samples (nanoseconds, unordered)."""
        return list(self._ring)

    @staticmethod
    def _pick(ordered: List[int], p: float) -> float:
        """Nearest-rank percentile of pre-sorted samples, in microseconds."""
        rank = min(len(ordered) - 1, max(0, round(p / 100.0 * (len(ordered) - 1))))
        return ordered[rank] / 1000.0

    def percentile(self, p: float) -> Optional[float]:
        """The ``p``-th percentile latency in microseconds (None if empty)."""
        if not self._ring:
            return None
        return self._pick(sorted(self._ring), p)

    def snapshot(self) -> Dict[str, Optional[float]]:
        """P50/P95/P99 and mean over the current window, in microseconds."""
        if not self._ring:
            return {"count": 0, "p50_us": None, "p95_us": None, "p99_us": None,
                    "mean_us": None}
        ordered = sorted(self._ring)
        return {
            "count": self.count,
            "p50_us": self._pick(ordered, 50.0),
            "p95_us": self._pick(ordered, 95.0),
            "p99_us": self._pick(ordered, 99.0),
            "mean_us": sum(ordered) / len(ordered) / 1000.0,
        }


class _Callbacks:
    """Weakly-bound read functions folded into a child's value.

    A callback registered with an ``owner`` holds only a weak reference:
    when the owner (an engine, a cache, a server) is garbage-collected
    its contribution silently disappears, so registries never pin dead
    tiers alive or report stale values.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: List[Tuple[Optional[weakref.ref], Callable]] = []

    def add(self, fn: Callable, owner: Optional[object] = None) -> None:
        ref = weakref.ref(owner) if owner is not None else None
        self._entries.append((ref, fn))

    def total(self) -> float:
        value = 0.0
        live: List[Tuple[Optional[weakref.ref], Callable]] = []
        for ref, fn in self._entries:
            if ref is None:
                value += float(fn())
                live.append((ref, fn))
                continue
            owner = ref()
            if owner is None:
                continue  # dead owner: drop the callback
            value += float(fn(owner))
            live.append((ref, fn))
        if len(live) != len(self._entries):
            self._entries = live
        return value

    def __len__(self) -> int:
        return len(self._entries)


class Counter:
    """Monotone total: callback-backed reads, or ``inc`` at a rare site."""

    __slots__ = ("_lock", "_value", "_callbacks")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0
        self._callbacks = _Callbacks()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def set_function(self, fn: Callable, owner: Optional[object] = None) -> None:
        """Fold ``fn()`` (or ``fn(owner)`` via weakref) into this counter.

        The function must read a *monotone* total the owner already
        maintains: the owner's hot path keeps its plain attribute
        increment and the registry reads it only when a snapshot is taken.
        """
        self._callbacks.add(fn, owner)

    @property
    def value(self) -> float:
        return self._value + self._callbacks.total()


class Gauge:
    """Instantaneous value, read through callbacks at snapshot time."""

    __slots__ = ("_callbacks",)

    def __init__(self) -> None:
        self._callbacks = _Callbacks()

    def set_function(self, fn: Callable, owner: Optional[object] = None) -> None:
        self._callbacks.add(fn, owner)

    @property
    def value(self) -> float:
        return self._callbacks.total()


class RecorderHandle:
    """Latency windows owned elsewhere, merged at snapshot time.

    ``attach`` registers a :class:`LatencyRecorder` (an engine's, a
    server's) under a weak reference: the owner keeps recording into its
    own window, ``/metricsz`` sees every sample, and a dropped owner's
    window drops out.
    """

    __slots__ = ("_attached",)

    #: Samples exported per child in registry snapshots (downsampled
    #: deterministically) so merged fleet snapshots stay small on the wire.
    EXPORT_SAMPLES = 2048

    def __init__(self) -> None:
        self._attached: List[weakref.ref] = []

    def attach(self, recorder: LatencyRecorder) -> None:
        self._attached.append(weakref.ref(recorder))

    @property
    def value(self) -> Dict[str, object]:
        """Snapshot payload: total count plus a bounded sample list."""
        merged = LatencyRecorder(65536)
        live = []
        for ref in self._attached:
            peer = ref()
            if peer is not None:
                merged.merge(peer)
                live.append(ref)
        self._attached = live
        samples = merged.samples()
        stride = max(1, len(samples) // self.EXPORT_SAMPLES)
        return {
            "count": merged.count,
            "samples_us": [round(s / 1000.0, 3) for s in samples[::stride]],
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "recorder": RecorderHandle}


class _Family:
    __slots__ = ("kind", "help", "children")

    def __init__(self, kind: str, help_text: str):
        self.kind = kind
        self.help = help_text
        self.children: Dict[Tuple[Tuple[str, str], ...], Any] = {}


class MetricsRegistry:
    """Named metric families with label-set children and merge-safe snapshots."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    # ------------------------------------------------------------------
    # metric accessors (create-or-return)
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "",
                labels: LabelMap = None) -> Counter:
        return self._child("counter", name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: LabelMap = None) -> Gauge:
        return self._child("gauge", name, help, labels)

    def recorder(self, name: str, help: str = "",
                 labels: LabelMap = None) -> RecorderHandle:
        return self._child("recorder", name, help, labels)

    def _child(self, kind: str, name: str, help_text: str, labels: LabelMap):
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = _Family(kind, help_text)
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} is already registered as a "
                    f"{family.kind}, cannot re-register as a {kind}")
            child = family.children.get(key)
            if child is None:
                child = family.children[key] = _KINDS[kind]()
        return child

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-safe view of every family; the unit of fleet aggregation."""
        out: Dict[str, Dict[str, object]] = {
            "counters": {}, "gauges": {}, "recorders": {}}
        with self._lock:
            families = list(self._families.items())
        for name, family in families:
            out[family.kind + "s"][name] = {
                "help": family.help,
                "values": {_label_string(key): child.value
                           for key, child in family.children.items()},
            }
        return out

    def reset(self) -> None:
        """Drop every family (tests; live code never resets)."""
        with self._lock:
            self._families.clear()


def merge_snapshots(snapshots: Iterable[Dict[str, object]]
                    ) -> Dict[str, object]:
    """Fold registry snapshots into one: the fleet-aggregation primitive.

    Counters and gauges add; recorder sample lists concatenate.  The fold
    is associative and commutative for counters and gauges, so scraping
    workers in any order — or merging partial merges — yields the same
    fleet snapshot.
    """
    merged: Dict[str, Dict[str, object]] = {
        "counters": {}, "gauges": {}, "recorders": {}}
    for snapshot in snapshots:
        for kind in ("counters", "gauges"):
            for name, family in (snapshot.get(kind) or {}).items():
                target = merged[kind].setdefault(
                    name, {"help": family.get("help", ""), "values": {}})
                for label, value in family.get("values", {}).items():
                    target["values"][label] = (
                        target["values"].get(label, 0.0) + float(value))
        for name, family in (snapshot.get("recorders") or {}).items():
            target = merged["recorders"].setdefault(
                name, {"help": family.get("help", ""), "values": {}})
            for label, cell in family.get("values", {}).items():
                slot = target["values"].setdefault(
                    label, {"count": 0, "samples_us": []})
                slot["count"] += int(cell.get("count", 0))
                slot["samples_us"] = (list(slot["samples_us"])
                                      + list(cell.get("samples_us", [])))
    return merged


#: The process-wide default registry every tier instruments against.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry (workers each have their own process's)."""
    return _REGISTRY


def publish(owner: object, table: Sequence[Series],
            labels: LabelMap = None) -> None:
    """Register every row of ``table`` as a callback series read off ``owner``.

    ``owner`` is held weakly (see :class:`_Callbacks`), so publishing
    never keeps a tier alive.
    """
    for name, kind, help_text, read in table:
        _REGISTRY._child(kind, name, help_text, labels).set_function(
            read, owner)


def read_series(owner: object, table: Sequence[Series]) -> Dict[str, float]:
    """``owner``'s flat view of ``table``: ``{short name: value}``.

    The short name is the series name without its ``repro_<tier>_``
    prefix and ``_total`` suffix — ``repro_serve_coalesced_keys_total``
    reads as ``coalesced_keys``.
    """
    return {name.split("_", 2)[2].removesuffix("_total"): read(owner)
            for name, _kind, _help, read in table}
