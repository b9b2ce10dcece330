"""Process-wide metrics registry: counters, gauges, histograms, recorders.

Every tier of the stack (kernel dispatch, oracle engine, serving layer,
net fleet) reports health through the same :class:`MetricsRegistry`, so
one ``/metricsz`` scrape explains a process and one merge explains a
fleet.  Four metric kinds:

* :class:`Counter` — monotone float/int totals (queries served, frames
  decoded, retries).  Supports *callback* backing: a tier that already
  keeps its own counter (``QueryEngine._queries``, ``AnswerCache.hits``)
  registers a read function instead of paying an increment on its hot
  path — the registry reads the live value at snapshot time, so
  migrating existing stats onto the registry costs the hot path nothing.
* :class:`Gauge` — instantaneous values (queue depth, resident bytes,
  parked keys).  Same callback support.
* :class:`Histogram` — fixed-bucket distributions with Prometheus
  ``le`` (<=) bucket semantics; bucket counts merge associatively
  across processes.
* :class:`RecorderHandle` — the shared percentile path.  It wraps the
  bounded-ring :class:`LatencyRecorder` (the *single* implementation
  behind engine stats, per-client serving stats and the load
  generator) and can *attach* recorders owned by other
  objects, so their samples surface in ``/metricsz`` without double
  recording.

Label support (``labels={"kernel": "csr"}``) follows Prometheus: one
metric *family* per name, one child per label set.  Children are cheap
to hold — resolve them once at init time and call ``inc``/``observe``
on the child in the hot path.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain JSON-safe dicts
and merge associatively via :func:`merge_snapshots`, which is how the
frontend aggregates worker-process registries into one fleet view.

Everything is stdlib-only and thread-safe: family/child creation takes
the registry lock, mutations take a per-child lock, and a disabled
registry (``REPRO_METRICS=0`` or :func:`set_enabled`) turns every
mutation into an early return — the overhead benchmark gates the
enabled-vs-disabled difference.
"""

from __future__ import annotations

import os
import threading
import weakref
from bisect import bisect_left
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
    "DEFAULT_LATENCY_BUCKETS_US",
    "Gauge",
    "Histogram",
    "LatencyRecorder",
    "MetricsRegistry",
    "RecorderHandle",
    "get_registry",
    "inc",
    "merge_snapshots",
    "set_enabled",
]

#: Environment switch: any of these values disables the default registry
#: (worker processes inherit it through the spawn environment).
_DISABLED_VALUES = ("0", "false", "off", "no")

#: Default microsecond bucket edges for request-latency histograms.
DEFAULT_LATENCY_BUCKETS_US: Tuple[float, ...] = (
    50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0,
    25_000.0, 50_000.0, 100_000.0, 250_000.0, 1_000_000.0,
)

LabelMap = Optional[Mapping[str, str]]


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
    engine, per-client serving stats, the load generator, and the net
    benchmark all record into this class (re-exported from
    :mod:`repro.oracle.cache` for backward compatibility), so P50/P95/P99
    are computed identically wherever they are printed.  ``merge``
    absorbs another recorder's window — the cross-worker aggregation
    primitive used by snapshot merging.
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
    """Monotone total; ``inc`` in hot paths or callback-backed reads."""

    __slots__ = ("_registry", "_lock", "_value", "_callbacks")

    def __init__(self, registry: "MetricsRegistry"):
        self._registry = registry
        self._lock = threading.Lock()
        self._value = 0.0
        self._callbacks = _Callbacks()

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self._value += amount

    def set_function(self, fn: Callable, owner: Optional[object] = None) -> None:
        """Fold ``fn()`` (or ``fn(owner)`` via weakref) into this counter.

        The function must read a *monotone* total the owner already
        maintains — that is what makes the migration free: the owner's
        hot path keeps its plain attribute increment and the registry
        reads it only when a snapshot is taken.
        """
        self._callbacks.add(fn, owner)

    @property
    def value(self) -> float:
        return self._value + self._callbacks.total()


class Gauge:
    """Instantaneous value; ``set``/``add`` or callback-backed reads."""

    __slots__ = ("_registry", "_lock", "_value", "_callbacks")

    def __init__(self, registry: "MetricsRegistry"):
        self._registry = registry
        self._lock = threading.Lock()
        self._value = 0.0
        self._callbacks = _Callbacks()

    def set(self, value: float) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self._value = float(value)

    def add(self, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self._value += amount

    def set_function(self, fn: Callable, owner: Optional[object] = None) -> None:
        self._callbacks.add(fn, owner)

    @property
    def value(self) -> float:
        return self._value + self._callbacks.total()


class Histogram:
    """Fixed-bucket distribution with Prometheus ``le`` (<=) semantics.

    ``buckets`` are the finite upper edges; one implicit overflow bucket
    (``+Inf``) catches everything beyond the last edge.  Per-bucket
    counts are stored non-cumulatively and merged elementwise, which is
    what makes fleet aggregation associative and exact.
    """

    __slots__ = ("_registry", "_lock", "buckets", "counts", "sum", "count")

    def __init__(self, registry: "MetricsRegistry",
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_US):
        edges = tuple(float(edge) for edge in buckets)
        if not edges or any(nxt <= prev for nxt, prev in zip(edges[1:], edges)):
            raise ValueError(
                f"histogram buckets must be strictly increasing and "
                f"non-empty, got {buckets!r}")
        self._registry = registry
        self._lock = threading.Lock()
        self.buckets = edges
        self.counts = [0] * (len(edges) + 1)  # [+Inf overflow last]
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        index = bisect_left(self.buckets, value)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1

    def observe_many(self, value: float, count: int) -> None:
        if count <= 0 or not self._registry.enabled:
            return
        index = bisect_left(self.buckets, value)
        with self._lock:
            self.counts[index] += count
            self.sum += value * count
            self.count += count


class RecorderHandle:
    """A registry-managed :class:`LatencyRecorder`, plus attached peers.

    ``record``/``record_many`` feed the handle's own recorder (the net
    benchmark's path).  ``attach`` registers a recorder owned elsewhere
    (an engine's, a per-client stat's) under a weak reference — its live
    window is merged in at snapshot time, so existing ``stats()`` shapes
    keep their private recorders while ``/metricsz`` sees every sample.
    """

    __slots__ = ("_registry", "recorder", "_attached")

    #: Samples exported per child in registry snapshots (downsampled
    #: deterministically) so merged fleet snapshots stay small on the wire.
    EXPORT_SAMPLES = 2048

    def __init__(self, registry: "MetricsRegistry", window: int = 65536):
        self._registry = registry
        self.recorder = LatencyRecorder(window)
        self._attached: List[weakref.ref] = []

    def record(self, nanoseconds: int) -> None:
        if self._registry.enabled:
            self.recorder.record(nanoseconds)

    def record_many(self, nanoseconds: int, count: int) -> None:
        if self._registry.enabled:
            self.recorder.record_many(nanoseconds, count)

    def attach(self, recorder: LatencyRecorder) -> None:
        self._attached.append(weakref.ref(recorder))

    def merged(self) -> LatencyRecorder:
        """One recorder over the handle's own window plus attached peers."""
        out = LatencyRecorder(max(self.recorder.window, 65536))
        out.merge(self.recorder)
        live = []
        for ref in self._attached:
            peer = ref()
            if peer is None:
                continue
            out.merge(peer)
            live.append(ref)
        if len(live) != len(self._attached):
            self._attached = live
        return out

    def snapshot(self) -> Dict[str, Optional[float]]:
        return self.merged().snapshot()

    def export(self) -> Dict[str, object]:
        """Snapshot payload for registry snapshots: count + sample list."""
        merged = self.merged()
        samples = merged.samples()
        stride = max(1, len(samples) // self.EXPORT_SAMPLES)
        return {
            "count": merged.count,
            "samples_us": [round(s / 1000.0, 3) for s in samples[::stride]],
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram,
          "recorder": RecorderHandle}


class _Family:
    __slots__ = ("kind", "help", "extra", "children")

    def __init__(self, kind: str, help_text: str, extra: Dict[str, Any]):
        self.kind = kind
        self.help = help_text
        self.extra = extra
        self.children: Dict[Tuple[Tuple[str, str], ...], Any] = {}


class MetricsRegistry:
    """Named metric families with label-set children and merge-safe snapshots."""

    def __init__(self, enabled: Optional[bool] = None):
        if enabled is None:
            enabled = os.environ.get(
                "REPRO_METRICS", "on").strip().lower() not in _DISABLED_VALUES
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    # ------------------------------------------------------------------
    # metric accessors (create-or-return; hot paths hold the child)
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "",
                labels: LabelMap = None) -> Counter:
        return self._child("counter", name, help, labels, {})

    def gauge(self, name: str, help: str = "",
              labels: LabelMap = None) -> Gauge:
        return self._child("gauge", name, help, labels, {})

    def histogram(self, name: str, help: str = "", labels: LabelMap = None,
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_US,
                  ) -> Histogram:
        return self._child("histogram", name, help, labels,
                           {"buckets": tuple(float(b) for b in buckets)})

    def recorder(self, name: str, help: str = "", labels: LabelMap = None,
                 window: int = 65536) -> RecorderHandle:
        return self._child("recorder", name, help, labels, {"window": window})

    def _child(self, kind: str, name: str, help_text: str, labels: LabelMap,
               extra: Dict[str, Any]):
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = _Family(kind, help_text, extra)
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} is already registered as a "
                    f"{family.kind}, cannot re-register as a {kind}")
            child = family.children.get(key)
            if child is None:
                if kind == "histogram":
                    child = Histogram(self, buckets=extra["buckets"])
                elif kind == "recorder":
                    child = RecorderHandle(self, window=extra["window"])
                else:
                    child = _KINDS[kind](self)
                family.children[key] = child
        return child

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-safe view of every family; the unit of fleet aggregation."""
        out: Dict[str, Dict[str, object]] = {
            "counters": {}, "gauges": {}, "histograms": {}, "recorders": {}}
        with self._lock:
            families = list(self._families.items())
        for name, family in families:
            if family.kind == "counter":
                out["counters"][name] = {
                    "help": family.help,
                    "values": {_label_string(key): child.value
                               for key, child in family.children.items()},
                }
            elif family.kind == "gauge":
                out["gauges"][name] = {
                    "help": family.help,
                    "values": {_label_string(key): child.value
                               for key, child in family.children.items()},
                }
            elif family.kind == "histogram":
                out["histograms"][name] = {
                    "help": family.help,
                    "buckets": list(family.extra["buckets"]),
                    "values": {
                        _label_string(key): {"counts": list(child.counts),
                                             "sum": child.sum,
                                             "count": child.count}
                        for key, child in family.children.items()},
                }
            else:  # recorder
                out["recorders"][name] = {
                    "help": family.help,
                    "values": {_label_string(key): child.export()
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

    Counters, gauges, and histogram bucket counts add; recorder sample
    lists concatenate.  The fold is associative and commutative for
    every exact kind (counters/gauges/histograms), so scraping workers
    in any order — or merging partial merges — yields the same fleet
    snapshot.
    """
    merged: Dict[str, Dict[str, object]] = {
        "counters": {}, "gauges": {}, "histograms": {}, "recorders": {}}
    for snapshot in snapshots:
        for kind in ("counters", "gauges"):
            for name, family in (snapshot.get(kind) or {}).items():
                target = merged[kind].setdefault(
                    name, {"help": family.get("help", ""), "values": {}})
                for label, value in family.get("values", {}).items():
                    target["values"][label] = (
                        target["values"].get(label, 0.0) + float(value))
        for name, family in (snapshot.get("histograms") or {}).items():
            target = merged["histograms"].setdefault(
                name, {"help": family.get("help", ""),
                       "buckets": list(family.get("buckets", [])),
                       "values": {}})
            if list(family.get("buckets", [])) != target["buckets"]:
                raise ValueError(
                    f"histogram {name!r} has mismatched bucket edges "
                    f"across snapshots; cannot merge")
            for label, cell in family.get("values", {}).items():
                slot = target["values"].get(label)
                if slot is None:
                    target["values"][label] = {
                        "counts": list(cell["counts"]),
                        "sum": float(cell["sum"]),
                        "count": int(cell["count"])}
                else:
                    slot["counts"] = [a + b for a, b in
                                      zip(slot["counts"], cell["counts"])]
                    slot["sum"] += float(cell["sum"])
                    slot["count"] += int(cell["count"])
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


def set_enabled(enabled: bool) -> None:
    """Flip instrumentation on/off process-wide (the overhead baseline)."""
    _REGISTRY.enabled = bool(enabled)


def inc(name: str, help: str = "", labels: LabelMap = None,
        amount: float = 1.0) -> None:
    """Bump a counter on the default registry, creating it on first use.

    The one-liner for call sites (chaos injection, quarantine paths)
    that fire rarely enough that holding a Counter handle is not worth
    the plumbing::

        inc("repro_chaos_injections_total", labels={"site": "worker.recv"})
    """
    _REGISTRY.counter(name, help, labels=labels).inc(amount)
